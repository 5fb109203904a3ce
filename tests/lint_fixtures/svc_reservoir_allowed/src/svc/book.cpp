// A bounded histogram is the serving layer's latency book; naming
// util::Percentiles in a comment (as here) is not a use.
#include "util/series.hpp"

struct Book {
  util::LatencyHistogram latencies;
};

void record(Book& book, double ns) { book.latencies.record(ns); }
