// Seeded violation: a sample-storing reservoir as a serving-layer
// latency book, which grows with every request served.
namespace util {
struct Percentiles {
  void add(double) {}
};
}  // namespace util

struct Book {
  util::Percentiles latencies;
};

void record(Book& book, double us) { book.latencies.add(us); }
