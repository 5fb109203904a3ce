// The reservoir itself lives outside the serving layer and stays legal
// there (figure series, bootstrap CIs).
#pragma once

namespace util {
struct Percentiles {
  void add(double) {}
};
struct LatencyHistogram {
  void record(double) {}
};
}  // namespace util
