// Seeded violation: Algorithm 1's steps 2-5 kernel builds a local
// std::priority_queue per call instead of reusing per-thread scratch. The
// hot-alloc rule must reach it from the named core root.
#include <functional>
#include <queue>
#include <vector>

namespace core {

double fast_payments_from_spts(const std::vector<double>& seeds) {
  std::priority_queue<double, std::vector<double>, std::greater<>> pq(
      seeds.begin(), seeds.end());
  double settled = 0.0;
  while (!pq.empty()) {
    settled += pq.top();
    pq.pop();
  }
  return settled;
}

}  // namespace core
