// Algorithm 1's steps 2-5 kernel on per-thread scratch: arena growth only.
// Its debug-only audit allocates freely; the rule treats audit_ok as a
// boundary and does not descend into it.
#include <cstddef>
#include <vector>

#define TC_DCHECK(cond)    \
  do {                     \
    (void)sizeof(!(cond)); \
  } while (0)

namespace core {

bool audit_ok(std::size_t n) {
  std::vector<int> witness(n, 0);
  return witness.size() == n;
}

struct Scratch {
  std::vector<double> level;
};

Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

double fast_payments_from_spts(std::size_t n) {
  Scratch& s = thread_scratch();
  s.level.assign(n, 0.0);
  TC_DCHECK(audit_ok(n));
  return s.level.empty() ? 0.0 : s.level.front();
}

}  // namespace core
