// Shared pieces of the benchmark driver: clocks, exact percentiles, the
// in-memory span recorder, process CPU / RSS probes, the host fingerprint,
// and the result record every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the same clock Fleet stamps).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Exact order statistics over every recorded sample.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  std::size_t count() const { return v_.size(); }
  /// Linear-interpolated percentile, p in [0, 100]; 0 when empty.
  double pct(double p) const;
  double median() const { return pct(50.0); }

 private:
  std::vector<double> v_;
};

/// Sets a world up `count` times, adding each set-up's seconds to `out`,
/// and returns the last one; each earlier world is torn down before the
/// next set-up is timed. Set-ups first run untimed for two seconds: on the
/// shared 4-vCPU reference VM the first second or so of some processes
/// (not others) ran set-up twice as slow, and a median of a few set-ups
/// took that in whole.
template <class World, class Make>
World timed_setups(int count, Samples& out, Make make) {
  constexpr std::int64_t kWarmNs = 2'000'000'000;
  World w;
  const std::int64_t warm_end = now_ns() + kWarmNs;
  while (now_ns() < warm_end) {
    w = World{};
    w = make();
  }
  for (int k = 0; k < count; ++k) {
    w = World{};
    const std::int64_t a = now_ns();
    w = make();
    out.add(static_cast<double>(now_ns() - a) / 1e9);
  }
  return w;
}

/// Span names: one per layer boundary the benchmark times.
enum class SpanName : std::uint8_t {
  kRequest,           ///< client request, due time -> fleet completion
  kGenLag,            ///< due time -> the generator's submit call
  kFleetSubmit,       ///< caller's time inside Fleet::submit
  kFleetService,      ///< Response::latency_us (submit -> completion)
  kSweep,             ///< cold_sweep: one declare_costs + quote_all
  kEngineQuote,       ///< QuoteEngine::quote
  kEngineDeclare,     ///< QuoteEngine::declare_cost
  kEngineQuoteBatch,  ///< QuoteEngine::quote_batch
  kEngineDeclareCosts,
  kEngineQuoteAll,
  kPricerPrice,
  kPricerPriceWithSpts,
  kCoreVcgFast,       ///< core::vcg_payments_fast
  kSpathDijkstra,     ///< spath::dijkstra_node_into
  kSpathSptMulti,     ///< spath::spt_multi_into over all roots
};

const char* to_string(SpanName name);

/// One timed interval. `parent` is the index + 1 of the enclosing span in
/// the same Tracer (0 = root); spans of one request share `request`.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;
  std::uint32_t parent = 0;
  SpanName name = SpanName::kRequest;
};

/// Spans kept in memory for one thread and written out at exit. A
/// disabled tracer records nothing and returns 0 from add().
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// Records a span; returns its parent handle (index + 1), 0 when off.
  std::uint32_t add(SpanName name, std::uint64_t request, std::uint32_t parent,
                    std::int64_t start_ns, std::int64_t end_ns);
  /// Durations in microseconds of every span named `name`.
  Samples durations_us(SpanName name) const;
  std::size_t size() const { return spans_.size(); }
  /// CSV: name,request,parent,start_ns,end_ns (times relative to origin).
  bool write_csv(const std::string& path, std::int64_t origin_ns) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Process user+system CPU seconds so far (getrusage RUSAGE_SELF).
double process_cpu_s();
/// Peak resident set so far, in MB (ru_maxrss).
double peak_rss_mb();

/// What the results were measured on; the compare step refuses to put
/// records from different hosts side by side.
struct Host {
  unsigned nproc = 0;
  std::string cpu_model;
  bool avx512 = false;
  std::string build_type;
  std::string compiler;
};
Host probe_host();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< sample count behind the value (0 = n/a)
};

/// Thrown by a correctness gate; main() turns it into a non-zero exit
/// that names the workload and seed.
class GateFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a run cannot be trusted as a measurement (e.g. the open-
/// loop generator fell behind its schedule).
class RunRefused : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: corrupt one sampled payment before the gate runs.
  bool tamper = false;
  /// Where traced runs write their spans ("" = do not write).
  std::string trace_dir;
};

/// One measured phase of a workload (untraced or traced).
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Non-kOk responses by Status name.
  std::vector<std::pair<std::string, std::uint64_t>> failures;
  std::vector<Metric> e2e;    ///< BENCHMARK.json end_to_end, in order
  std::vector<Metric> layer;  ///< per-layer metrics (traced phase only)
  std::vector<std::string> notes;
};

/// Looks up a metric by name (nullptr when absent).
const Metric* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name);

/// Shortest round-trip decimal form of a finite double.
std::string fmt_double(double x);

}  // namespace pb
