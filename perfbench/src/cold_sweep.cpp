// cold_sweep: a library caller with no Fleet. One QuoteEngine on an
// n=1024 unit-disk graph; each sweep bulk-declares a fresh cost vector
// (declare_costs: full cache flush, warm-SPT poison) and then prices every
// source with quote_all, so nothing is reused and the batched kernels
// (spath::spt_multi_into) and Algorithm 1 (core) dominate. After each
// sweep the caller asks for a few ordered-pair quotes on the fresh
// profile; those are the workload's single-quote latencies.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/fast_payment.hpp"
#include "gate.hpp"
#include "graph/generators.hpp"
#include "spath/batch.hpp"
#include "spath/workspace.hpp"
#include "svc/quote_engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace tc;
using graph::Cost;
using graph::NodeId;

constexpr std::size_t kNodes = 1024;
/// Ordered-pair quotes the caller asks for after each sweep. The first
/// one after a sweep pays the warm-SPT refill the bulk declare forced. At
/// 128 pairs that is 0.78% of the pair quotes, so quote_p99_us reads the
/// tail of ordinary pair quotes. At 64 pairs (1.6%) the p99 fell among
/// the few dozen refills of a run, and it spread between runs half again
/// as wide as the median did.
constexpr std::size_t kPairsPerSweep = 128;
/// Sources (and pairs) per sweep checked by the gate.
constexpr std::size_t kGateSources = 4;
constexpr std::size_t kGatePairs = 2;
/// Sweeps whose snapshot the traced run re-times layer by layer.
constexpr std::size_t kLayerSweeps = 8;
constexpr std::size_t kLayerSourcesPerSweep = 8;

struct World {
  std::unique_ptr<svc::QuoteEngine> engine;
};

World setup(std::uint64_t seed) {
  graph::UdgParams params;
  params.n = kNodes;
  const double side = 2000.0 * std::sqrt(static_cast<double>(kNodes) / 300.0);
  params.region = {side, side};
  params.range_m = 300.0;
  World w;
  w.engine = std::make_unique<svc::QuoteEngine>(
      graph::make_unit_disk_node(params, 1.0, 10.0, seed * 7919 + 17), 0);
  (void)w.engine->quote_all();  // pool threads up, snapshot materialized
  return w;
}

/// One checked answer: (source, target) priced under `snap`.
struct Checked {
  std::shared_ptr<const svc::ProfileSnapshot> snap;
  NodeId source = 0;
  NodeId target = 0;
  std::optional<core::PaymentResult> quote;
};

}  // namespace

PhaseResult run_cold_sweep(const Options& opts, bool traced, int setups) {
  Samples setup_s;
  World w = timed_setups<World>(setups, setup_s,
                                [&] { return setup(opts.seed); });
  svc::QuoteEngine& engine = *w.engine;
  const NodeId ap = engine.access_point();
  util::Rng rng(opts.seed ^ 0xc01d5eedULL);
  Tracer tracer(traced);

  Samples sweep_ms, quote_all_ms, pair_us;
  // Throughput and CPU per source are taken per round (one sweep and its
  // pair quotes) and reported as the median over rounds, so a host stall
  // moves the rounds it covers, not the figure.
  Samples round_ops_per_s, round_cpu_us_per_op;
  // Each round's answers are checked as soon as the round ends, outside
  // its timed intervals, and then dropped: kept for one gate at the end,
  // their snapshots made peak_rss_mb grow with the number of rounds a run
  // managed, that is with the host's speed.
  std::vector<Checked> checks;
  bool tamper_pending = opts.tamper;
  std::vector<std::shared_ptr<const svc::ProfileSnapshot>> layer_snaps;
  std::uint64_t priced = 0;
  std::uint64_t attempted = 0;
  const svc::MetricsSnapshot before = engine.metrics();
  double cpu_last = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(opts.seconds * 1e9);
  std::int64_t last = t0;
  std::vector<Cost> costs(kNodes);
  constexpr double kRoundOps = static_cast<double>(kNodes - 1 + kPairsPerSweep);
  for (std::uint64_t sweep = 0; last < end; ++sweep) {
    for (Cost& c : costs) c = rng.uniform(1.0, 10.0);
    const std::int64_t a = now_ns();
    (void)engine.declare_costs(costs);
    const std::int64_t b = now_ns();
    std::vector<std::optional<core::PaymentResult>> quotes = engine.quote_all();
    const std::int64_t c = now_ns();
    ++attempted;
    priced += kNodes - 1;
    quote_all_ms.add(static_cast<double>(c - b) / 1e6);
    sweep_ms.add(static_cast<double>(c - a) / 1e6);
    const std::uint32_t root = tracer.add(SpanName::kSweep, sweep, 0, a, c);
    tracer.add(SpanName::kEngineDeclareCosts, sweep, root, a, b);
    tracer.add(SpanName::kEngineQuoteAll, sweep, root, b, c);

    const auto snap = engine.snapshot();
    checks.clear();
    for (std::size_t i = 0; i < kGateSources; ++i) {
      const auto s = static_cast<NodeId>(1 + rng.next_below(kNodes - 1));
      checks.push_back({snap, s, ap, quotes[s]});
    }
    if (traced && layer_snaps.size() < kLayerSweeps) layer_snaps.push_back(snap);

    for (std::size_t i = 0; i < kPairsPerSweep; ++i) {
      const auto s = static_cast<NodeId>(rng.next_below(kNodes));
      auto t = static_cast<NodeId>(rng.next_below(kNodes - 1));
      if (t >= s) ++t;
      const std::int64_t qa = now_ns();
      std::optional<core::PaymentResult> q = engine.quote(s, t);
      const std::int64_t qb = now_ns();
      pair_us.add(static_cast<double>(qb - qa) / 1e3);
      tracer.add(SpanName::kEngineQuote, sweep, root, qa, qb);
      ++attempted;
      ++priced;
      if (i < kGatePairs) checks.push_back({snap, s, t, std::move(q)});
    }
    const std::int64_t round_end = now_ns();
    round_ops_per_s.add(kRoundOps * 1e9 / static_cast<double>(round_end - a));
    round_cpu_us_per_op.add((process_cpu_s() - cpu_last) * 1e6 / kRoundOps);

    // Gate: each checked answer against Algorithm 1 on its own snapshot
    // and against the mechanism auditor.
    if (tamper_pending) {
      tamper_pending =
          std::find_if(checks.begin(), checks.end(), [](Checked& k) {
            return tamper_quote(k.quote);
          }) == checks.end();
    }
    for (const Checked& k : checks) {
      if (k.quote && k.quote->profile_version != k.snap->epoch()) {
        throw GateFailure("quote " + std::to_string(k.source) + "->" +
                          std::to_string(k.target) + " stamped epoch " +
                          std::to_string(k.quote->profile_version) +
                          ", priced snapshot is epoch " +
                          std::to_string(k.snap->epoch()));
      }
      const std::string d =
          check_against_kernel(k.snap->node(), k.source, k.target, k.quote);
      if (!d.empty()) {
        throw GateFailure("quote " + std::to_string(k.source) + "->" +
                          std::to_string(k.target) + " at epoch " +
                          std::to_string(k.snap->epoch()) + ": " + d);
      }
    }
    cpu_last = process_cpu_s();
    last = round_end;
  }
  checks.clear();
  if (tamper_pending) throw RunRefused("--tamper found no route to corrupt");
  const double rss = peak_rss_mb();
  const svc::MetricsSnapshot after = engine.metrics();

  PhaseResult out;
  out.attempted = attempted;
  out.e2e = {
      {"quote_p50_us", pair_us.median(), "us", pair_us.count()},
      {"quote_p99_us", pair_us.pct(99), "us", pair_us.count()},
      {"ops_per_s", round_ops_per_s.median(), "1/s", priced},
      {"sweep_p50_ms", sweep_ms.median(), "ms", sweep_ms.count()},
      {"cpu_us_per_op", round_cpu_us_per_op.median(), "us", priced},
      {"setup_s", setup_s.median(), "s", setup_s.count()},
      {"peak_rss_mb", rss, "MB", 1},
  };

  if (!traced) return out;

  // Layer calls on the saved sweep snapshots, outside the timed window.
  spath::DijkstraWorkspace ws;
  spath::SptMatrix matrix;
  std::vector<NodeId> roots(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) roots[v] = v;
  const svc::Pricer& pricer = engine.pricer();
  for (std::size_t k = 0; k < layer_snaps.size(); ++k) {
    const svc::ProfileSnapshot& snap = *layer_snaps[k];
    const graph::NodeGraph& g = snap.node();
    std::int64_t a = now_ns();
    spath::spt_multi_into(ws, matrix, g, roots);
    tracer.add(SpanName::kSpathSptMulti, k, 0, a, now_ns());
    for (std::size_t i = 0; i < kLayerSourcesPerSweep; ++i) {
      const auto s = static_cast<NodeId>(1 + rng.next_below(kNodes - 1));
      a = now_ns();
      spath::dijkstra_node_into(ws, g, s);
      tracer.add(SpanName::kSpathDijkstra, k, 0, a, now_ns());
      spath::SptResult spt_s = ws.to_result();
      a = now_ns();
      spath::dijkstra_node_into(ws, g, ap);
      tracer.add(SpanName::kSpathDijkstra, k, 0, a, now_ns());
      spath::SptResult spt_t = ws.to_result();
      a = now_ns();
      (void)pricer.price(snap, s, ap);
      tracer.add(SpanName::kPricerPrice, k, 0, a, now_ns());
      a = now_ns();
      (void)pricer.price_with_spts(snap, s, ap, std::move(spt_s),
                                   std::move(spt_t));
      tracer.add(SpanName::kPricerPriceWithSpts, k, 0, a, now_ns());
      a = now_ns();
      (void)core::vcg_payments_fast(g, s, ap);
      tracer.add(SpanName::kCoreVcgFast, k, 0, a, now_ns());
    }
  }

  const auto layer = [&](const char* name, double value, const char* unit,
                         std::size_t samples) {
    out.layer.push_back({name, value, unit, samples});
  };
  const auto span_pct = [&](const char* name, SpanName span, double p,
                            double scale, const char* unit) {
    const Samples s = tracer.durations_us(span);
    layer(name, s.pct(p) * scale, unit, s.count());
  };
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x - y);
  };
  const double hits = d(after.cache_hits, before.cache_hits);
  const double misses = d(after.cache_misses, before.cache_misses);
  const double evicted = d(after.quotes_evicted, before.quotes_evicted);
  const double retained = d(after.quotes_retained, before.quotes_retained);
  const auto frac = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  span_pct("quote_engine.quote_p50_us", SpanName::kEngineQuote, 50, 1, "us");
  span_pct("quote_engine.quote_p99_us", SpanName::kEngineQuote, 99, 1, "us");
  layer("quote_engine.hit_rate", frac(hits, hits + misses), "ratio", 0);
  layer("quote_engine.retained_frac", frac(retained, retained + evicted),
        "ratio", 0);
  layer("quote_engine.warm_priced_frac",
        frac(d(after.warm_priced, before.warm_priced), misses), "ratio", 0);
  layer("quote_engine.warm_fallbacks",
        d(after.warm_fallbacks, before.warm_fallbacks), "count", 0);
  layer("quote_engine.snapshot_rebases",
        d(after.snapshot_rebases, before.snapshot_rebases), "count", 0);
  span_pct("quote_engine.declare_costs_ms", SpanName::kEngineDeclareCosts, 50,
           1e-3, "ms");
  span_pct("quote_engine.quote_all_ms", SpanName::kEngineQuoteAll, 50, 1e-3,
           "ms");
  span_pct("pricer.price_p50_us", SpanName::kPricerPrice, 50, 1, "us");
  span_pct("pricer.price_with_spts_p50_us", SpanName::kPricerPriceWithSpts, 50,
           1, "us");
  span_pct("core.vcg_payments_fast_p50_us", SpanName::kCoreVcgFast, 50, 1,
           "us");
  span_pct("spath.dijkstra_node_into_p50_us", SpanName::kSpathDijkstra, 50, 1,
           "us");
  span_pct("spath.spt_multi_into_ms", SpanName::kSpathSptMulti, 50, 1e-3,
           "ms");
  if (!opts.trace_dir.empty()) {
    const std::string path = opts.trace_dir + "/cold_sweep.spans.csv";
    out.notes.push_back(tracer.write_csv(path, t0)
                            ? std::to_string(tracer.size()) + " spans -> " + path
                            : "could not write " + path);
  }
  return out;
}

}  // namespace pb
