// Fleet soak: N client threads replay a mixed quote/declare stream
// against a svc::Fleet hosting 1000+ tenants, then every tenant's final
// price sheet is re-derived by an independent per-tenant oracle engine.
//
// What is measured
//   * sustained mixed-request throughput through the full service path
//     (admission control -> shard mailbox -> worker -> engine);
//   * end-to-end latency percentiles (submit -> response, queue wait
//     included) per priority class, p50/p99/p999 in microseconds;
//   * SLO attainment: the fraction of admitted quote requests answered
//     with a price rather than shed, throttled, or expired.
//
// What is verified (before any number is reported)
//   Each client thread owns the tenants with id % clients == client, and
//   only the owner ever declares into a tenant — so the per-tenant
//   declare order is exactly the owner's submission order (shard
//   mailboxes are FIFO). After the soak drains, every tenant's accepted
//   declares are replayed into a fresh conservative-mode QuoteEngine
//   (full flush + cold pricing: the always-correct baseline) and probe
//   quotes through the fleet must match the oracle payment-for-payment
//   and epoch-for-epoch. Any divergence fails the binary — cross-tenant
//   interference cannot hide behind a good latency table.
//
// Load shape and scheduler A/B
//   --skew zipf:<s> draws quote tenants from a Zipf(s) distribution
//   (declares stay uniform over owned tenants), concentrating read
//   traffic on hot low-id tenants; --sched off disables the load-aware
//   scheduler (placement, stealing, WFQ weights) to get the static
//   `tenant % shards` baseline the speedup is measured against.
//
// BENCH_fleet.json is the committed reference; tools/bench_compare.py
// gates ops_per_sec / latency / attainment against it in CI (`--quick`
// shrinks the soak to a smoke).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "svc/fleet.hpp"
#include "util/rng.hpp"

namespace {

using namespace tc;
using graph::Cost;
using graph::NodeId;

/// One accepted declaration, in per-tenant submission order.
struct DeclareRec {
  NodeId node = 0;
  Cost cost = 0.0;
};

/// What a client remembers about one in-flight request: enough to log
/// the declare iff the fleet accepted it.
struct Inflight {
  std::future<svc::Response> future;
  svc::TenantId tenant = 0;
  bool is_declare = false;
  NodeId node = 0;
  Cost cost = 0.0;
};

struct ClientTotals {
  std::uint64_t interactive = 0;
  std::uint64_t batch = 0;
};

graph::NodeGraph tenant_graph(std::uint64_t seed, std::size_t nodes) {
  return graph::make_erdos_renyi(nodes, 0.3, 0.5, 9.0, seed);
}

/// Zipf(s) sampler over tenant ids: weight(rank) = (rank+1)^-s with
/// tenant id == rank, so low ids are hot. s == 0 degrades to uniform.
/// Under static `tenant % shards` placement, hot low ids concentrate on
/// the low shards — exactly the imbalance the load-aware scheduler has
/// to erase.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t rank = 0; rank < n; ++rank) {
      total += std::pow(static_cast<double>(rank + 1), -s);
      cdf_[rank] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t sample(util::Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Drains a window of in-flight requests, logging accepted declares.
void drain(std::vector<Inflight>& window,
           std::vector<std::vector<DeclareRec>>& logs) {
  for (Inflight& f : window) {
    const svc::Response r = f.future.get();
    if (f.is_declare && r.ok()) logs[f.tenant].push_back({f.node, f.cost});
  }
  window.clear();
}

void run_client(svc::Fleet& fleet, std::uint64_t seed, std::size_t client,
                std::size_t clients, std::size_t tenants, std::size_t nodes,
                std::size_t requests, std::size_t window_cap,
                double write_ratio, const ZipfSampler* skew,
                std::vector<std::vector<DeclareRec>>& logs,
                ClientTotals& totals) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + client);
  const std::size_t owned = tenants / clients +
                            (client < tenants % clients ? 1 : 0);
  std::vector<Inflight> window;
  window.reserve(window_cap);
  for (std::size_t i = 0; i < requests; ++i) {
    svc::Request req;
    req.priority = rng.bernoulli(0.5) ? svc::Priority::kInteractive
                                      : svc::Priority::kBatch;
    Inflight f;
    if (rng.bernoulli(write_ratio) && owned > 0) {
      // Declares go only to tenants this client owns, so each tenant's
      // write history has a single, ordered author. Writes stay uniform
      // even under skew: ownership, not popularity, decides who writes.
      req.tenant = static_cast<svc::TenantId>(
          client + clients * rng.next_below(owned));
      f.is_declare = true;
      f.node = static_cast<NodeId>(1 + rng.next_below(nodes - 1));
      f.cost = rng.uniform(0.5, 12.0);
      req.op = svc::DeclareOp{f.node, f.cost};
    } else {
      // Quotes are reads: any client may hit any tenant. Under --skew
      // the read traffic concentrates on the hot (low-id) tenants.
      req.tenant = static_cast<svc::TenantId>(
          skew != nullptr ? skew->sample(rng) : rng.next_below(tenants));
      const auto source = static_cast<NodeId>(1 + rng.next_below(nodes - 1));
      if (rng.bernoulli(0.25)) {
        auto target = static_cast<NodeId>(rng.next_below(nodes));
        if (target == source) target = 0;
        req.op = svc::QuoteOp{source, target};
      } else {
        req.op = svc::QuoteOp{source, graph::kInvalidNode};
      }
    }
    if (req.priority == svc::Priority::kInteractive) {
      ++totals.interactive;
    } else {
      ++totals.batch;
    }
    f.tenant = req.tenant;
    f.future = fleet.submit(std::move(req));
    window.push_back(std::move(f));
    if (window.size() >= window_cap) drain(window, logs);
  }
  drain(window, logs);
}

/// Replays one tenant's accepted declares into a fresh conservative
/// oracle and probes it against the live fleet. Returns divergences.
std::size_t verify_tenant(svc::Fleet& fleet, svc::TenantId tenant,
                          const graph::NodeGraph& g,
                          const std::vector<DeclareRec>& log) {
  svc::EngineConfig conservative;
  conservative.incremental_invalidation = false;
  conservative.cow_snapshots = false;
  conservative.warm_spt_cache = false;
  svc::QuoteEngine oracle(g, 0, nullptr, conservative);
  for (const DeclareRec& d : log) (void)oracle.declare_cost(d.node, d.cost);

  std::size_t divergences = 0;
  const auto n = static_cast<NodeId>(g.num_nodes());
  const NodeId probes[] = {1, static_cast<NodeId>(n / 2),
                           static_cast<NodeId>(n - 1)};
  for (const NodeId source : probes) {
    svc::Request req;
    req.tenant = tenant;
    req.op = svc::QuoteOp{source, graph::kInvalidNode};
    const svc::Response got = fleet.call(std::move(req));
    const auto want = oracle.quote(source);
    const bool same =
        got.ok() && got.epoch == oracle.epoch() &&
        got.quote.has_value() == want.has_value() &&
        (!want || (got.quote->path == want->path &&
                   got.quote->payments == want->payments));
    if (!same) ++divergences;
  }
  return divergences;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(
      "fleet_soak: multi-tenant service soak — mixed quote/declare replay "
      "through svc::Fleet with per-tenant oracle verification");
  flags.add_int("tenants", 1000, "tenant engines hosted by the fleet");
  flags.add_int("clients", 8, "client threads submitting requests");
  flags.add_int("requests", 1'000'000, "total requests across all clients");
  flags.add_int("shards", 8, "fleet worker shards");
  flags.add_int("nodes", 20, "nodes per tenant graph");
  flags.add_int("window", 512, "max in-flight requests per client");
  flags.add_double("write_ratio", 0.10, "fraction of requests that declare");
  flags.add_int("seed", 2004, "workload seed");
  flags.add_string("skew", "uniform",
                   "quote tenant distribution: uniform | zipf:<s>");
  flags.add_string("sched", "on",
                   "on = load-aware stealing/WFQ scheduler; "
                   "off = static tenant%shards baseline (the A/B control)");
  flags.add_bool("quick", false, "CI smoke: 64 tenants, 30k requests");
  flags.add_string("csv", "", "write the report as CSV to this path");
  flags.add_string("json", "", "write the report as JSON to this path");
  if (!flags.parse(argc, argv)) return 1;

  std::size_t tenants = static_cast<std::size_t>(flags.get_int("tenants"));
  std::size_t clients = static_cast<std::size_t>(flags.get_int("clients"));
  std::size_t requests = static_cast<std::size_t>(flags.get_int("requests"));
  std::size_t shards = static_cast<std::size_t>(flags.get_int("shards"));
  const std::size_t nodes = static_cast<std::size_t>(flags.get_int("nodes"));
  const std::size_t window = static_cast<std::size_t>(flags.get_int("window"));
  const double write_ratio = flags.get_double("write_ratio");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (flags.get_bool("quick")) {
    tenants = 64;
    clients = 4;
    requests = 30'000;
    shards = 4;
  }
  const std::string skew_spec = flags.get_string("skew");
  double zipf_s = 0.0;
  if (skew_spec.rfind("zipf:", 0) == 0) {
    zipf_s = std::atof(skew_spec.c_str() + 5);
  } else if (skew_spec != "uniform") {
    std::fprintf(stderr, "bad --skew '%s' (uniform | zipf:<s>)\n",
                 skew_spec.c_str());
    return 1;
  }
  const std::string sched_spec = flags.get_string("sched");
  if (sched_spec != "on" && sched_spec != "off") {
    std::fprintf(stderr, "bad --sched '%s' (on | off)\n", sched_spec.c_str());
    return 1;
  }
  const bool sched_on = sched_spec == "on";
  std::optional<ZipfSampler> zipf;
  if (zipf_s > 0.0) zipf.emplace(tenants, zipf_s);

  bench::banner(
      "Fleet soak: mixed quote/declare replay across tenants",
      "thousands of tenants behind one request API sustain interactive "
      "p99s while every price sheet stays oracle-exact");
  std::printf("tenants=%zu clients=%zu requests=%zu shards=%zu nodes=%zu "
              "write_ratio=%.2f skew=%s sched=%s\n\n",
              tenants, clients, requests, shards, nodes, write_ratio,
              skew_spec.c_str(), sched_spec.c_str());

  svc::Config config;
  config.fleet.shards = shards;
  if (!sched_on) {
    // The static baseline: tenant % shards placement, no steals,
    // classless round-robin (equal DRR weights).
    config.fleet.load_aware_placement = false;
    config.fleet.work_stealing = false;
    config.fleet.interactive_weight = 1;
    config.fleet.batch_weight = 1;
  }
  svc::Fleet fleet(config);
  std::vector<graph::NodeGraph> graphs;
  graphs.reserve(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    graphs.push_back(tenant_graph(seed + t, nodes));
    if (fleet.create_tenant(static_cast<svc::TenantId>(t), graphs.back(),
                            0) != svc::Status::kOk) {
      std::fprintf(stderr, "create_tenant %zu failed\n", t);
      return 1;
    }
  }

  // Per-client declare logs (merged after join: tenant ownership is
  // disjoint, so each tenant's log has exactly one writer).
  std::vector<std::vector<std::vector<DeclareRec>>> logs(
      clients, std::vector<std::vector<DeclareRec>>(tenants));
  std::vector<ClientTotals> totals(clients);
  const std::size_t per_client = requests / clients;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      run_client(fleet, seed, c, clients, tenants, nodes, per_client,
                 window, write_ratio, zipf ? &*zipf : nullptr, logs[c],
                 totals[c]);
    });
  }
  for (auto& t : threads) t.join();
  const double total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Snapshot before the verification probes so the reported numbers are
  // the soak's, not the probes'.
  const svc::FleetMetricsSnapshot m = fleet.metrics();

  std::size_t divergences = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    const auto& log = logs[t % clients][t];
    divergences += verify_tenant(fleet, static_cast<svc::TenantId>(t),
                                 graphs[t], log);
  }
  std::printf("oracle check: %zu divergence(s) across %zu tenants\n\n",
              divergences, tenants);

  ClientTotals sum;
  for (const ClientTotals& t : totals) {
    sum.interactive += t.interactive;
    sum.batch += t.batch;
  }
  bench::Report report({"class", "skew", "sched", "tenants", "clients",
                        "requests", "total_s", "ops_per_sec", "p50_us",
                        "p99_us", "p999_us", "attainment"});
  const auto row = [&](const char* cls, std::uint64_t reqs, double p50,
                       double p99, double p999, double att) {
    report.add_row({cls, skew_spec, sched_spec, std::to_string(tenants),
                    std::to_string(clients), std::to_string(reqs),
                    util::fmt(total_s, 3),
                    util::fmt(static_cast<double>(reqs) / total_s, 1),
                    util::fmt(p50, 1), util::fmt(p99, 1),
                    util::fmt(p999, 1), util::fmt(att, 4)});
  };
  row("interactive", sum.interactive, m.interactive_p50_us,
      m.interactive_p99_us, m.interactive_p999_us,
      m.attainment(svc::Priority::kInteractive));
  row("batch", sum.batch, m.batch_p50_us, m.batch_p99_us, m.batch_p999_us,
      m.attainment(svc::Priority::kBatch));
  report.print();
  report.write_csv(flags.get_string("csv"));
  report.write_json(flags.get_string("json"));
  std::printf("\nfleet counters:\n%s", m.to_string().c_str());

  if (divergences != 0) {
    std::fprintf(stderr,
                 "FAIL: fleet quotes diverged from per-tenant oracles\n");
    return 1;
  }
  return 0;
}
