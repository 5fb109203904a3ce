#include "svc/quote_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/fast_link_payment.hpp"
#include "core/fast_payment.hpp"
#include "core/link_vcg.hpp"
#include "core/neighbor_collusion.hpp"
#include "core/service.hpp"
#include "graph/generators.hpp"
#include "mech/invariants.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tc::svc {
namespace {

using graph::Cost;
using graph::NodeId;

void expect_same_quote(const core::PaymentResult& got,
                       const core::PaymentResult& want, double tol = 1e-9) {
  EXPECT_EQ(got.path, want.path);
  if (want.connected()) {
    EXPECT_NEAR(got.path_cost, want.path_cost, tol);
  } else {
    EXPECT_FALSE(got.connected());
  }
  ASSERT_EQ(got.payments.size(), want.payments.size());
  for (std::size_t k = 0; k < want.payments.size(); ++k) {
    if (graph::finite_cost(want.payments[k])) {
      EXPECT_NEAR(got.payments[k], want.payments[k], tol) << "payment " << k;
    } else {
      EXPECT_EQ(got.payments[k], want.payments[k]) << "payment " << k;
    }
  }
}

TEST(QuoteEngine, MatchesEveryNodePricer) {
  const auto g = graph::make_fig2_graph();
  const struct {
    std::shared_ptr<const Pricer> pricer;
    core::PaymentResult want;
  } cases[] = {
      {make_node_vcg_pricer(core::PaymentEngine::kNaive),
       core::vcg_payments_naive(g, 1, 0)},
      {make_node_vcg_pricer(core::PaymentEngine::kFast),
       core::vcg_payments_fast(g, 1, 0)},
      {make_neighbor_resistant_pricer(),
       core::neighbor_resistant_payments(g, 1, 0)},
  };
  for (const auto& c : cases) {
    QuoteEngine engine(g, 0, c.pricer);
    const auto quote = engine.quote(1);
    ASSERT_TRUE(quote.has_value()) << c.pricer->name();
    expect_same_quote(*quote, c.want);
    EXPECT_EQ(quote->profile_version, engine.epoch()) << c.pricer->name();
  }
}

TEST(QuoteEngine, MatchesEveryLinkPricer) {
  const auto g = graph::make_unit_disk_link({24, {1200.0, 1200.0}, 420.0, 2.0},
                                            /*seed=*/7);
  const struct {
    std::shared_ptr<const Pricer> pricer;
    core::PaymentResult want;
  } cases[] = {
      {make_link_vcg_pricer(LinkEngine::kNaive),
       core::link_vcg_payments(g, 5, 0)},
      {make_link_vcg_pricer(LinkEngine::kFast),
       core::fast_link_payments(g, 5, 0)},
  };
  for (const auto& c : cases) {
    QuoteEngine engine(g, 0, c.pricer);
    const auto quote = engine.quote(5);
    if (!c.want.connected()) {
      EXPECT_FALSE(quote.has_value());
      continue;
    }
    ASSERT_TRUE(quote.has_value()) << c.pricer->name();
    expect_same_quote(*quote, c.want);
  }
}

// All four engine entry points share the disconnected convention: empty
// path, infinite path cost, payments all-zero of size n (satellite 2).
TEST(QuoteEngine, DisconnectedConventionIdenticalAcrossEngines) {
  graph::NodeGraphBuilder b(4);
  b.add_edge(0, 1);  // nodes 2, 3 isolated from {0, 1}
  b.add_edge(2, 3);
  const auto g = b.build();
  const auto link = graph::to_link_graph(g);
  const core::PaymentResult results[] = {
      core::vcg_payments_naive(g, 2, 0), core::vcg_payments_fast(g, 2, 0),
      core::link_vcg_payments(link, 2, 0),
      core::fast_link_payments(link, 2, 0)};
  for (const auto& r : results) {
    EXPECT_TRUE(r.path.empty());
    EXPECT_EQ(r.path_cost, graph::kInfCost);
    EXPECT_EQ(r.payments, std::vector<Cost>(4, 0.0));
  }
  QuoteEngine engine(g, 0);
  EXPECT_FALSE(engine.quote(2).has_value());
  // Disconnection is cached too: second lookup is a hit, not a reprice.
  EXPECT_FALSE(engine.quote(2).has_value());
  EXPECT_EQ(engine.metrics().cache_hits, 1u);
}

// Monopoly relays are priced kInfCost by node and link engines alike.
TEST(QuoteEngine, MonopolyConventionIdenticalAcrossEngines) {
  const auto g = graph::make_path(3, 2.0);  // 0 - 1 - 2; node 1 is a cut
  const auto link = graph::to_link_graph(g);
  EXPECT_EQ(core::vcg_payments_naive(g, 2, 0).payments[1], graph::kInfCost);
  EXPECT_EQ(core::vcg_payments_fast(g, 2, 0).payments[1], graph::kInfCost);
  EXPECT_EQ(core::link_vcg_payments(link, 2, 0).payments[1], graph::kInfCost);
  EXPECT_EQ(core::fast_link_payments(link, 2, 0).payments[1], graph::kInfCost);
  QuoteEngine engine(g, 0);
  EXPECT_FALSE(engine.monopoly_free());
}

TEST(QuoteEngine, PairQuotesAreCachedAndEpochStamped) {
  const auto g = graph::make_grid(3, 3, 2.0);
  QuoteEngine engine(g, 0);
  const auto q1 = engine.quote(3, 8);
  ASSERT_TRUE(q1.has_value());
  EXPECT_EQ(q1->profile_version, 1u);
  const auto q2 = engine.quote(3, 8);
  ASSERT_TRUE(q2.has_value());
  expect_same_quote(*q2, *q1);
  const auto m = engine.metrics();
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.quotes_served, 2u);
}

TEST(QuoteEngine, DeclarationBumpsEpochAndRepricesAffectedQuotes) {
  const auto g = graph::make_fig2_graph();
  QuoteEngine engine(g, 0);
  const auto before = engine.quote(1);
  ASSERT_TRUE(before.has_value());
  ASSERT_GE(before->path.size(), 3u);
  const NodeId relay = before->path[1];
  const Cost bumped = engine.declared_cost(relay) + 5.0;
  const std::uint64_t epoch = engine.declare_cost(relay, bumped);
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(engine.epoch(), 2u);
  const auto after = engine.quote(1);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->profile_version, 2u);
  graph::NodeGraph expected_graph = g;
  expected_graph.set_node_cost(relay, bumped);
  expect_same_quote(*after, core::vcg_payments_fast(expected_graph, 1, 0));
  // A no-op re-declaration keeps the epoch (and the warm cache).
  EXPECT_EQ(engine.declare_cost(relay, bumped), 2u);
  EXPECT_EQ(engine.epoch(), 2u);
}

TEST(QuoteEngine, BulkDeclarationFullFlushes) {
  const auto g = graph::make_grid(3, 3, 2.0);
  QuoteEngine engine(g, 0);
  (void)engine.quote_all();
  std::vector<Cost> declared(g.num_nodes(), 3.0);
  engine.declare_costs(declared);
  const auto m = engine.metrics();
  EXPECT_EQ(m.full_flushes, 1u);
  EXPECT_EQ(m.declarations, 1u);
  const auto quote = engine.quote(8);
  ASSERT_TRUE(quote.has_value());
  graph::NodeGraph expected_graph = g;
  for (NodeId v = 0; v < g.num_nodes(); ++v) expected_graph.set_node_cost(v, 3.0);
  expect_same_quote(*quote, core::vcg_payments_fast(expected_graph, 8, 0));
}

TEST(QuoteEngine, QuoteAllMatchesLegacyService) {
  const auto g = graph::make_unit_disk_node({48, {1500.0, 1500.0}, 400.0, 2.0},
                                            1.0, 10.0, /*seed=*/11);
  QuoteEngine engine(g, 0);
  core::UnicastService service(g, 0);
  const auto fresh = engine.quote_all();
  const auto legacy = service.quote_all();
  ASSERT_EQ(fresh.size(), legacy.size());
  for (std::size_t v = 0; v < fresh.size(); ++v) {
    ASSERT_EQ(fresh[v].has_value(), legacy[v].has_value()) << "node " << v;
    if (fresh[v]) expect_same_quote(*fresh[v], *legacy[v]);
  }
}

TEST(QuoteEngine, QuoteBatchPricesArbitraryPairs) {
  const auto g = graph::make_grid(4, 4, 1.5);
  QuoteEngine engine(g, 0);
  std::vector<std::pair<NodeId, NodeId>> pairs = {{1, 14}, {5, 10}, {15, 2}};
  const auto quotes = engine.quote_batch(pairs);
  ASSERT_EQ(quotes.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(quotes[i].has_value());
    expect_same_quote(*quotes[i], core::vcg_payments_fast(g, pairs[i].first,
                                                          pairs[i].second));
  }
}

/// Exact equality: same path, and path cost and payments equal bit for bit
/// (the epoch stamp is not compared).
void expect_bit_identical(const std::optional<core::PaymentResult>& got,
                          const core::PaymentResult& want) {
  ASSERT_EQ(got.has_value(), want.connected());
  if (!got) return;
  EXPECT_EQ(got->path, want.path);
  EXPECT_EQ(std::memcmp(&got->path_cost, &want.path_cost, sizeof(Cost)), 0);
  ASSERT_EQ(got->payments.size(), want.payments.size());
  EXPECT_EQ(std::memcmp(got->payments.data(), want.payments.data(),
                        want.payments.size() * sizeof(Cost)),
            0);
}

// quote_all and quote_batch price their misses on the engine's pool: one
// solve per distinct target, then each worker solves and prices its own
// misses' source trees. The answers must not depend on the pool's width.
TEST(QuoteEngine, BatchAnswersDoNotDependOnPoolWidth) {
  const auto g = graph::make_unit_disk_node({96, {1600.0, 1600.0}, 330.0, 2.0},
                                            1.0, 10.0, /*seed=*/7);
  // Shared sources and targets, a pair whose source is another pair's
  // target (40 -> 90, 90 -> 5), both directions of one pair, and pairs
  // into the access point; every batch below misses more than once.
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {5, 40}, {17, 40}, {40, 90}, {5, 90}, {90, 5},
      {33, 61}, {61, 33}, {2, 0}, {71, 0}, {2, 40}};
  const std::vector<std::pair<NodeId, NodeId>> repeat = {
      {5, 40}, {64, 12}, {12, 64}, {40, 90}, {80, 5}};
  struct Answers {
    std::vector<std::optional<core::PaymentResult>> all, batch, mixed;
  };
  const auto run = [&](std::size_t workers) {
    util::ThreadPool pool(workers);
    QuoteEngine::Options options;
    options.pool = &pool;
    QuoteEngine engine(g, 0, nullptr, options);
    Answers out;
    out.all = engine.quote_all();
    out.batch = engine.quote_batch(pairs);
    out.mixed = engine.quote_batch(repeat);  // hits and misses
    return out;
  };
  const Answers narrow = run(1);
  const Answers wide = run(4);
  const auto check = [&](const std::vector<std::pair<NodeId, NodeId>>& asked,
                         const auto& a, const auto& b) {
    ASSERT_EQ(a.size(), asked.size());
    ASSERT_EQ(b.size(), asked.size());
    for (std::size_t i = 0; i < asked.size(); ++i) {
      SCOPED_TRACE(testing::Message() << asked[i].first << " -> "
                                      << asked[i].second);
      const core::PaymentResult want =
          core::vcg_payments_fast(g, asked[i].first, asked[i].second);
      expect_bit_identical(a[i], want);
      expect_bit_identical(b[i], want);
    }
  };
  std::vector<std::pair<NodeId, NodeId>> to_ap;
  for (NodeId v = 1; v < g.num_nodes(); ++v) to_ap.emplace_back(v, 0);
  ASSERT_FALSE(narrow.all[0].has_value());
  ASSERT_FALSE(wide.all[0].has_value());
  check(to_ap, std::vector(narrow.all.begin() + 1, narrow.all.end()),
        std::vector(wide.all.begin() + 1, wide.all.end()));
  check(pairs, narrow.batch, wide.batch);
  check(repeat, narrow.mixed, wide.mixed);
}

// Every answer quote(), quote_all() and quote_batch() return is served
// exactly once, as a hit or as a miss.
TEST(QuoteEngine, EveryAnswerIsCountedAsServed) {
  const auto g = graph::make_grid(5, 5, 1.5);
  QuoteEngine engine(g, 0);
  const auto expect_balanced = [&](std::uint64_t hits, std::uint64_t misses) {
    const MetricsSnapshot m = engine.metrics();
    EXPECT_EQ(m.cache_hits, hits);
    EXPECT_EQ(m.cache_misses, misses);
    EXPECT_EQ(m.quotes_served, m.cache_hits + m.cache_misses);
  };
  (void)engine.quote_all();  // cold: every source misses
  expect_balanced(0, 24);
  (void)engine.quote_all();  // warm: every source hits
  expect_balanced(24, 24);
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {3, 0}, {3, 21}, {21, 3}, {7, 18}};
  (void)engine.quote_batch(pairs);  // (3, 0) hits, three misses
  expect_balanced(25, 27);
  (void)engine.quote_batch(pairs);  // all hits
  expect_balanced(29, 27);
}

// The ISSUE's core incremental-invalidation acceptance test: across many
// random UDGs and many single-node re-declarations, quotes served by the
// incrementally-invalidated cache must be indistinguishable from a fresh
// recompute (the always-recompute oracle). Continuous random costs make
// least-cost paths almost surely unique, so paths compare exactly.
TEST(QuoteEngine, IncrementalInvalidationMatchesOracleOnRandomUdgs) {
  constexpr int kGraphs = 200;
  constexpr int kRoundsPerGraph = 5;
  std::uint64_t total_retained = 0;
  std::uint64_t total_evicted = 0;
  for (int trial = 0; trial < kGraphs; ++trial) {
    const auto seed = static_cast<std::uint64_t>(trial);
    const auto g = graph::make_unit_disk_node(
        {32, {1200.0, 1200.0}, 420.0, 2.0}, 0.5, 10.0, seed);
    QuoteEngine engine(g, 0);
    util::Rng rng(0xfeedULL + seed);
    for (int round = 0; round <= kRoundsPerGraph; ++round) {
      if (round > 0) {
        const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        // Mix raises and lowers around the original cost band.
        engine.declare_cost(v, rng.uniform(0.2, 14.0));
      }
      const auto snap = engine.snapshot();
      const auto quotes = engine.quote_all();
      for (NodeId v = 1; v < g.num_nodes(); ++v) {
        const auto oracle = core::vcg_payments_fast(snap->node(), v, 0);
        ASSERT_EQ(quotes[v].has_value(), oracle.connected())
            << "trial " << trial << " round " << round << " node " << v;
        if (!quotes[v]) continue;
        ASSERT_EQ(quotes[v]->path, oracle.path)
            << "trial " << trial << " round " << round << " node " << v;
        ASSERT_EQ(quotes[v]->payments.size(), oracle.payments.size());
        for (std::size_t k = 0; k < oracle.payments.size(); ++k) {
          if (graph::finite_cost(oracle.payments[k])) {
            ASSERT_NEAR(quotes[v]->payments[k], oracle.payments[k], 1e-9)
                << "trial " << trial << " round " << round << " node " << v
                << " payment " << k;
          } else {
            ASSERT_EQ(quotes[v]->payments[k], oracle.payments[k]);
          }
        }
      }
    }
    const auto m = engine.metrics();
    total_retained += m.quotes_retained;
    total_evicted += m.quotes_evicted;
  }
  // The invalidation must actually be incremental: a meaningful share of
  // cached quotes survives re-declarations (otherwise this test would
  // pass trivially with a full flush per declaration).
  EXPECT_GT(total_retained, 0u);
  EXPECT_GT(total_evicted, 0u);
}

// Link-model variant: per-arc re-declarations against the naive link VCG
// oracle (arc updates make costs asymmetric, which the naive engine and
// the certificate both handle).
TEST(QuoteEngine, IncrementalInvalidationMatchesOracleOnLinkUdgs) {
  constexpr int kGraphs = 40;
  constexpr int kRoundsPerGraph = 4;
  std::uint64_t total_retained = 0;
  for (int trial = 0; trial < kGraphs; ++trial) {
    const auto seed = 1000 + static_cast<std::uint64_t>(trial);
    const auto g = graph::make_unit_disk_link(
        {20, {1000.0, 1000.0}, 420.0, 2.0}, seed);
    QuoteEngine engine(g, 0);
    util::Rng rng(0x11780ULL ^ seed);
    for (int round = 0; round <= kRoundsPerGraph; ++round) {
      if (round > 0) {
        // Pick a random existing arc and re-declare its cost.
        NodeId u = 0;
        for (int guard = 0; guard < 64; ++guard) {
          u = static_cast<NodeId>(rng.next_below(g.num_nodes()));
          if (!g.out_arcs(u).empty()) break;
        }
        if (g.out_arcs(u).empty()) continue;
        const auto arcs = g.out_arcs(u);
        const NodeId w = arcs[rng.next_below(arcs.size())].to;
        engine.declare_arc_cost(u, w, rng.uniform(0.05, 4.0));
      }
      const auto snap = engine.snapshot();
      for (NodeId v = 1; v < g.num_nodes(); ++v) {
        const auto quote = engine.quote(v);
        const auto oracle = core::link_vcg_payments(snap->link(), v, 0);
        ASSERT_EQ(quote.has_value(), oracle.connected());
        if (!quote) continue;
        ASSERT_EQ(quote->path, oracle.path)
            << "trial " << trial << " round " << round << " node " << v;
        for (std::size_t k = 0; k < oracle.payments.size(); ++k) {
          if (graph::finite_cost(oracle.payments[k])) {
            ASSERT_NEAR(quote->payments[k], oracle.payments[k], 1e-9);
          } else {
            ASSERT_EQ(quote->payments[k], oracle.payments[k]);
          }
        }
      }
    }
    total_retained += engine.metrics().quotes_retained;
  }
  EXPECT_GT(total_retained, 0u);
}

// The ISSUE's concurrency acceptance test: N reader threads quote while a
// writer re-declares. Every returned quote must be internally consistent
// with one single epoch: recomputing under the cost vector recorded for
// its profile_version reproduces it exactly, and it passes the mechanism
// audit on that epoch's graph.
TEST(QuoteEngine, ConcurrentReadersSeeEpochConsistentQuotes) {
  const auto base = graph::make_unit_disk_node(
      {24, {1000.0, 1000.0}, 420.0, 2.0}, 1.0, 10.0, /*seed=*/42);
  QuoteEngine engine(base, 0);

  // The writer records the full declared-cost vector in force at every
  // epoch it publishes.
  std::map<std::uint64_t, std::vector<Cost>> costs_at_epoch;
  std::vector<Cost> current(base.num_nodes());
  for (NodeId v = 0; v < base.num_nodes(); ++v) current[v] = base.node_cost(v);
  costs_at_epoch[engine.epoch()] = current;

  constexpr int kReaders = 4;
  constexpr int kQuotesPerReader = 120;
  constexpr int kDeclarations = 60;
  using Collected = std::tuple<NodeId, NodeId, core::PaymentResult>;
  std::vector<std::vector<Collected>> collected(kReaders);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(0xabcdULL + static_cast<std::uint64_t>(r));
      for (int i = 0; i < kQuotesPerReader; ++i) {
        const auto source =
            static_cast<NodeId>(1 + rng.next_below(base.num_nodes() - 1));
        if (rng.next_below(2) == 0) {
          if (auto q = engine.quote(source)) {
            collected[r].emplace_back(source, 0, std::move(*q));
          }
        } else {
          auto target =
              static_cast<NodeId>(rng.next_below(base.num_nodes()));
          if (target == source) target = (target + 1) % base.num_nodes();
          if (auto q = engine.quote(source, target)) {
            collected[r].emplace_back(source, target, std::move(*q));
          }
        }
      }
    });
  }
  {
    util::Rng rng(0x9999ULL);
    for (int i = 0; i < kDeclarations; ++i) {
      const auto v = static_cast<NodeId>(rng.next_below(base.num_nodes()));
      const Cost c = rng.uniform(0.3, 12.0);
      const std::uint64_t epoch = engine.declare_cost(v, c);
      current[v] = c;
      costs_at_epoch[epoch] = current;
    }
  }
  for (auto& t : readers) t.join();

  std::size_t audited = 0;
  for (const auto& per_reader : collected) {
    for (const auto& [source, target, quote] : per_reader) {
      const auto it = costs_at_epoch.find(quote.profile_version);
      ASSERT_NE(it, costs_at_epoch.end())
          << "quote stamped with unknown epoch " << quote.profile_version;
      graph::NodeGraph g = base;
      for (NodeId v = 0; v < base.num_nodes(); ++v) {
        g.set_node_cost(v, it->second[v]);
      }
      const auto expected = core::vcg_payments_fast(g, source, target);
      ASSERT_EQ(quote.path, expected.path);
      for (std::size_t k = 0; k < expected.payments.size(); ++k) {
        if (graph::finite_cost(expected.payments[k])) {
          ASSERT_NEAR(quote.payments[k], expected.payments[k], 1e-9);
        } else {
          ASSERT_EQ(quote.payments[k], expected.payments[k]);
        }
      }
      mech::UnicastOutcome outcome;
      outcome.path = quote.path;
      outcome.path_cost = quote.path_cost;
      outcome.payments = quote.payments;
      const auto report = mech::audit_unicast_payment(g, source, target, outcome);
      ASSERT_TRUE(report.ok()) << report.to_string();
      ++audited;
    }
  }
  EXPECT_GT(audited, 0u);
}

// The ISSUE's warm-path acceptance test: under randomized mixed
// quote/declare churn, the full stack (COW snapshots + warm repaired
// SPTs + incremental invalidation) must be payment-equivalent to an
// always-recompute oracle, and every served quote must pass the
// mechanism audit. The metrics assert the warm path actually ran — the
// test would otherwise pass vacuously via cold fallbacks.
TEST(QuoteEngine, WarmChurnMatchesAlwaysRecomputeOracleAndAudits) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto g = graph::make_unit_disk_node(
        {28, {1100.0, 1100.0}, 420.0, 2.0}, 0.5, 9.0, seed);
    QuoteEngine engine(g, 0);
    util::Rng rng(0xabadcafeULL + seed);
    std::size_t audited = 0;
    for (int op = 0; op < 160; ++op) {
      if (rng.bernoulli(0.3)) {
        const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
        engine.declare_cost(v, rng.uniform(0.2, 12.0));
        continue;
      }
      const auto source =
          static_cast<NodeId>(1 + rng.next_below(g.num_nodes() - 1));
      auto target = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      if (target == source) target = (target + 1) % g.num_nodes();
      const auto snap = engine.snapshot();
      const auto quote = engine.quote(source, target);
      const auto oracle = core::vcg_payments_fast(snap->node(), source, target);
      ASSERT_EQ(quote.has_value(), oracle.connected());
      if (!quote) continue;
      ASSERT_EQ(quote->path, oracle.path)
          << "seed " << seed << " op " << op;
      for (std::size_t k = 0; k < oracle.payments.size(); ++k) {
        if (graph::finite_cost(oracle.payments[k])) {
          ASSERT_NEAR(quote->payments[k], oracle.payments[k], 1e-9)
              << "seed " << seed << " op " << op << " payment " << k;
        } else {
          ASSERT_EQ(quote->payments[k], oracle.payments[k]);
        }
      }
      mech::UnicastOutcome outcome;
      outcome.path = quote->path;
      outcome.path_cost = quote->path_cost;
      outcome.payments = quote->payments;
      const auto report =
          mech::audit_unicast_payment(snap->node(), source, target, outcome);
      ASSERT_TRUE(report.ok()) << report.to_string();
      ++audited;
    }
    EXPECT_GT(audited, 0u);
    const auto m = engine.metrics();
    EXPECT_GT(m.warm_priced, 0u) << "seed " << seed;
    EXPECT_GT(m.warm_repairs, 0u) << "seed " << seed;
    EXPECT_GT(m.warm_solves, 0u) << "seed " << seed;
  }
}

// Every Options combination (COW x warm x incremental) serves identical
// quotes under the same declaration stream.
TEST(QuoteEngine, AllOptionCombinationsAgreeUnderChurn) {
  const auto g = graph::make_unit_disk_node({24, {1000.0, 1000.0}, 420.0, 2.0},
                                            0.5, 9.0, /*seed=*/17);
  std::vector<std::unique_ptr<QuoteEngine>> engines;
  for (const bool cow : {false, true}) {
    for (const bool warm : {false, true}) {
      for (const bool incr : {false, true}) {
        EngineConfig o;
        o.cow_snapshots = cow;
        o.warm_spt_cache = warm;
        o.incremental_invalidation = incr;
        engines.push_back(std::make_unique<QuoteEngine>(g, 0, nullptr, o));
      }
    }
  }
  util::Rng rng(0x7777ULL);
  for (int round = 0; round < 10; ++round) {
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const Cost c = rng.uniform(0.2, 12.0);
    for (auto& e : engines) e->declare_cost(v, c);
    const auto want = engines.front()->quote_all();
    for (std::size_t i = 1; i < engines.size(); ++i) {
      const auto got = engines[i]->quote_all();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t s = 0; s < want.size(); ++s) {
        ASSERT_EQ(got[s].has_value(), want[s].has_value())
            << "engine " << i << " round " << round << " source " << s;
        if (want[s]) expect_same_quote(*got[s], *want[s]);
      }
    }
  }
}

// Satellite 3a: an arc-cost *decrease* that creates a new, cheaper
// replacement path must evict the cached quote (its thru crosses below
// vmax) and the reprice must reflect the cheaper avoid cost.
TEST(QuoteEngine, ArcDecreaseCreatingCheaperReplacementPathReprices) {
  graph::LinkGraphBuilder b(4);
  b.add_link(2, 1, 1.0, 1.0);  // LCP 2 -> 1 -> 0, cost 2.0
  b.add_link(1, 0, 1.0, 1.0);
  b.add_link(2, 3, 2.0, 2.0);  // replacement 2 -> 3 -> 0, cost 4.0
  b.add_link(3, 0, 2.0, 2.0);
  QuoteEngine engine(b.build(), 0);
  const auto before = engine.quote(2);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->path, (std::vector<NodeId>{2, 1, 0}));
  const Cost p_before = before->payments[1];
  ASSERT_TRUE(graph::finite_cost(p_before));

  engine.declare_arc_cost(3, 0, 0.5);  // replacement now 2.5
  EXPECT_GE(engine.metrics().quotes_evicted, 1u);
  const auto snap = engine.snapshot();
  const auto after = engine.quote(2);
  ASSERT_TRUE(after.has_value());
  expect_same_quote(*after, core::link_vcg_payments(snap->link(), 2, 0));
  EXPECT_LT(after->payments[1], p_before);
}

// Satellite 3b: repeated retained decreases on a far-away arc accumulate
// decrease slack until the (conservative, still-correct) eviction fires,
// even though each individual decrease left a huge thru margin.
TEST(QuoteEngine, DecreaseSlackAccumulatesAcrossRetainedDecreases) {
  graph::LinkGraphBuilder b(5);
  b.add_link(0, 1, 1.0, 1.0);  // ring 0-1-2-3-0 carries the quote
  b.add_link(1, 2, 1.1, 1.1);
  b.add_link(2, 3, 1.2, 1.2);
  b.add_link(3, 0, 1.3, 1.3);
  // Every path using arc 1->4 passes through relay 1 itself, so the
  // detour can never serve as a relay-1-avoiding path: decreasing c(1,4)
  // provably never changes the quote. The cheap 4-3 tail keeps thru(1->4)
  // close enough to vmax that accumulated slack crosses the margin while
  // the declared cost is still non-negative.
  b.add_link(1, 4, 20.0, 20.0);
  b.add_link(4, 3, 0.5, 0.5);
  QuoteEngine engine(b.build(), 0);
  ASSERT_TRUE(engine.quote(2).has_value());

  std::uint64_t retained_before_evict = 0;
  bool evicted = false;
  Cost c = 20.0;
  for (int step = 0; step < 12 && !evicted; ++step) {
    c -= 2.0;
    engine.declare_arc_cost(1, 4, c);
    const auto m = engine.metrics();
    if (m.quotes_evicted > 0) {
      evicted = true;
    } else {
      retained_before_evict = m.quotes_retained;
    }
  }
  // Without slack accounting the margin would still be >10x vmax at the
  // last step; only the accumulated slack can force the eviction.
  EXPECT_TRUE(evicted);
  EXPECT_GT(retained_before_evict, 0u);
  const auto snap = engine.snapshot();
  const auto quote = engine.quote(2);
  ASSERT_TRUE(quote.has_value());
  expect_same_quote(*quote, core::link_vcg_payments(snap->link(), 2, 0));
}

// Satellite 3c: a no-op arc re-declaration keeps the epoch, the cache,
// and the declaration counter untouched.
TEST(QuoteEngine, NoOpArcRedeclarationKeepsEpoch) {
  const auto g = graph::make_unit_disk_link({16, {900.0, 900.0}, 420.0, 2.0},
                                            /*seed=*/9);
  QuoteEngine engine(g, 0);
  ASSERT_TRUE(engine.quote(3).has_value());
  NodeId u = 0;
  while (g.out_arcs(u).empty()) ++u;
  const NodeId w = g.out_arcs(u)[0].to;
  const Cost c = engine.snapshot()->arc_cost(u, w);
  EXPECT_EQ(engine.declare_arc_cost(u, w, c), 1u);
  EXPECT_EQ(engine.epoch(), 1u);
  const auto m = engine.metrics();
  EXPECT_EQ(m.declarations, 0u);
  EXPECT_EQ(m.quotes_evicted, 0u);
  // The cached quote is still served as a hit under the same epoch.
  ASSERT_TRUE(engine.quote(3).has_value());
  EXPECT_EQ(engine.metrics().cache_hits, 1u);
}

// An engine built on a NaN topology cost would price it: on the diamond
// 3-{1,2}-0 with c_2 = NaN, relay 2 counts as absent and relay 1 is paid
// +inf. Both constructors refuse NaN as declare_cost does; +inf passes.
TEST(QuoteEngine, ConstructorsRejectNaNTopologyCosts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  graph::NodeGraphBuilder nb(4);
  nb.add_edge(3, 1).add_edge(3, 2).add_edge(1, 0).add_edge(2, 0);
  nb.set_costs({0.0, 1.0, 5.0, 0.0});
  graph::NodeGraph node = nb.build();
  node.set_node_cost(2, graph::kInfCost);
  EXPECT_EQ(QuoteEngine(node, 0).num_nodes(), 4u);
  node.set_node_cost(2, std::nan(""));
  EXPECT_DEATH(QuoteEngine(node, 0), "node cost must be non-negative");

  graph::LinkGraphBuilder lb(4);
  lb.add_link(3, 1, 1.0, 1.0).add_link(3, 2, 5.0, 5.0);
  lb.add_link(1, 0, 1.0, 1.0).add_link(2, 0, 5.0, 5.0);
  graph::LinkGraph link = lb.build();
  link.set_arc_cost(2, 0, graph::kInfCost);
  EXPECT_EQ(QuoteEngine(link, 0).num_nodes(), 4u);
  link.set_arc_cost(2, 0, std::nan(""));
  EXPECT_DEATH(QuoteEngine(link, 0), "arc cost must be non-negative");
}

// Conservative mode (incremental_invalidation = false) must agree with
// incremental mode quote-for-quote.
TEST(QuoteEngine, ConservativeAndIncrementalModesAgree) {
  const auto g = graph::make_unit_disk_node({28, {1100.0, 1100.0}, 420.0, 2.0},
                                            0.5, 9.0, /*seed=*/3);
  EngineConfig conservative;
  conservative.incremental_invalidation = false;
  QuoteEngine a(g, 0, nullptr, conservative);
  QuoteEngine b(g, 0);
  util::Rng rng(0x51deULL);
  for (int round = 0; round < 8; ++round) {
    const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const Cost c = rng.uniform(0.2, 12.0);
    a.declare_cost(v, c);
    b.declare_cost(v, c);
    const auto qa = a.quote_all();
    const auto qb = b.quote_all();
    ASSERT_EQ(qa.size(), qb.size());
    for (std::size_t s = 0; s < qa.size(); ++s) {
      ASSERT_EQ(qa[s].has_value(), qb[s].has_value());
      if (qa[s]) expect_same_quote(*qb[s], *qa[s]);
    }
  }
  EXPECT_GE(a.metrics().full_flushes, 8u);
  EXPECT_EQ(b.metrics().full_flushes, 0u);
}

}  // namespace
}  // namespace tc::svc
