// Fleet semantics: tenant isolation, typed load shedding, deadline
// expiry, admission fairness, and ledger epoch fencing across tenants.
//
// The shedding tests pin their timing by construction instead of by
// sleeping: a fleet with one shard is given a large QuoteBatchOp first,
// which parks the worker inside the engine, and the assertions run
// against requests queued (or shed) behind it.
#include "svc/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "distsim/ledger.hpp"
#include "graph/generators.hpp"
#include "mech/invariants.hpp"
#include "util/rng.hpp"

namespace tc::svc {
namespace {

using graph::Cost;
using graph::NodeId;

/// A tenant graph family: same shape, different seeds per tenant.
graph::NodeGraph tenant_graph(std::uint64_t seed, std::size_t n = 24) {
  return graph::make_erdos_renyi(n, 0.3, 0.5, 9.0, seed);
}

Request quote_req(TenantId tenant, NodeId source, NodeId target,
                  Priority priority = Priority::kInteractive,
                  std::uint64_t deadline_us = 0) {
  Request req;
  req.tenant = tenant;
  req.priority = priority;
  req.deadline_us = deadline_us;
  req.op = QuoteOp{source, target};
  return req;
}

Request declare_req(TenantId tenant, NodeId node, Cost cost) {
  Request req;
  req.tenant = tenant;
  req.op = DeclareOp{node, cost};
  return req;
}

/// All ordered pairs of a graph — a deliberately slow batch that parks a
/// shard worker inside the tenant engine for a while.
QuoteBatchOp all_pairs(const graph::NodeGraph& g) {
  QuoteBatchOp batch;
  const auto n = static_cast<NodeId>(g.num_nodes());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) batch.pairs.emplace_back(u, v);
    }
  }
  return batch;
}

TEST(Fleet, QuoteMatchesStandaloneEngine) {
  const auto g = tenant_graph(11);
  Fleet fleet;
  ASSERT_EQ(fleet.create_tenant(7, g, 0), Status::kOk);
  QuoteEngine oracle(g, 0);

  const Response to_ap = fleet.call(quote_req(7, 5, graph::kInvalidNode));
  ASSERT_EQ(to_ap.status, Status::kOk);
  const auto want_ap = oracle.quote(5);
  ASSERT_EQ(to_ap.quote.has_value(), want_ap.has_value());
  if (want_ap) {
    EXPECT_EQ(to_ap.quote->path, want_ap->path);
    EXPECT_EQ(to_ap.quote->payments, want_ap->payments);
  }

  const Response pair = fleet.call(quote_req(7, 3, 9));
  ASSERT_EQ(pair.status, Status::kOk);
  const auto want_pair = oracle.quote(3, 9);
  ASSERT_EQ(pair.quote.has_value(), want_pair.has_value());
  if (want_pair) {
    EXPECT_EQ(pair.quote->payments, want_pair->payments);
  }

  // Declarations advance the tenant epoch exactly like the bare engine.
  const Response decl = fleet.call(declare_req(7, 4, 2.25));
  ASSERT_EQ(decl.status, Status::kOk);
  EXPECT_EQ(decl.epoch, oracle.declare_cost(4, 2.25));
}

TEST(Fleet, DeclareStormDoesNotPerturbOtherTenants) {
  const auto quiet_graph = tenant_graph(21);
  Config config;
  config.fleet.shards = 2;  // noisy and quiet tenants share a fleet
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, tenant_graph(20), 0), Status::kOk);
  ASSERT_EQ(fleet.create_tenant(1, quiet_graph, 0), Status::kOk);

  // Baseline quote for the quiet tenant, before the storm.
  const Response before = fleet.call(quote_req(1, 6, graph::kInvalidNode));
  ASSERT_EQ(before.status, Status::kOk);
  ASSERT_TRUE(before.quote.has_value());
  const std::uint64_t quiet_epoch = before.epoch;

  // Storm: hammer tenant 0 with re-declarations.
  util::Rng rng(0xf1ee7ULL);
  std::vector<std::future<Response>> storm;
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<NodeId>(1 + rng.next_below(19));
    storm.push_back(
        fleet.submit(declare_req(0, v, rng.uniform(0.2, 12.0))));
  }
  for (auto& f : storm) EXPECT_EQ(f.get().status, Status::kOk);

  // The quiet tenant's epoch did not move and its quote is unchanged —
  // and still audits clean against the declared profile.
  const Response after = fleet.call(quote_req(1, 6, graph::kInvalidNode));
  ASSERT_EQ(after.status, Status::kOk);
  EXPECT_EQ(after.epoch, quiet_epoch);
  ASSERT_TRUE(after.quote.has_value());
  EXPECT_EQ(after.quote->path, before.quote->path);
  EXPECT_EQ(after.quote->payments, before.quote->payments);

  mech::UnicastOutcome outcome;
  outcome.path = after.quote->path;
  outcome.path_cost = after.quote->path_cost;
  outcome.payments = after.quote->payments;
  const auto report = mech::audit_unicast_payment(quiet_graph, 6, 0, outcome);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Fleet, ExpiredQuoteGetsTypedRejectionNeverAStaleQuote) {
  const auto g = tenant_graph(31, 40);
  Config config;
  config.fleet.shards = 1;
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, g, 0), Status::kOk);

  // Park the worker in a large batch, then queue a 1us-deadline quote
  // behind it: by the time the worker dequeues it, it is long dead.
  Request slow;
  slow.tenant = 0;
  slow.op = all_pairs(g);
  auto slow_future = fleet.submit(std::move(slow));
  auto dead = fleet.submit(quote_req(0, 3, 9, Priority::kInteractive,
                                     /*deadline_us=*/1));

  const Response r = dead.get();
  EXPECT_EQ(r.status, Status::kExpiredDeadline);
  EXPECT_FALSE(r.quote.has_value());  // typed rejection, no stale data
  EXPECT_EQ(slow_future.get().status, Status::kOk);

  const auto m = fleet.metrics();
  EXPECT_GE(m.expired, 1u);
}

TEST(Fleet, QueueFullShedsImmediately) {
  const auto g = tenant_graph(41, 40);
  Config config;
  config.fleet.shards = 1;
  config.fleet.queue_capacity = 4;
  config.fleet.shed_watermark = 4;  // watermark out of the way
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, g, 0), Status::kOk);

  Request slow;
  slow.tenant = 0;
  slow.op = all_pairs(g);
  auto slow_future = fleet.submit(std::move(slow));
  // The worker may briefly still hold the batch un-popped; queue until
  // the mailbox has actually absorbed `capacity` entries, then overflow.
  std::vector<std::future<Response>> queued;
  std::vector<std::future<Response>> shed;
  while (shed.empty()) {
    auto f = fleet.submit(
        quote_req(0, 3, 9, Priority::kInteractive, /*deadline_us=*/1));
    const bool ready = f.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready;
    (ready ? shed : queued).push_back(std::move(f));
    ASSERT_LT(queued.size(), 64u) << "queue never filled";
  }
  EXPECT_EQ(shed.front().get().status, Status::kShedQueueFull);
  for (auto& f : queued) {
    const Status s = f.get().status;
    EXPECT_TRUE(s == Status::kOk || s == Status::kExpiredDeadline);
  }
  EXPECT_EQ(slow_future.get().status, Status::kOk);
  EXPECT_GE(fleet.metrics().shed_queue_full, 1u);
}

TEST(Fleet, WatermarkShedsBatchTrafficOnly) {
  const auto g = tenant_graph(51, 40);
  Config config;
  config.fleet.shards = 1;
  config.fleet.queue_capacity = 64;
  config.fleet.shed_watermark = 1;
  // The admitted quotes deliberately wait behind a slow batch op; keep
  // them alive through sanitizer-grade slowdowns.
  config.fleet.default_deadline_us = 60'000'000;
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, g, 0), Status::kOk);

  Request slow;
  slow.tenant = 0;
  slow.op = all_pairs(g);
  auto slow_future = fleet.submit(std::move(slow));
  // Fill past the watermark with interactive traffic (exempt from it).
  std::vector<std::future<Response>> interactive;
  while (true) {
    auto probe = fleet.submit(quote_req(0, 3, 9, Priority::kBatch));
    if (probe.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      // Watermark reached: the batch probe was shed synchronously while
      // interactive submissions kept being admitted.
      EXPECT_EQ(probe.get().status, Status::kShedWatermark);
      break;
    }
    interactive.push_back(std::move(probe));  // depth was still < mark
    interactive.push_back(
        fleet.submit(quote_req(0, 5, 11, Priority::kInteractive)));
    ASSERT_LT(interactive.size(), 64u) << "watermark never engaged";
  }
  auto admitted =
      fleet.submit(quote_req(0, 7, 13, Priority::kInteractive));
  EXPECT_NE(admitted.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  for (auto& f : interactive) EXPECT_EQ(f.get().status, Status::kOk);
  EXPECT_EQ(admitted.get().status, Status::kOk);
  EXPECT_EQ(slow_future.get().status, Status::kOk);
  EXPECT_GE(fleet.metrics().shed_watermark, 1u);
}

TEST(Fleet, TokenBucketThrottlesPerTenant) {
  Config config;
  config.fleet.tenant_rate_per_sec = 0.001;  // refill is negligible
  config.fleet.tenant_burst = 2.0;
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, tenant_graph(61), 0), Status::kOk);
  ASSERT_EQ(fleet.create_tenant(1, tenant_graph(62), 0), Status::kOk);

  EXPECT_EQ(fleet.call(quote_req(0, 3, 9)).status, Status::kOk);
  EXPECT_EQ(fleet.call(quote_req(0, 4, 9)).status, Status::kOk);
  EXPECT_EQ(fleet.call(quote_req(0, 5, 9)).status, Status::kThrottled);
  // Fairness: tenant 0 exhausting its bucket does not tax tenant 1.
  EXPECT_EQ(fleet.call(quote_req(1, 3, 9)).status, Status::kOk);
  // Declares are never throttled: writes must not be silently dropped.
  EXPECT_EQ(fleet.call(declare_req(0, 4, 3.0)).status, Status::kOk);
  EXPECT_GE(fleet.metrics().throttled, 1u);
}

TEST(Fleet, TypedRejectionsForBadRequests) {
  const auto g = tenant_graph(71);
  Fleet fleet;
  EXPECT_EQ(fleet.call(quote_req(9, 1, 2)).status, Status::kUnknownTenant);
  ASSERT_EQ(fleet.create_tenant(9, g, 0), Status::kOk);
  EXPECT_EQ(fleet.create_tenant(9, g, 0), Status::kTenantExists);
  // Out-of-range endpoints, source==target, AP as source.
  EXPECT_EQ(fleet.call(quote_req(9, 99, 2)).status, Status::kInvalidRequest);
  EXPECT_EQ(fleet.call(quote_req(9, 2, 2)).status, Status::kInvalidRequest);
  EXPECT_EQ(fleet.call(quote_req(9, 0, graph::kInvalidNode)).status,
            Status::kInvalidRequest);
  // Bad declarations: out of range, negative, non-finite.
  EXPECT_EQ(fleet.call(declare_req(9, 99, 1.0)).status,
            Status::kInvalidRequest);
  EXPECT_EQ(fleet.call(declare_req(9, 3, -1.0)).status,
            Status::kInvalidRequest);
  EXPECT_EQ(fleet.call(declare_req(9, 3, graph::kInfCost)).status,
            Status::kInvalidRequest);
  // Marking the access point down is refused, not crashed.
  Request down;
  down.tenant = 9;
  down.op = MarkNodeDownOp{0};
  EXPECT_EQ(fleet.call(std::move(down)).status, Status::kInvalidRequest);
  EXPECT_EQ(fleet.drop_tenant(9), Status::kOk);
  EXPECT_EQ(fleet.drop_tenant(9), Status::kUnknownTenant);
}

// A diamond 3-{1,2}-0 whose relay 2 has a NaN cost must be refused at
// CreateTenantOp: priced, the NaN relay counts as absent, so the honest
// relay 1 looks like a monopoly and quote(3) pays it +inf. Negative costs
// are refused too; +inf stays legal, as it marks a node down.
TEST(Fleet, CreateTenantRejectsNaNAndNegativeTopologyCosts) {
  graph::NodeGraphBuilder b(4);
  b.add_edge(3, 1).add_edge(3, 2).add_edge(1, 0).add_edge(2, 0);
  b.set_costs({0.0, 1.0, 5.0, 0.0});
  const graph::NodeGraph diamond = b.build();
  Fleet fleet;

  ASSERT_EQ(fleet.create_tenant(1, diamond, 0), Status::kOk);
  const Response honest = fleet.call(quote_req(1, 3, graph::kInvalidNode));
  ASSERT_EQ(honest.status, Status::kOk);
  ASSERT_TRUE(honest.quote.has_value());
  EXPECT_EQ(honest.quote->payments[1], 5.0);  // c_2 is relay 1's price

  auto with_cost = [&](Cost c2) {
    graph::NodeGraph g = diamond;
    g.set_node_cost(2, c2);
    return g;
  };
  EXPECT_EQ(fleet.create_tenant(2, with_cost(std::nan("")), 0),
            Status::kInvalidRequest);
  EXPECT_EQ(fleet.create_tenant(3, with_cost(-1.0), 0),
            Status::kInvalidRequest);
  EXPECT_EQ(fleet.call(quote_req(2, 3, graph::kInvalidNode)).status,
            Status::kUnknownTenant);
  EXPECT_EQ(fleet.create_tenant(4, with_cost(graph::kInfCost), 0),
            Status::kOk);
}

// Eight blocking clients never hold more than eight requests in flight,
// far below capacity, so nothing may be shed. This pins the order in
// admit_and_stage: a request counted in Shard::queued only after its
// staging push can be detached and subtracted by the worker first, which
// wraps the unsigned count to ~2^64 and sheds every submit to the shard.
TEST(Fleet, BlockingClientsAreNeverShedBelowCapacity) {
  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 2000;
  constexpr TenantId kTenants = 4;
  Config config;
  config.fleet.shards = 2;
  config.fleet.queue_capacity = 4096;
  config.fleet.default_deadline_us = 60'000'000;
  Fleet fleet(config);
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_EQ(fleet.create_tenant(t, tenant_graph(900 + t, 12), 0),
              Status::kOk);
  }
  std::atomic<int> shed{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(0x5ed0ULL + static_cast<std::uint64_t>(c));
      for (int i = 0; i < kCallsPerClient; ++i) {
        const auto tenant = static_cast<TenantId>(rng.next_below(kTenants));
        const auto source = static_cast<NodeId>(1 + rng.next_below(11));
        const Status s =
            fleet.call(quote_req(tenant, source, graph::kInvalidNode)).status;
        if (s == Status::kShedQueueFull) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else if (s != Status::kOk) {
          other.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(shed.load(), 0) << "of " << kClients * kCallsPerClient;
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(fleet.metrics().shed_queue_full, 0u);
}

TEST(Fleet, ConfigValidationCatchesBadKnobs) {
  Config config;
  EXPECT_TRUE(config.validate().empty());
  config.fleet.queue_capacity = 0;
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.shed_watermark = 10'000;  // above default capacity
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.default_deadline_us = 0;
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.tenant_burst = 0.5;
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.engine.max_entries_per_shard = 0;
  EXPECT_FALSE(config.validate().empty());
  // Scheduler knobs (DESIGN.md §15).
  config = {};
  config.fleet.load_aware_placement = false;
  config.fleet.work_stealing = true;  // stealing needs the ownership table
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.interactive_weight = 0;
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.coalesce_cap = 0;
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.load_ewma_alpha = 0.0;
  EXPECT_FALSE(config.validate().empty());
  config = {};
  config.fleet.load_ewma_alpha = 1.5;
  EXPECT_FALSE(config.validate().empty());
}

TEST(Fleet, StaticPlacementBaselineStillServes) {
  // The A/B control for the skewed-load soak: scheduler features off,
  // tenants hashed tenant % shards, no ownership table, no steals.
  Config config;
  config.fleet.shards = 2;
  config.fleet.load_aware_placement = false;
  config.fleet.work_stealing = false;
  config.fleet.coalesce_quotes = false;
  Fleet fleet(config);
  const auto g = tenant_graph(91);
  ASSERT_EQ(fleet.create_tenant(3, g, 0), Status::kOk);
  QuoteEngine oracle(g, 0);
  const Response r = fleet.call(quote_req(3, 5, graph::kInvalidNode));
  ASSERT_EQ(r.status, Status::kOk);
  const auto want = oracle.quote(5);
  ASSERT_EQ(r.quote.has_value(), want.has_value());
  if (want) {
    EXPECT_EQ(r.quote->payments, want->payments);
  }
  const auto m = fleet.metrics();
  EXPECT_EQ(m.stolen_runs, 0u);
  EXPECT_EQ(m.coalesced_groups, 0u);
}

TEST(Fleet, CoalescedQuotesMatchOracleAndShareOneEpoch) {
  const auto g = tenant_graph(93, 40);
  Config config;
  config.fleet.shards = 1;
  config.fleet.default_deadline_us = 60'000'000;
  Fleet fleet(config);
  ASSERT_EQ(fleet.create_tenant(0, g, 0), Status::kOk);
  QuoteEngine oracle(g, 0);

  // Park the worker in a big batch, pile same-tenant quotes up behind
  // it, and let the drain loop fold them into one engine call. The park
  // is probabilistic, so retry a few rounds until a group coalesced.
  bool coalesced = false;
  for (int round = 0; round < 20 && !coalesced; ++round) {
    Request slow;
    slow.tenant = 0;
    slow.op = all_pairs(g);
    auto slow_future = fleet.submit(std::move(slow));
    std::vector<std::future<Response>> burst;
    for (NodeId s = 1; s < 17; ++s) {
      burst.push_back(fleet.submit(quote_req(0, s, graph::kInvalidNode)));
    }
    EXPECT_EQ(slow_future.get().status, Status::kOk);
    std::uint64_t epoch = 0;
    for (NodeId s = 1; s < 17; ++s) {
      const Response r = burst[s - 1].get();
      ASSERT_EQ(r.status, Status::kOk);
      if (epoch == 0) epoch = r.epoch;
      // No declare ran: every answer must carry the same epoch.
      EXPECT_EQ(r.epoch, epoch);
      const auto want = oracle.quote(s);
      ASSERT_EQ(r.quote.has_value(), want.has_value()) << "source " << s;
      if (want) {
        EXPECT_EQ(r.quote->path, want->path);
        EXPECT_EQ(r.quote->payments, want->payments);
      }
    }
    coalesced = fleet.metrics().coalesced_groups > 0;
  }
  EXPECT_TRUE(coalesced) << "no quote group ever coalesced in 20 rounds";
}

// Steal-safety stress: tenants migrate between shards mid-declare-storm
// while every worker is busy. Each tenant has exactly ONE writer thread,
// so its declared profile is locally known; every served quote must
// audit clean against it, epochs must rise monotonically through any
// migration, and the outcome counters must conserve. Run under TSan
// this is the steal protocol's race detector.
TEST(Fleet, WorkStealingKeepsTenantsCoherentUnderStorm) {
  constexpr TenantId kTenants = 12;
  constexpr std::size_t kNodes = 16;
  constexpr int kMaxRounds = 40;
  Config config;
  config.fleet.shards = 8;
  config.fleet.steal_min_queue = 1;  // steal eagerly
  config.fleet.default_deadline_us = 60'000'000;
  Fleet fleet(config);

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::atomic<int> done{0};
  std::vector<std::thread> owners;
  owners.reserve(kTenants);
  for (TenantId t = 0; t < kTenants; ++t) {
    owners.emplace_back([&, t] {
      auto local = tenant_graph(500 + t, kNodes);
      if (fleet.create_tenant(t, local, 0) != Status::kOk) {
        failures.fetch_add(1, std::memory_order_relaxed);
        done.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      util::Rng rng(0x57ea1ULL + static_cast<std::uint64_t>(t));
      std::uint64_t last_epoch = 0;
      for (int round = 0; round < kMaxRounds; ++round) {
        // Declare storm: blocking writes, exact local mirror.
        for (int i = 0; i < 6; ++i) {
          const auto v = static_cast<NodeId>(1 + rng.next_below(kNodes - 1));
          const Cost cost = rng.uniform(0.2, 9.0);
          const Response r = fleet.call(declare_req(t, v, cost));
          if (r.status != Status::kOk) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // Epoch monotonicity must survive a mid-storm migration.
          EXPECT_GT(r.epoch, last_epoch);
          last_epoch = r.epoch;
          local.set_node_cost(v, cost);
        }
        // Quote burst, mixed priorities; resolved before the next storm
        // so the local graph matches what the engine priced against.
        std::vector<std::future<Response>> burst;
        for (int i = 0; i < 8; ++i) {
          const auto s = static_cast<NodeId>(1 + rng.next_below(kNodes - 1));
          burst.push_back(fleet.submit(
              quote_req(t, s, graph::kInvalidNode,
                        rng.next_below(2) == 0 ? Priority::kInteractive
                                               : Priority::kBatch)));
        }
        for (auto& f : burst) {
          const Response r = f.get();
          if (r.status == Status::kShedWatermark ||
              r.status == Status::kShedQueueFull ||
              r.status == Status::kExpiredDeadline) {
            continue;  // legitimate under load; nothing to audit
          }
          if (r.status != Status::kOk) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (!r.quote.has_value()) continue;  // unroutable source
          mech::UnicastOutcome outcome;
          outcome.path = r.quote->path;
          outcome.path_cost = r.quote->path_cost;
          outcome.payments = r.quote->payments;
          const auto report =
              mech::audit_unicast_payment(local, r.quote->path.front(), 0,
                                          outcome);
          if (!report.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            ADD_FAILURE() << "tenant " << t << ": " << report.to_string();
          }
        }
        if (stop.load(std::memory_order_relaxed)) break;
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Let the storm run until at least one run actually migrated, then
  // wind down (the 8 workers against 12 busy tenants make steals near
  // certain within a round or two).
  while (!stop.load(std::memory_order_relaxed)) {
    if (fleet.metrics().stolen_runs > 0 || done.load() == kTenants) {
      stop.store(true);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : owners) t.join();
  EXPECT_EQ(failures.load(), 0);

  const auto m = fleet.metrics();
  EXPECT_GT(m.stolen_runs, 0u);
  EXPECT_GE(m.stolen_requests, m.stolen_runs);
  EXPECT_EQ(m.submitted, m.served + m.declares + m.admin +
                             m.shed_queue_full + m.shed_watermark +
                             m.throttled + m.expired + m.rejected);
  EXPECT_EQ(m.admin, kTenants);
}

// Per-tenant ledger epoch fencing (distsim tie-in): each tenant keeps an
// AP ledger whose fenced epoch mirrors its fleet epoch; a quote priced
// before another declare lands is refused settlement, never mispaid.
TEST(Fleet, LedgerFencesStaleQuotesPerTenant) {
  Fleet fleet;
  const auto g = tenant_graph(81);
  ASSERT_EQ(fleet.create_tenant(0, g, 0), Status::kOk);
  distsim::Ledger ledger(g.num_nodes(), /*master_seed=*/99);
  ledger.fund_all(1000.0);

  const Response old_quote = fleet.call(quote_req(0, 6, graph::kInvalidNode));
  ASSERT_EQ(old_quote.status, Status::kOk);
  ASSERT_TRUE(old_quote.quote.has_value());

  const Response decl = fleet.call(declare_req(0, 3, 7.75));
  ASSERT_EQ(decl.status, Status::kOk);
  ledger.set_profile_epoch(decl.epoch);

  const auto sig =
      distsim::sign(ledger.key_of(6), distsim::packet_payload(1, 6, 0));
  const auto stale = ledger.settle_quote(1, 0, sig, *old_quote.quote);
  EXPECT_FALSE(stale.accepted);
  EXPECT_EQ(stale.reject_reason, "stale quote epoch");

  // The refused attempt recorded nothing, so the same packet id can be
  // settled once the client re-quotes at the fenced epoch.
  const Response fresh = fleet.call(quote_req(0, 6, graph::kInvalidNode));
  ASSERT_EQ(fresh.status, Status::kOk);
  ASSERT_TRUE(fresh.quote.has_value());
  EXPECT_TRUE(ledger.settle_quote(1, 0, sig, *fresh.quote).accepted);
}

// Many-tenant reader/writer stress; run under TSan this exercises the
// submit-side admission state, the shard mailboxes, and the per-tenant
// engine affinity all at once.
TEST(Fleet, ManyTenantConcurrentStress) {
  constexpr TenantId kTenants = 24;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 150;
  Config config;
  config.fleet.shards = 4;
  Fleet fleet(config);
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_EQ(fleet.create_tenant(t, tenant_graph(100 + t, 16), 0),
              Status::kOk);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(0xabcd00ULL + static_cast<std::uint64_t>(c));
      std::vector<std::future<Response>> inflight;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto tenant =
            static_cast<TenantId>(rng.next_below(kTenants));
        if (rng.next_below(4) == 0) {
          const auto v = static_cast<NodeId>(1 + rng.next_below(15));
          inflight.push_back(
              fleet.submit(declare_req(tenant, v, rng.uniform(0.5, 8.0))));
        } else {
          const auto s = static_cast<NodeId>(1 + rng.next_below(15));
          inflight.push_back(fleet.submit(
              quote_req(tenant, s, graph::kInvalidNode,
                        rng.next_below(2) == 0 ? Priority::kInteractive
                                               : Priority::kBatch)));
        }
      }
      for (auto& f : inflight) {
        const Response r = f.get();
        // Every future resolves with a typed status; under stress some
        // may legitimately shed, but nothing may error out or hang.
        if (r.status != Status::kOk &&
            r.status != Status::kShedQueueFull &&
            r.status != Status::kShedWatermark &&
            r.status != Status::kExpiredDeadline) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Conservation: every submitted request is accounted to exactly one
  // outcome counter.
  const auto m = fleet.metrics();
  EXPECT_EQ(m.submitted, m.served + m.declares + m.admin +
                             m.shed_queue_full + m.shed_watermark +
                             m.throttled + m.expired + m.rejected);
  EXPECT_EQ(m.admin, kTenants);
  EXPECT_FALSE(m.tenants.empty());
}

}  // namespace
}  // namespace tc::svc
