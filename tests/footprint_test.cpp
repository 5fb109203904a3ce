// Heap footprint of the serving layer's per-tenant state.
//
// A tenant should cost what its graph and cached quotes cost, and the
// service's latency books should stay bounded however long it runs.
// Each test measures the process heap (mallinfo2: arena bytes in use
// plus mmapped blocks) around the object under test. Sanitizer builds
// replace the allocator and glibc then sees none of the traffic, so the
// tests skip there rather than pass vacuously.
#include <malloc.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/generators.hpp"
#include "spath/bucket_queue.hpp"
#include "spath/workspace.hpp"
#include "svc/metrics.hpp"
#include "svc/quote_engine.hpp"
#include "util/rng.hpp"

namespace tc {
namespace {

std::int64_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

/// True when mallinfo2 sees this process's allocations. (Reading the
/// probe back keeps the compiler from eliding its allocation.)
bool heap_is_visible() {
  const std::int64_t before = heap_in_use();
  auto probe = std::make_unique<std::vector<char>>(1 << 16, 'x');
  const bool seen = heap_in_use() - before >= (1 << 16);
  return seen && probe->back() == 'x';
}

constexpr char kHeapHidden[] = "mallinfo2 does not see this allocator";

/// Latencies drawn log-uniformly from [1 us, 10 ms]: one fixed
/// distribution whose whole range the first 10^5 draws already cover.
double draw_latency_us(util::Rng& rng) {
  return std::exp(rng.uniform(std::log(1.0), std::log(1e4)));
}

TEST(Footprint, DefaultWorkspaceAllocatesNothing) {
  if (!heap_is_visible()) GTEST_SKIP() << kHeapHidden;
  const std::int64_t before = heap_in_use();
  spath::DijkstraWorkspace ws;
  const std::int64_t held = heap_in_use() - before;
  EXPECT_EQ(held, 0) << "workspace of size " << ws.size();
}

TEST(Footprint, EmptyBucketQueueAllocatesNothing) {
  if (!heap_is_visible()) GTEST_SKIP() << kHeapHidden;
  const std::int64_t before = heap_in_use();
  spath::BucketQueue q(0);
  const std::int64_t held = heap_in_use() - before;
  EXPECT_EQ(held, 0);
  // The buckets arrive with the first run (reset), not before.
  q.reset(4);
  q.push_or_decrease(2, 0.5);
  EXPECT_GT(heap_in_use() - before, 0);
  EXPECT_EQ(q.pop_min().second, 2u);
}

TEST(Footprint, FreshSmallEngineHoldsUnder8KB) {
  if (!heap_is_visible()) GTEST_SKIP() << kHeapHidden;
  constexpr int kEngines = 200;
  std::vector<graph::NodeGraph> graphs;
  for (int i = 0; i < kEngines; ++i) {
    graphs.push_back(graph::make_erdos_renyi(20, 0.3, 0.5, 9.0,
                                             static_cast<std::uint64_t>(i)));
  }
  // One throwaway engine absorbs one-time static set-up.
  { svc::QuoteEngine warm(graphs[0], 0); }
  std::vector<std::unique_ptr<svc::QuoteEngine>> engines;
  engines.reserve(kEngines);
  const std::int64_t before = heap_in_use();
  for (int i = 0; i < kEngines; ++i) {
    // The engine's copy of its graph is part of what it holds.
    engines.push_back(std::make_unique<svc::QuoteEngine>(graphs[i], 0));
  }
  const double per_engine =
      static_cast<double>(heap_in_use() - before) / kEngines;
  EXPECT_LE(per_engine, 8.0 * 1024.0);
}

TEST(Footprint, EngineMetricsHeapFlatInQuoteCount) {
  if (!heap_is_visible()) GTEST_SKIP() << kHeapHidden;
  util::Rng rng(0x5eedf007ULL);
  const std::int64_t before = heap_in_use();
  svc::Metrics metrics;
  for (int i = 0; i < 100000; ++i) metrics.record_served(draw_latency_us(rng));
  const std::int64_t at_1e5 = heap_in_use() - before;
  for (int i = 0; i < 900000; ++i) metrics.record_served(draw_latency_us(rng));
  const std::int64_t at_1e6 = heap_in_use() - before;
  EXPECT_EQ(at_1e5, at_1e6);
  const svc::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.quotes_served, 1000000u);
  EXPECT_GT(snap.latency_p99_us, snap.latency_p50_us);
}

TEST(Footprint, FleetMetricsHeapFlatInQuoteCount) {
  if (!heap_is_visible()) GTEST_SKIP() << kHeapHidden;
  util::Rng rng(0xf1ee7f00ULL);
  constexpr std::uint64_t kTenants = 64;
  auto record = [&](svc::FleetMetrics& m) {
    const auto tenant = static_cast<svc::TenantId>(rng.next_below(kTenants));
    const auto priority = rng.bernoulli(0.5) ? svc::Priority::kInteractive
                                             : svc::Priority::kBatch;
    if (rng.bernoulli(0.1)) {
      m.record_declare(tenant, priority, draw_latency_us(rng));
    } else {
      m.record_served(tenant, priority, draw_latency_us(rng), false);
    }
  };
  const std::int64_t before = heap_in_use();
  auto metrics = std::make_unique<svc::FleetMetrics>();
  for (int i = 0; i < 100000; ++i) record(*metrics);
  const std::int64_t at_1e5 = heap_in_use() - before;
  for (int i = 0; i < 900000; ++i) record(*metrics);
  const std::int64_t at_1e6 = heap_in_use() - before;
  EXPECT_EQ(at_1e5, at_1e6);
  const svc::FleetMetricsSnapshot snap = metrics->snapshot();
  EXPECT_EQ(snap.served + snap.declares, 1000000u);
  EXPECT_EQ(snap.tenants.size(), kTenants);
  EXPECT_GT(snap.interactive_p99_us, snap.interactive_p50_us);
}

}  // namespace
}  // namespace tc
