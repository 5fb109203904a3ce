// svc::Config: the one way to configure the serving layer.
//
// Before the Fleet existed, engines were constructed four ways — bare
// QuoteEngine::Options literals in tests, ad-hoc flag plumbing in each
// bench, hardcoded defaults in the CLI, and implicit Options{} everywhere
// else. Config consolidates both layers behind one validated struct:
//
//   * EngineConfig — per-tenant QuoteEngine knobs (cache sharding, COW
//     snapshots, warm SPT cache, incremental invalidation). One of these
//     is applied to every engine a Fleet hosts.
//   * FleetConfig  — service-level knobs: shard/worker count, bounded
//     queue depth and shed watermark, default request deadline, and the
//     per-tenant token-bucket admission limits.
//
// validate() returns "" or the first problem found, so binaries can turn
// a bad flag combination into a clean error instead of a TC_CHECK crash
// deep inside a worker thread. Construction sites (truthcast_cli, the
// benches, the tests) all flow through Config now — adding a knob means
// touching this header and nothing else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/thread_pool.hpp"

namespace tc::svc {

/// Per-engine (per-tenant) options: the knobs QuoteEngine understands.
/// Field semantics are documented on the engine (quote_engine.hpp).
struct EngineConfig {
  /// Cache shards (0 = default 16). More shards, less lock contention.
  std::size_t shards = 0;
  /// Cache-entry cap per shard; oldest-inserted entries are dropped.
  std::size_t max_entries_per_shard = 1024;
  /// When false, every re-declaration flushes the whole cache (the
  /// always-correct conservative mode; also the oracle baseline).
  bool incremental_invalidation = true;
  /// Publish re-declarations as copy-on-write snapshot derivations.
  bool cow_snapshots = true;
  /// Keep warm per-root SPTs repaired via spath::CostDelta across
  /// re-declarations (node model + accepts_warm_spts() pricers only).
  bool warm_spt_cache = true;
  /// Max warm SPT roots retained (LRU; the access point is pinned).
  std::size_t max_warm_spts = 64;
  /// Pool for quote_all()/quote_batch(); nullptr = util::default_pool().
  util::ThreadPool* pool = nullptr;

  /// "" when coherent; otherwise the first problem found.
  [[nodiscard]] std::string validate() const {
    if (max_entries_per_shard == 0) {
      return "engine.max_entries_per_shard must be positive";
    }
    if (warm_spt_cache && max_warm_spts < 2) {
      return "engine.max_warm_spts must hold at least source+target";
    }
    return {};
  }
};

/// Service-level options for svc::Fleet.
struct FleetConfig {
  /// Worker shards. Tenants are hashed onto shards; each shard owns one
  /// worker thread and the engines of its tenants (0 = default 4).
  std::size_t shards = 0;
  /// Bounded per-shard request queue; a full queue rejects outright.
  std::size_t queue_capacity = 4096;
  /// Above this queue depth, kBatch-priority requests are shed while
  /// kInteractive traffic is still admitted (0 = capacity / 2).
  std::size_t shed_watermark = 0;
  /// Deadline applied to requests that do not carry one, in microseconds.
  /// A request whose deadline has passed when a worker dequeues it gets a
  /// typed kExpiredDeadline rejection, never a stale quote.
  std::uint64_t default_deadline_us = 50'000;
  /// Per-tenant token bucket: sustained admissions per second (0 disables
  /// throttling) and burst capacity.
  double tenant_rate_per_sec = 0.0;
  double tenant_burst = 64.0;

  // --- Scheduler (DESIGN.md §15) ---
  /// Load-aware tenant placement: a tenant's first request pins it to the
  /// currently least-loaded shard via the ownership table, instead of the
  /// static `tenant % shards` hash. false restores the static baseline
  /// (the A/B control for the skewed-load soak).
  bool load_aware_placement = true;
  /// Idle workers steal whole-tenant runs (requests and staged mailbox
  /// items) from the most-loaded shard. Requires load_aware_placement —
  /// a steal flips the tenant's shard in the ownership table.
  bool work_stealing = true;
  /// Deficit-round-robin weights per SLO class: a class's quantum is
  /// weight × 8 requests per round. Interactive ≫ batch keeps batch
  /// floods out of interactive tail latency; equal weights degrade to
  /// plain round robin. A quantum also bounds the requests one
  /// scheduling decision detaches.
  std::uint32_t interactive_weight = 8;
  std::uint32_t batch_weight = 1;
  /// A shard qualifies as a steal victim only with at least this many
  /// queued requests (keeps idle workers from thrashing warm state over
  /// scraps).
  std::size_t steal_min_queue = 8;
  /// EWMA smoothing factor for the per-shard mean service time feeding
  /// the load estimate (queue depth × mean service time).
  double load_ewma_alpha = 0.2;

  [[nodiscard]] std::string validate() const {
    if (queue_capacity == 0) return "fleet.queue_capacity must be positive";
    if (shed_watermark > queue_capacity) {
      return "fleet.shed_watermark must not exceed fleet.queue_capacity";
    }
    if (default_deadline_us == 0) {
      return "fleet.default_deadline_us must be positive";
    }
    if (tenant_rate_per_sec < 0.0 || tenant_burst < 1.0) {
      return "fleet.tenant token bucket needs rate >= 0 and burst >= 1";
    }
    if (work_stealing && !load_aware_placement) {
      return "fleet.work_stealing requires fleet.load_aware_placement";
    }
    if (interactive_weight == 0 || batch_weight == 0) {
      return "fleet DRR weights must be positive";
    }
    if (load_ewma_alpha <= 0.0 || load_ewma_alpha > 1.0) {
      return "fleet.load_ewma_alpha must be in (0, 1]";
    }
    return {};
  }
};

/// The unified serving-layer configuration: one of these constructs a
/// Fleet (and, via .engine, every engine the fleet hosts). Standalone
/// QuoteEngine construction takes the .engine section directly.
struct Config {
  EngineConfig engine;
  FleetConfig fleet;

  [[nodiscard]] std::string validate() const {
    std::string err = engine.validate();
    if (err.empty()) err = fleet.validate();
    return err;
  }
};

}  // namespace tc::svc
