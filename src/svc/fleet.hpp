// svc::Fleet: many tenants, one service, one request API.
//
// A Fleet hosts thousands of independent QuoteEngine tenants — one
// engine (graph + access point + pricer + cache stack) per TenantId —
// behind a single typed submit(Request) -> future<Response> surface.
// Everything a client can ask for is a Request alternative: quotes
// (single and batch), cost declarations, administrative node-down
// marks, and tenant lifecycle (create/drop). Every answer is a typed
// Response carrying a Status — a shed or expired request gets an
// explicit rejection, never a stale quote.
//
// Scheduling (DESIGN.md §15; FleetConfig holds every knob)
//   Each shard runs ONE worker thread over a two-stage mailbox: clients
//   push into a bounded staging queue (util::BoundedQueue), and the
//   worker folds staged requests into per-tenant FIFO *runs* under the
//   shard scheduler mutex. Three mechanisms cooperate on top:
//
//   * Load-aware placement + work stealing with tenant-affinity
//     handoff. A tenant's first request pins it to the least-loaded
//     shard in the ownership table (route_); an idle worker steals a
//     whole-tenant run — queued requests, staged mailbox items, and the
//     tenant's engine — from the tail of the most-loaded shard's ready
//     lists, flipping the ownership token so the engine's warm-SPT/COW
//     state stays single-writer. Victims are chosen by a load estimate:
//     queue depth × an EWMA of per-request service time.
//   * Same-tenant quote coalescing. The drain loop detaches a run of
//     consecutive quote requests for one tenant and prices them as ONE
//     QuoteEngine::quote_batch call, so the multi-source batched kernel
//     (spath::spt_multi_into) amortizes the SPT solve across requests
//     that would otherwise each pay a full miss. All requests in a
//     coalesced group are answered under one declaration epoch — no
//     declare of that tenant can interleave, because the worker holding
//     the run is its only executor.
//   * Weighted fair queuing per SLO class. Runs are scheduled by a
//     deficit-round-robin loop over per-class ready lists
//     (kInteractive weight ≫ kBatch), so batch floods cannot inflate
//     interactive tail latency. Admission gates are unchanged; DRR
//     replaces only the *ordering* role the watermark shed used to
//     moonlight in.
//
//   Per-tenant FIFO survives all three: a run is a single deque, a
//   steal moves it wholesale while no request of that tenant is in
//   service, and the ownership flip happens under the exclusive route
//   lock that every submit's push holds shared.
//
// Admission control (runs inline on the submitting thread)
//   1. shutdown check            -> kShutdown
//   2. per-tenant token bucket   -> kThrottled      (quote kinds only)
//   3. watermark shed            -> kShedWatermark  (kBatch quotes once
//                                   the shard queue is deeper than
//                                   FleetConfig::shed_watermark)
//   4. depth gate + staging push -> kShedQueueFull  (hard capacity)
//   Admission rejections resolve the future immediately — a client
//   never waits on a request the fleet already refused. Declares and
//   admin ops skip 2-3: state mutations must not be silently dropped
//   by load shedding (a rejected declare is still visible to the
//   client as kShedQueueFull, so replay stays deterministic).
//
// Deadlines
//   Every request carries a deadline (deadline_us after submission; 0
//   means FleetConfig::default_deadline_us). A worker that detaches a
//   *quote* past its deadline answers kExpiredDeadline instead of
//   pricing dead work. Declares and admin ops always execute once
//   queued, whatever their age — dropping a write that was admitted
//   would fork the tenant's declared-cost history.
//
// Every decision above is counted in FleetMetrics (fleet-wide and
// per-tenant, with per-priority-class latency percentiles and
// steal/coalesce counters); see svc/metrics.hpp and DESIGN.md §12/§15.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "svc/config.hpp"
#include "svc/quote_engine.hpp"
#include "util/bounded_queue.hpp"
#include "util/thread_annotations.hpp"

namespace tc::svc {

/// Outcome class of a fleet response. kOk is the only success.
enum class Status : std::uint8_t {
  kOk = 0,
  kUnknownTenant,   ///< no engine registered for Request::tenant
  kTenantExists,    ///< CreateTenantOp for an id already hosted
  kInvalidRequest,  ///< out-of-range node, bad cost, source==target, ...
  kShedQueueFull,   ///< shard mailbox at hard capacity
  kShedWatermark,   ///< batch-priority quote shed above the watermark
  kThrottled,       ///< per-tenant token bucket empty
  kExpiredDeadline, ///< deadline passed before pricing (quotes only)
  kShutdown,        ///< fleet is stopping; request not accepted
};

[[nodiscard]] const char* to_string(Status s);

// --------------------------------------------------------------------------
// Request alternatives (the tagged union's arms)
// --------------------------------------------------------------------------

/// Quote one route. target == graph::kInvalidNode means "to the access
/// point" (the paper's canonical direction); otherwise an ordered pair.
struct QuoteOp {
  graph::NodeId source = 0;
  graph::NodeId target = graph::kInvalidNode;
};

/// Bulk ordered-pair quotes, priced as one engine call (thread-pool
/// fan-out inside the tenant's engine).
struct QuoteBatchOp {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
};

/// Node `node` (re)declares its relay cost.
struct DeclareOp {
  graph::NodeId node = 0;
  graph::Cost cost = 0.0;
};

/// Administrative removal: `node` stopped relaying (crash, decommission).
struct MarkNodeDownOp {
  graph::NodeId node = 0;
};

/// Registers a tenant: its topology, access point, and (optionally) a
/// non-default pricer. Engine knobs come from the fleet's Config.
struct CreateTenantOp {
  graph::NodeGraph topology;
  graph::NodeId access_point = 0;
  std::shared_ptr<const Pricer> pricer;  ///< nullptr = engine default
};

/// Unregisters a tenant and destroys its engine.
struct DropTenantOp {};

using RequestOp = std::variant<QuoteOp, QuoteBatchOp, DeclareOp,
                               MarkNodeDownOp, CreateTenantOp, DropTenantOp>;

/// One message into the fleet.
struct Request {
  TenantId tenant = 0;
  Priority priority = Priority::kInteractive;
  /// Microseconds after submission before the request is dead; 0 means
  /// FleetConfig::default_deadline_us.
  std::uint64_t deadline_us = 0;
  RequestOp op;
};

/// One message out. Which payload fields are meaningful depends on the
/// request kind; status == kOk guarantees the matching one is set.
struct Response {
  Status status = Status::kOk;
  TenantId tenant = 0;
  /// Declaration epoch now in effect (declare / mark-down responses) or
  /// the epoch a quote was priced under.
  std::uint64_t epoch = 0;
  /// QuoteOp result; nullopt with status kOk means "no route exists".
  std::optional<core::PaymentResult> quote;
  /// QuoteBatchOp results, one slot per requested pair.
  std::vector<std::optional<core::PaymentResult>> quotes;
  /// Submit -> completion wall latency as measured by the fleet.
  double latency_us = 0.0;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

// --------------------------------------------------------------------------
// Fleet
// --------------------------------------------------------------------------

class Fleet {
 public:
  /// Validates `config` (TC_CHECK on the first problem; call
  /// config.validate() yourself to fail softly) and starts the workers.
  explicit Fleet(Config config = {});
  /// Drains every shard mailbox (queued requests still get answers),
  /// then joins the workers. Submissions racing shutdown get kShutdown.
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Submits one request. Admission control runs inline; a rejected
  /// request's future is ready immediately. The future never dangles:
  /// shutdown answers queued requests before the workers exit.
  [[nodiscard]] std::future<Response> submit(Request req);

  /// Blocking convenience: submit and wait.
  [[nodiscard]] Response call(Request req) {
    return submit(std::move(req)).get();
  }

  /// Admin conveniences; both route through the request path (kOk /
  /// kTenantExists / kUnknownTenant / kShedQueueFull / kShutdown).
  Status create_tenant(TenantId tenant, graph::NodeGraph topology,
                       graph::NodeId access_point,
                       std::shared_ptr<const Pricer> pricer = nullptr);
  Status drop_tenant(TenantId tenant);

  std::size_t num_shards() const { return shards_.size(); }
  const Config& config() const { return config_; }

  /// Point-in-time fleet-wide + per-tenant instrumentation snapshot.
  [[nodiscard]] FleetMetricsSnapshot metrics() const {
    return metrics_.snapshot();
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// One queued request: the message, its resolved deadline, and the
  /// promise the worker (or admission control) answers.
  struct Pending {
    Request req;
    std::promise<Response> promise;
    Clock::time_point submitted;
    Clock::time_point deadline;
  };

  /// Per-tenant FIFO of admitted requests awaiting execution. The run
  /// is the unit of scheduling AND of stealing: it moves between shards
  /// wholesale, so per-tenant order is a structural invariant.
  struct TenantRun {
    std::deque<Pending> items;
    /// True while the owning worker has a detached chunk of this run in
    /// flight. An in-service run is in no ready list and is never a
    /// steal candidate — that is what keeps engine state single-writer.
    bool in_service = false;
  };

  static constexpr std::size_t kNumClasses = 2;

  struct Shard {
    Shard(std::uint32_t idx, std::size_t staging_capacity)
        : index(idx), mailbox(staging_capacity) {}

    /// Position in Fleet::shards_; what the ownership table stores.
    const std::uint32_t index;

    /// Stage 1: clients push here (bounded, lock inside the queue).
    /// The worker drains it in batches (try_pop_n) under sched_mutex, so
    /// a staged item is always visible either here or in `runs` to a
    /// steal holding sched_mutex — there is no in-between.
    util::BoundedQueue<Pending> mailbox;
    std::thread worker;

    /// Shard scheduler lock ("shard mailbox mutex" in DESIGN.md §15's
    /// lock order). Guards the run table, the DRR state, and the engine
    /// map. Lock order: route_mutex_ (if taken at all) strictly BEFORE
    /// any sched_mutex; tc_analyze's lock-order rule rejects the
    /// reverse edge.
    util::Mutex sched_mutex;
    /// Worker parking: signaled on every successful staging push and at
    /// shutdown. The worker also wakes on a short timeout to poll for
    /// steal opportunities.
    util::CondVar wake;
    std::unordered_map<TenantId, TenantRun> runs TC_GUARDED_BY(sched_mutex);
    /// DRR ready lists, one per Priority class; a run is listed under
    /// the class of its head request, at most once, never in service.
    std::array<std::deque<TenantId>, kNumClasses> ready
        TC_GUARDED_BY(sched_mutex);
    std::array<std::int64_t, kNumClasses> deficit TC_GUARDED_BY(sched_mutex) =
        {};
    std::size_t drr_turn TC_GUARDED_BY(sched_mutex) = 0;
    /// Tenant engines. Only the owning worker executes against them,
    /// but the map itself is guarded so a steal can migrate an entry.
    std::unordered_map<TenantId, std::unique_ptr<QuoteEngine>> engines
        TC_GUARDED_BY(sched_mutex);

    /// Admitted-but-not-executing request count (staging + runs).
    /// Advisory cross-thread reads feed admission and load estimates.
    std::atomic<std::size_t> queued{0};
    /// EWMA of per-request service time in microseconds (worker-only
    /// writer; cross-shard readers use it for the load estimate).
    std::atomic<double> ewma_service_us{1.0};

    /// Load estimate: queue depth × mean service time (microseconds of
    /// queued work). What placement minimizes and stealing maximizes
    /// over.
    double load_estimate_us() const {
      return static_cast<double>(queued.load(std::memory_order_relaxed)) *
             ewma_service_us.load(std::memory_order_relaxed);
    }
  };

  /// Classic token bucket, refilled lazily on each admission check.
  struct TokenBucket {
    double tokens = 0.0;
    Clock::time_point refilled;
  };

  /// A chunk detached from one tenant's run for execution: the worker
  /// answers every Pending, then returns through finish_chunk_locked.
  /// After a steal the run lives in the thief's tables, so a chunk is
  /// always executed and returned by the shard that detached it.
  struct Chunk {
    TenantId tenant = 0;
    std::vector<Pending> items;
  };

  static std::size_t class_index(Priority p) {
    return static_cast<std::size_t>(p);
  }

  /// Static placement (the A/B baseline and the no-routing fast path).
  Shard& static_shard_of(TenantId tenant) {
    return *shards_[tenant % shards_.size()];
  }
  /// Least-loaded shard index for first-seen tenants (ties round-robin).
  std::size_t least_loaded_shard();
  /// Token-bucket admission for quote kinds; true = admit.
  bool admit_quote(TenantId tenant) TC_EXCLUDES(admission_mutex_);
  /// Gates 3-4 + staging push + worker wakeup for an already-routed
  /// request. On rejection the Pending still owns its promise.
  [[nodiscard]] bool admit_and_stage(Shard& shard, Pending& p,
                                     Response& reject);
  /// Resolves `p` with `r`, stamping latency and fleet metrics.
  void finish(Pending& p, Response r);
  void worker_loop(Shard& shard);

  /// Folds staged mailbox items into per-tenant runs. Holding
  /// sched_mutex across the try_pop_n is what makes staged items
  /// steal-visible at every instant.
  void stage_into_runs_locked(Shard& shard, std::vector<Pending>& buf)
      TC_REQUIRES(shard.sched_mutex);
  /// DRR scheduling decision: detaches the next chunk (marking its run
  /// in-service) or returns false when no run is ready.
  [[nodiscard]] bool drr_detach_locked(Shard& shard, Chunk& chunk)
      TC_REQUIRES(shard.sched_mutex);
  /// Returns a served run to the scheduler: clears in_service, requeues
  /// or erases the run, and refreshes the service-time EWMA.
  void finish_chunk_locked(Shard& shard, const Chunk& chunk,
                           double service_us)
      TC_REQUIRES(shard.sched_mutex);
  /// Attempts one whole-tenant steal into `thief`; fills `chunk` from
  /// the migrated run on success. Never called with any shard's
  /// sched_mutex held (route_mutex_ comes first in the lock order).
  [[nodiscard]] bool try_steal(Shard& thief, Chunk& chunk)
      TC_EXCLUDES(route_mutex_);

  /// Executes a detached chunk: coalesces consecutive quote requests
  /// into one engine call, runs declares/admin ops one by one, and
  /// answers every Pending.
  void execute_chunk(Shard& shard, Chunk& chunk);
  /// Executes one non-quote request (declare / admin / mark-down);
  /// `engine` tracks create/drop made inside the chunk.
  void execute_one(Shard& shard, Pending& p, QuoteEngine*& engine);
  /// Prices `count` consecutive quote requests starting at `first` in
  /// one engine call (or individually when coalescing is off).
  void execute_quote_group(Shard& shard, Pending* first, std::size_t count,
                           QuoteEngine* engine);

  Config config_;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Guards the token buckets only; taken briefly inside submit().
  util::Mutex admission_mutex_;
  std::unordered_map<TenantId, TokenBucket> buckets_
      TC_GUARDED_BY(admission_mutex_);
  /// Tenant ownership table (load-aware mode only): tenant -> shard
  /// index. Submitters hold it SHARED across the staging push; a steal
  /// holds it EXCLUSIVE across the ownership flip + run/engine/mailbox
  /// migration, so every request lands wholly before or wholly after a
  /// migration. First lock in the fleet's lock order (DESIGN.md §15).
  util::SharedMutex route_mutex_;
  std::unordered_map<TenantId, std::uint32_t> route_
      TC_GUARDED_BY(route_mutex_);
  /// Round-robin tie-break for zero-load placement.
  std::atomic<std::size_t> placement_rr_{0};
  FleetMetrics metrics_;
};

}  // namespace tc::svc
