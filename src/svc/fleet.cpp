#include "svc/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace tc::svc {

using graph::NodeId;

namespace {

constexpr std::size_t kDefaultFleetShards = 4;
/// Staging items folded into runs per try_pop_n call.
constexpr std::size_t kStageBatch = 256;
/// DRR quantum = class weight × this scale, in requests. The scale lets
/// a weight-8 interactive class serve up to 64 requests per round — big
/// enough that coalescing sees full-size groups — while the 8:1 request
/// ratio between classes is still set by the weights alone.
constexpr std::int64_t kDrrQuantumScale = 8;
/// Idle worker park time between steal polls.
constexpr std::chrono::microseconds kIdleWait{500};

bool is_quote_kind(const RequestOp& op) {
  return std::holds_alternative<QuoteOp>(op) ||
         std::holds_alternative<QuoteBatchOp>(op);
}

bool is_admin_kind(const RequestOp& op) {
  return std::holds_alternative<CreateTenantOp>(op) ||
         std::holds_alternative<DropTenantOp>(op);
}

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kUnknownTenant: return "unknown-tenant";
    case Status::kTenantExists: return "tenant-exists";
    case Status::kInvalidRequest: return "invalid-request";
    case Status::kShedQueueFull: return "shed-queue-full";
    case Status::kShedWatermark: return "shed-watermark";
    case Status::kThrottled: return "throttled";
    case Status::kExpiredDeadline: return "expired-deadline";
    case Status::kShutdown: return "shutdown";
  }
  return "unknown";
}

Fleet::Fleet(Config config) : config_(std::move(config)) {
  const std::string err = config_.validate();
  TC_CHECK_MSG(err.empty(), "invalid svc::Config");
  if (config_.fleet.shards == 0) config_.fleet.shards = kDefaultFleetShards;
  if (config_.fleet.shed_watermark == 0) {
    config_.fleet.shed_watermark = config_.fleet.queue_capacity / 2;
  }
  shards_.reserve(config_.fleet.shards);
  for (std::size_t i = 0; i < config_.fleet.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(static_cast<std::uint32_t>(i),
                                              config_.fleet.queue_capacity));
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
  }
}

Fleet::~Fleet() {
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->mailbox.close();
  for (auto& shard : shards_) {
    {
      util::MutexLock lock(shard->sched_mutex);
    }
    shard->wake.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

std::future<Response> Fleet::submit(Request req) {
  metrics_.record_submitted();
  const auto now = Clock::now();
  const std::uint64_t deadline_us =
      req.deadline_us != 0 ? req.deadline_us
                           : config_.fleet.default_deadline_us;
  Pending p;
  p.submitted = now;
  p.deadline = now + std::chrono::microseconds(deadline_us);
  p.req = std::move(req);
  std::future<Response> future = p.promise.get_future();

  Response reject;
  if (stopping_.load(std::memory_order_acquire)) {
    reject.status = Status::kShutdown;
    finish(p, std::move(reject));
    return future;
  }
  // Admission step 2 gates quotes only: a declare or admin op that the
  // fleet admits must reach the worker, or replayed state would fork.
  if (is_quote_kind(p.req.op) && config_.fleet.tenant_rate_per_sec > 0.0 &&
      !admit_quote(p.req.tenant)) {
    reject.status = Status::kThrottled;
    finish(p, std::move(reject));
    return future;
  }
  if (!config_.fleet.load_aware_placement) {
    // Static `tenant % shards` baseline: no ownership table, no steals.
    if (!admit_and_stage(static_shard_of(p.req.tenant), p, reject)) {
      finish(p, std::move(reject));
    }
    return future;
  }
  // Load-aware routing. The shared route lock is held ACROSS the staging
  // push: a steal flips ownership under the exclusive lock, so every
  // request lands wholly before or wholly after a migration — never in a
  // shard that already gave the tenant away.
  {
    util::SharedReaderLock route(route_mutex_);
    auto it = route_.find(p.req.tenant);
    if (it != route_.end()) {
      if (!admit_and_stage(*shards_[it->second], p, reject)) {
        finish(p, std::move(reject));
      }
      return future;
    }
  }
  // First sighting: place on the least-loaded shard. The exclusive lock
  // makes the insert race-free; losing racers reuse the winner's entry.
  {
    util::SharedMutexLock route(route_mutex_);
    auto [it, inserted] = route_.try_emplace(p.req.tenant, 0);
    if (inserted) {
      it->second = static_cast<std::uint32_t>(least_loaded_shard());
    }
    if (!admit_and_stage(*shards_[it->second], p, reject)) {
      finish(p, std::move(reject));
    }
  }
  return future;
}

std::size_t Fleet::least_loaded_shard() {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& shard : shards_) {
    best = std::min(best, shard->load_estimate_us());
  }
  // Ties (the common all-idle case) round-robin so a burst of new
  // tenants spreads instead of piling onto shard 0.
  std::size_t ties = 0;
  for (const auto& shard : shards_) {
    if (shard->load_estimate_us() <= best) ++ties;
  }
  std::size_t pick =
      placement_rr_.fetch_add(1, std::memory_order_relaxed) %
      std::max<std::size_t>(1, ties);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->load_estimate_us() <= best) {
      if (pick == 0) return i;
      --pick;
    }
  }
  return 0;
}

bool Fleet::admit_and_stage(Shard& shard, Pending& p, Response& reject) {
  const std::size_t depth = shard.queued.load(std::memory_order_relaxed);
  if (is_quote_kind(p.req.op) && p.req.priority == Priority::kBatch &&
      depth >= config_.fleet.shed_watermark) {
    reject.status = Status::kShedWatermark;
    return false;
  }
  if (depth >= config_.fleet.queue_capacity) {
    reject.status = Status::kShedQueueFull;
    return false;
  }
  // Count before the push: once pushed, the worker may stage and detach
  // the request (subtracting it) before this thread runs again, and a
  // late increment would let the unsigned count wrap below zero, shedding
  // every submit to the shard until it landed.
  shard.queued.fetch_add(1, std::memory_order_relaxed);
  // try_push moves from p only on success; a rejected p still owns its
  // promise, which the shed path must answer.
  if (!shard.mailbox.try_push(std::move(p))) {
    shard.queued.fetch_sub(1, std::memory_order_relaxed);
    reject.status = stopping_.load(std::memory_order_acquire)
                        ? Status::kShutdown
                        : Status::kShedQueueFull;
    return false;
  }
  // Lock-then-notify pairs with the worker's check-then-wait under the
  // same mutex, so a push can never slip between its check and its wait.
  {
    util::MutexLock lock(shard.sched_mutex);
  }
  shard.wake.notify_one();
  return true;
}

Status Fleet::create_tenant(TenantId tenant, graph::NodeGraph topology,
                            graph::NodeId access_point,
                            std::shared_ptr<const Pricer> pricer) {
  Request req;
  req.tenant = tenant;
  req.op = CreateTenantOp{std::move(topology), access_point,
                          std::move(pricer)};
  return call(std::move(req)).status;
}

Status Fleet::drop_tenant(TenantId tenant) {
  Request req;
  req.tenant = tenant;
  req.op = DropTenantOp{};
  return call(std::move(req)).status;
}

bool Fleet::admit_quote(TenantId tenant) {
  const auto now = Clock::now();
  const double rate = config_.fleet.tenant_rate_per_sec;
  const double burst = config_.fleet.tenant_burst;
  util::MutexLock lock(admission_mutex_);
  auto [it, inserted] = buckets_.try_emplace(tenant);
  TokenBucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = burst;
    bucket.refilled = now;
  } else {
    const double sec =
        std::chrono::duration<double>(now - bucket.refilled).count();
    bucket.tokens = std::min(burst, bucket.tokens + sec * rate);
    bucket.refilled = now;
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

void Fleet::finish(Pending& p, Response r) {
  const TenantId tenant = p.req.tenant;
  const Priority priority = p.req.priority;
  r.tenant = tenant;
  r.latency_us = elapsed_us(p.submitted, Clock::now());
  switch (r.status) {
    case Status::kOk:
      if (is_quote_kind(p.req.op)) {
        const bool unroutable =
            std::holds_alternative<QuoteOp>(p.req.op) && !r.quote.has_value();
        metrics_.record_served(tenant, priority, r.latency_us, unroutable);
      } else if (is_admin_kind(p.req.op)) {
        metrics_.record_admin();
      } else {
        metrics_.record_declare(tenant, priority, r.latency_us);
      }
      break;
    case Status::kShedQueueFull:
      metrics_.record_shed_queue_full(tenant, priority);
      break;
    case Status::kShedWatermark:
      metrics_.record_shed_watermark(tenant, priority);
      break;
    case Status::kThrottled:
      metrics_.record_throttled(tenant, priority);
      break;
    case Status::kExpiredDeadline:
      metrics_.record_expired(tenant, priority);
      break;
    default:
      metrics_.record_rejected();
      break;
  }
  p.promise.set_value(std::move(r));
}

// ---------------------------------------------------------------------------
// Scheduler (worker side)
// ---------------------------------------------------------------------------

void Fleet::stage_into_runs_locked(Shard& shard, std::vector<Pending>& buf) {
  for (;;) {
    buf.clear();
    if (shard.mailbox.try_pop_n(buf, kStageBatch) == 0) return;
    for (Pending& p : buf) {
      const TenantId tenant = p.req.tenant;
      TenantRun& run = shard.runs[tenant];
      const bool was_empty = run.items.empty();
      run.items.push_back(std::move(p));
      if (was_empty && !run.in_service) {
        shard.ready[class_index(run.items.front().req.priority)].push_back(
            tenant);
      }
    }
  }
}

bool Fleet::drr_detach_locked(Shard& shard, Chunk& chunk) {
  const std::int64_t quantum[kNumClasses] = {
      static_cast<std::int64_t>(config_.fleet.interactive_weight) *
          kDrrQuantumScale,
      static_cast<std::int64_t>(config_.fleet.batch_weight) *
          kDrrQuantumScale};
  std::size_t cls = shard.drr_turn;
  for (std::size_t scanned = 0; scanned < kNumClasses; ++scanned) {
    if (!shard.ready[cls].empty()) break;
    // An empty class forfeits its accumulated credit (classic DRR).
    shard.deficit[cls] = 0;
    cls = (cls + 1) % kNumClasses;
  }
  if (shard.ready[cls].empty()) return false;
  if (shard.deficit[cls] <= 0) shard.deficit[cls] += quantum[cls];

  const TenantId tenant = shard.ready[cls].front();
  shard.ready[cls].pop_front();
  TenantRun& run = shard.runs[tenant];
  run.in_service = true;
  // Detach the longest same-class prefix the deficit allows; a class
  // switch inside the run ends the chunk (the remainder requeues under
  // the new head's class when the chunk completes).
  const std::size_t budget = std::min<std::size_t>(
      config_.fleet.coalesce_cap, static_cast<std::size_t>(shard.deficit[cls]));
  chunk.tenant = tenant;
  chunk.items.clear();
  while (!run.items.empty() && chunk.items.size() < budget &&
         class_index(run.items.front().req.priority) == cls) {
    chunk.items.push_back(std::move(run.items.front()));
    run.items.pop_front();
  }
  shard.deficit[cls] -= static_cast<std::int64_t>(chunk.items.size());
  shard.drr_turn = shard.deficit[cls] > 0 ? cls : (cls + 1) % kNumClasses;
  shard.queued.fetch_sub(chunk.items.size(), std::memory_order_relaxed);
  return true;
}

void Fleet::finish_chunk_locked(Shard& shard, const Chunk& chunk,
                                double service_us) {
  auto it = shard.runs.find(chunk.tenant);
  TC_CHECK_MSG(it != shard.runs.end(),
               "in-service run must not migrate away");
  TenantRun& run = it->second;
  run.in_service = false;
  if (run.items.empty()) {
    shard.runs.erase(it);
  } else {
    shard.ready[class_index(run.items.front().req.priority)].push_back(
        chunk.tenant);
  }
  const double per_request =
      service_us / static_cast<double>(std::max<std::size_t>(
                       1, chunk.items.size()));
  const double alpha = config_.fleet.load_ewma_alpha;
  const double prev = shard.ewma_service_us.load(std::memory_order_relaxed);
  shard.ewma_service_us.store(prev + alpha * (per_request - prev),
                              std::memory_order_relaxed);
}

bool Fleet::try_steal(Shard& thief, Chunk& chunk) {
  // Lock-free victim scan: the most loaded shard with enough backlog.
  Shard* victim = nullptr;
  double best = 0.0;
  for (const auto& candidate : shards_) {
    if (candidate.get() == &thief) continue;
    if (candidate->queued.load(std::memory_order_relaxed) <
        config_.fleet.steal_min_queue) {
      continue;
    }
    const double load = candidate->load_estimate_us();
    if (victim == nullptr || load > best) {
      victim = candidate.get();
      best = load;
    }
  }
  if (victim == nullptr) return false;

  // The exclusive route lock fences out every submitter (they hold it
  // shared across the staging push) and serializes steals, making the
  // ownership flip + run/engine/mailbox migration one atomic step.
  util::SharedMutexLock route(route_mutex_);
  TenantId tenant = 0;
  std::deque<Pending> items;
  std::unique_ptr<QuoteEngine> engine;
  std::vector<Pending> staged;
  {
    util::MutexLock vlock(victim->sched_mutex);
    // Fold the victim's staged mailbox first: when its worker is stuck
    // in a long chunk, the backlog worth stealing is still in staging.
    stage_into_runs_locked(*victim, staged);
    // Steal from the tail of the ready lists — the run whose requests
    // would otherwise wait longest. Batch tails first: interactive work
    // benefits most from staying where its engine state is warm.
    bool found = false;
    for (const std::size_t cls : {class_index(Priority::kBatch),
                                  class_index(Priority::kInteractive)}) {
      if (!victim->ready[cls].empty()) {
        tenant = victim->ready[cls].back();
        victim->ready[cls].pop_back();
        found = true;
        break;
      }
    }
    if (!found) return false;
    auto rit = victim->runs.find(tenant);
    TC_CHECK_MSG(rit != victim->runs.end(), "ready run must exist");
    items = std::move(rit->second.items);
    victim->runs.erase(rit);
    // Any remaining staged items for this tenant are the newest suffix
    // of its FIFO; extract them wholesale so nothing is left behind.
    staged.clear();
    victim->mailbox.extract_if(
        [tenant](const Pending& p) { return p.req.tenant == tenant; },
        staged);
    for (Pending& p : staged) items.push_back(std::move(p));
    auto eit = victim->engines.find(tenant);
    if (eit != victim->engines.end()) {
      engine = std::move(eit->second);
      victim->engines.erase(eit);
    }
    victim->queued.fetch_sub(items.size(), std::memory_order_relaxed);
  }
  const std::size_t moved = items.size();
  // Flip the ownership token: from here on every submit routes to us.
  route_[tenant] = thief.index;
  {
    util::MutexLock tlock(thief.sched_mutex);
    if (engine != nullptr) thief.engines[tenant] = std::move(engine);
    TenantRun& run = thief.runs[tenant];
    TC_CHECK_MSG(run.items.empty() && !run.in_service,
                 "stolen tenant must not already have a run here");
    run.items = std::move(items);
    run.in_service = true;  // the head chunk executes right now
    // Detach the head chunk; classes may mix on the steal path (the
    // executor handles any per-tenant FIFO sequence).
    chunk.tenant = tenant;
    chunk.items.clear();
    while (!run.items.empty() &&
           chunk.items.size() < config_.fleet.coalesce_cap) {
      chunk.items.push_back(std::move(run.items.front()));
      run.items.pop_front();
    }
    thief.queued.fetch_add(run.items.size(), std::memory_order_relaxed);
  }
  metrics_.record_steal(moved);
  return true;
}

void Fleet::worker_loop(Shard& shard) {
  std::vector<Pending> staging;
  Chunk chunk;
  for (;;) {
    bool have = false;
    bool drained = false;
    {
      util::MutexLock lock(shard.sched_mutex);
      stage_into_runs_locked(shard, staging);
      have = drr_detach_locked(shard, chunk);
      // Exit only once the mailbox is closed AND everything admitted has
      // been answered: no ready run, nothing staged (just drained), and
      // no in-service run is possible — this thread is the only server.
      drained = !have && shard.mailbox.closed();
    }
    if (drained) return;
    if (!have && config_.fleet.work_stealing &&
        !stopping_.load(std::memory_order_acquire)) {
      have = try_steal(shard, chunk);
    }
    if (!have) {
      util::MutexLock lock(shard.sched_mutex);
      // Re-check under the lock: a push between our drain and this wait
      // also takes sched_mutex before notifying, so it cannot be lost.
      if (shard.mailbox.depth() == 0 && !shard.mailbox.closed()) {
        if (config_.fleet.work_stealing) {
          shard.wake.wait_for(shard.sched_mutex, kIdleWait);
        } else {
          shard.wake.wait(shard.sched_mutex);
        }
      }
      continue;
    }
    const auto started = Clock::now();
    execute_chunk(shard, chunk);
    const double service_us = elapsed_us(started, Clock::now());
    {
      util::MutexLock lock(shard.sched_mutex);
      finish_chunk_locked(shard, chunk, service_us);
    }
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Fleet::execute_chunk(Shard& shard, Chunk& chunk) {
  QuoteEngine* engine = nullptr;
  {
    // The pointee is stable without the lock: only this worker can
    // create/drop this tenant's engine (the run is in service), and a
    // concurrent steal of a DIFFERENT tenant only moves other entries.
    util::MutexLock lock(shard.sched_mutex);
    auto it = shard.engines.find(chunk.tenant);
    if (it != shard.engines.end()) engine = it->second.get();
  }
  std::size_t i = 0;
  while (i < chunk.items.size()) {
    if (is_quote_kind(chunk.items[i].req.op)) {
      std::size_t j = i + 1;
      while (j < chunk.items.size() &&
             is_quote_kind(chunk.items[j].req.op)) {
        ++j;
      }
      execute_quote_group(shard, &chunk.items[i], j - i, engine);
      i = j;
    } else {
      execute_one(shard, chunk.items[i], engine);
      ++i;
    }
  }
}

void Fleet::execute_one(Shard& shard, Pending& p, QuoteEngine*& engine) {
  Response r;
  if (auto* create = std::get_if<CreateTenantOp>(&p.req.op)) {
    if (engine != nullptr) {
      r.status = Status::kTenantExists;
      finish(p, std::move(r));
      return;
    }
    const std::size_t n = create->topology.num_nodes();
    const bool pricer_ok =
        create->pricer == nullptr ||
        create->pricer->model() == GraphModel::kNode;
    // +inf is legal (a node that is down); NaN and negatives are not.
    const auto& costs = create->topology.costs();
    const bool costs_ok = std::all_of(costs.begin(), costs.end(),
                                      [](graph::Cost c) { return c >= 0.0; });
    if (create->access_point >= n || !pricer_ok || !costs_ok) {
      r.status = Status::kInvalidRequest;
      finish(p, std::move(r));
      return;
    }
    // Build outside the lock (engine construction copies the topology),
    // publish under it.
    auto built = std::make_unique<QuoteEngine>(std::move(create->topology),
                                               create->access_point,
                                               std::move(create->pricer),
                                               config_.engine);
    engine = built.get();
    {
      util::MutexLock lock(shard.sched_mutex);
      shard.engines[p.req.tenant] = std::move(built);
    }
    finish(p, std::move(r));
    return;
  }
  if (std::holds_alternative<DropTenantOp>(p.req.op)) {
    if (engine == nullptr) {
      r.status = Status::kUnknownTenant;
    } else {
      util::MutexLock lock(shard.sched_mutex);
      shard.engines.erase(p.req.tenant);
      engine = nullptr;
    }
    finish(p, std::move(r));
    return;
  }
  if (engine == nullptr) {
    r.status = Status::kUnknownTenant;
    finish(p, std::move(r));
    return;
  }
  const std::size_t n = engine->num_nodes();
  if (auto* declare = std::get_if<DeclareOp>(&p.req.op)) {
    if (declare->node >= n || declare->cost < 0.0 ||
        !graph::finite_cost(declare->cost)) {
      r.status = Status::kInvalidRequest;
      finish(p, std::move(r));
      return;
    }
    r.epoch = engine->declare_cost(declare->node, declare->cost);
    finish(p, std::move(r));
    return;
  }
  const auto& down = std::get<MarkNodeDownOp>(p.req.op);
  if (down.node >= n || down.node == engine->access_point()) {
    r.status = Status::kInvalidRequest;
    finish(p, std::move(r));
    return;
  }
  r.epoch = engine->mark_node_down(down.node);
  finish(p, std::move(r));
}

void Fleet::execute_quote_group(Shard& shard, Pending* first,
                                std::size_t count, QuoteEngine* engine) {
  (void)shard;
  const auto now = Clock::now();
  if (!config_.fleet.coalesce_quotes || count == 1 || engine == nullptr) {
    // Singleton path (also the unknown-tenant path): mirror the classic
    // one-request-at-a-time execution.
    for (std::size_t k = 0; k < count; ++k) {
      Pending& p = first[k];
      Response r;
      if (now > p.deadline) {
        r.status = Status::kExpiredDeadline;
        finish(p, std::move(r));
        continue;
      }
      if (engine == nullptr) {
        r.status = Status::kUnknownTenant;
        finish(p, std::move(r));
        continue;
      }
      const std::size_t n = engine->num_nodes();
      if (auto* quote = std::get_if<QuoteOp>(&p.req.op)) {
        if (quote->target == graph::kInvalidNode) {
          if (quote->source >= n || quote->source == engine->access_point()) {
            r.status = Status::kInvalidRequest;
            finish(p, std::move(r));
            continue;
          }
          r.quote = engine->quote(quote->source);
        } else {
          if (quote->source >= n || quote->target >= n ||
              quote->source == quote->target) {
            r.status = Status::kInvalidRequest;
            finish(p, std::move(r));
            continue;
          }
          r.quote = engine->quote(quote->source, quote->target);
        }
      } else {
        auto& batch = std::get<QuoteBatchOp>(p.req.op);
        bool valid = true;
        for (const auto& [u, v] : batch.pairs) {
          if (u >= n || v >= n || u == v) {
            valid = false;
            break;
          }
        }
        if (!valid) {
          r.status = Status::kInvalidRequest;
          finish(p, std::move(r));
          continue;
        }
        r.quotes = engine->quote_batch(batch.pairs);
      }
      r.epoch = engine->epoch();
      finish(p, std::move(r));
    }
    return;
  }

  // Coalesced path: gather every still-valid quote's pairs into ONE
  // engine call. All requests here are consecutive same-tenant quotes —
  // no declare can interleave, so every answer shares one epoch.
  struct Segment {
    std::size_t begin = 0;
    std::size_t count = 0;
    bool included = false;
  };
  const std::size_t n = engine->num_nodes();
  std::vector<Segment> segments(count);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    Pending& p = first[k];
    if (now > p.deadline) {
      Response r;
      r.status = Status::kExpiredDeadline;
      finish(p, std::move(r));
      continue;
    }
    if (auto* quote = std::get_if<QuoteOp>(&p.req.op)) {
      const NodeId target = quote->target == graph::kInvalidNode
                                ? engine->access_point()
                                : quote->target;
      if (quote->source >= n || target >= n || quote->source == target) {
        Response r;
        r.status = Status::kInvalidRequest;
        finish(p, std::move(r));
        continue;
      }
      segments[k] = Segment{pairs.size(), 1, true};
      pairs.emplace_back(quote->source, target);
      continue;
    }
    auto& batch = std::get<QuoteBatchOp>(p.req.op);
    bool valid = true;
    for (const auto& [u, v] : batch.pairs) {
      if (u >= n || v >= n || u == v) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      Response r;
      r.status = Status::kInvalidRequest;
      finish(p, std::move(r));
      continue;
    }
    segments[k] = Segment{pairs.size(), batch.pairs.size(), true};
    pairs.insert(pairs.end(), batch.pairs.begin(), batch.pairs.end());
  }
  std::vector<std::optional<core::PaymentResult>> results;
  if (!pairs.empty()) results = engine->quote_batch(pairs);
  const std::uint64_t epoch = engine->epoch();
  std::size_t included = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (!segments[k].included) continue;
    Pending& p = first[k];
    Response r;
    r.epoch = epoch;
    if (std::holds_alternative<QuoteOp>(p.req.op)) {
      r.quote = std::move(results[segments[k].begin]);
    } else {
      r.quotes.assign(
          std::make_move_iterator(results.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      segments[k].begin)),
          std::make_move_iterator(results.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      segments[k].begin + segments[k].count)));
    }
    finish(p, std::move(r));
    ++included;
  }
  if (included >= 2) metrics_.record_coalesced(included);
}

}  // namespace tc::svc
