// fleet_zipf and engine_churn: all load from one process through
// svc::Fleet::submit, into a Fleet of 3 shards (3 workers + 1 generator
// thread = 4 cores). The engines batch on a pool of one worker, which runs
// only while the shard that called it waits.
//
// fleet_zipf is an open loop at a fixed offered rate over 1000 small
// tenants (20-node Erdős–Rényi, as fleet_soak): pricing costs a few µs, so
// admission, staging, DRR, stealing, coalescing and the promise/future
// path dominate. Quote tenants are Zipf(1.1), so stealing and coalescing
// have work to do.
//
// engine_churn is a closed loop with 8 requests in flight over 4 tenants of
// n=1024 unit-disk graphs at the paper's density (as redeclare_churn):
// quotes come from a hot set of 16 sources per tenant and 10% of requests
// re-declare, so the QuoteEngine write path (certificate sweep, COW
// publish, warm-SPT repair) and the miss path (Pricer, spath) dominate.
//
// Both mixes carry a periodic price-sheet sweep (one QuoteBatchOp over
// sources of one tenant, to its AP) so sweep_p50_ms is defined on every
// workload. Sweeps are cold by construction: they price afresh.
//
// Client latency is timed from the request's due time (open loop) or its
// submit call (closed loop) to the fleet's completion stamp: the
// generator's own stamps plus Response::latency_us, which the fleet
// measures from inside submit() to the moment it resolves the promise.
// That keeps a response's time independent of the moment the generator
// takes the response in.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/fast_payment.hpp"
#include "gate.hpp"
#include "graph/generators.hpp"
#include "spath/batch.hpp"
#include "spath/workspace.hpp"
#include "svc/fleet.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace tc;
using graph::Cost;
using graph::NodeId;

constexpr std::size_t kShards = 3;
/// Upper bound on sampled replay quotes whose layer calls are timed.
constexpr std::size_t kMaxLayerSamples = 1500;

/// Workload constants; perfbench/README.md gives the reason for each.
struct Spec {
  const char* name;
  bool open_loop;
  double rate_per_s;        ///< open loop: offered requests per second
  std::size_t burst;        ///< open loop: requests due together
  std::size_t window;       ///< closed loop: requests in flight
  std::size_t sweep_every;  ///< every k-th request is a price-sheet sweep
  std::size_t gate_stride;  ///< every k-th answer is checked by the oracle
};

/// fleet_zipf's requests fall due in bursts of 20 every millisecond. With
/// one request every 50 µs each one woke an idle shard worker, and its
/// latency was mostly the shared host's wake-up time, which doubled from
/// one minute to the next; in a burst the queue drains at the fleet's own
/// per-request cost, and the generator wakes once per burst.
constexpr Spec kZipfSpec{"fleet_zipf", true, 20000.0, 20, 0, 400, 1};
/// Quotes per window of the windowed quote p99 (see run_phase).
constexpr double kQuotesPerWindow = 200.0;
/// Every request's deadline. The fleet's 50 ms default turns a stall of
/// the shared host (tens of ms, several times a minute) into expired
/// requests, and a run with failed requests is no measurement.
constexpr std::uint64_t kDeadlineUs = 1'000'000;
/// engine_churn sweeps every 2000th request: a cold sweep holds its
/// tenant's shard for ~2 ms, and more often than this the quotes queued
/// behind sweeps would make up the quote p99.
constexpr Spec kChurnSpec{"engine_churn", false, 0.0, 0, 8, 2000, 31};

enum class OpKind : std::uint8_t { kQuote, kDeclare, kSweep };

struct Op {
  OpKind kind = OpKind::kQuote;
  svc::Priority priority = svc::Priority::kInteractive;
  svc::TenantId tenant = 0;
  NodeId a = 0;                    ///< quote source / declaring node
  NodeId b = graph::kInvalidNode;  ///< quote target; kInvalidNode = AP
  Cost cost = 0.0;                 ///< declare: the absolute cost sent
};

/// Everything the harness keeps about one timed request.
struct Record {
  Op op;
  std::int64_t due_ns = 0;       ///< open loop: schedule slot; closed: submit
  std::int64_t submit_ns = 0;    ///< immediately before Fleet::submit
  std::int64_t returned_ns = 0;  ///< Fleet::submit returned (traced only)
  double latency_us = 0.0;       ///< Response::latency_us
  std::uint64_t epoch = 0;
  std::uint64_t digest = 0;      ///< answer digest (gate-sampled answers)
  std::uint32_t span = 0;        ///< root span handle (traced only)
  svc::Status status = svc::Status::kOk;

  std::int64_t completion_ns() const {
    return submit_ns + static_cast<std::int64_t>(latency_us * 1e3);
  }
  double client_us() const {
    return static_cast<double>(completion_ns() - due_ns) / 1e3;
  }
};

struct World {
  std::vector<graph::NodeGraph> graphs;
  /// Per tenant: the access point.
  std::vector<NodeId> ap;
  /// Per tenant: engine_churn's hot set, the sources its quotes come from.
  std::vector<std::vector<NodeId>> hot;
  /// Per tenant: the sources price-sheet sweeps draw from. A sweep quotes
  /// `sweep_size` consecutive entries (cyclically) from offset Op::a, each
  /// to the AP.
  std::vector<std::vector<NodeId>> sweep_pool;
  std::size_t sweep_size = 0;
  /// Quotes issued while warming up, replayed untimed before the stream.
  std::vector<Op> warmup;
  std::unique_ptr<svc::Fleet> fleet;
};

/// What one timed window produced.
struct Live {
  std::vector<Record> records;
  /// Test hook: corrupt the next gate-sampled route before digesting it.
  bool tamper_pending = false;
  std::int64_t t0_ns = 0;
  std::size_t segments = 1;  ///< 1-second segments in the timed window
  /// Process CPU seconds at each segment boundary (segments + 1 entries).
  std::vector<double> cpu_at;
  svc::FleetMetricsSnapshot before;
  svc::FleetMetricsSnapshot after;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return (seed + 0x9E3779B97F4A7C15ULL) * 0xBF58476D1CE4E5B9ULL ^ salt;
}

/// The (source, AP) pairs a price-sheet sweep `op` quotes.
std::vector<std::pair<NodeId, NodeId>> sweep_pairs(const Op& op,
                                                   const World& w) {
  const std::vector<NodeId>& pool = w.sweep_pool[op.tenant];
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t k = 0; k < w.sweep_size; ++k) {
    pairs.emplace_back(pool[(op.a + k) % pool.size()], w.ap[op.tenant]);
  }
  return pairs;
}

svc::Request to_request(const Op& op, const World& w) {
  svc::Request req;
  req.tenant = op.tenant;
  req.priority = op.priority;
  req.deadline_us = kDeadlineUs;
  switch (op.kind) {
    case OpKind::kQuote:
      req.op = svc::QuoteOp{op.a, op.b};
      break;
    case OpKind::kDeclare:
      req.op = svc::DeclareOp{op.a, op.cost};
      break;
    case OpKind::kSweep:
      req.op = svc::QuoteBatchOp{sweep_pairs(op, w)};
      break;
  }
  return req;
}

/// Submits `count` requests made by `make(i)` in windows of 256 and waits
/// for all of them (set-up only). Pipelining keeps set-up time a matter
/// of fleet throughput, not of one round trip per request.
template <class Make>
void submit_all(svc::Fleet& fleet, std::size_t count, Make make) {
  constexpr std::size_t kWindow = 256;
  std::vector<std::future<svc::Response>> window;
  for (std::size_t i = 0; i < count; ++i) {
    window.push_back(fleet.submit(make(i)));
    if (window.size() == kWindow || i + 1 == count) {
      for (auto& f : window) {
        if (!f.get().ok()) throw RunRefused("a set-up request was refused");
      }
      window.clear();
    }
  }
}

/// The pool every engine of the fleet prices its quote batches on. The
/// library's default pool has a worker per core, so each sweep put 4 pool
/// threads beside the 3 shard workers and the generator, and sweep and
/// quote tail latencies read the scheduler. A shard waits while its batch
/// runs here, so one worker keeps the threads at work within the 4 cores.
util::ThreadPool& engine_pool() {
  static util::ThreadPool pool(1);
  return pool;
}

void start_fleet(World& w) {
  svc::Config config;
  config.fleet.shards = kShards;
  config.engine.pool = &engine_pool();
  w.fleet = std::make_unique<svc::Fleet>(config);
  submit_all(*w.fleet, w.graphs.size(), [&](std::size_t t) {
    svc::Request req;
    req.tenant = static_cast<svc::TenantId>(t);
    req.op = svc::CreateTenantOp{w.graphs[t], w.ap[t], nullptr};
    return req;
  });
  submit_all(*w.fleet, w.warmup.size(),
             [&](std::size_t i) { return to_request(w.warmup[i], w); });
}

// ---------------------------------------------------------------------------
// fleet_zipf inputs
// ---------------------------------------------------------------------------

constexpr std::size_t kZipfTenants = 1000;
constexpr std::size_t kZipfNodes = 20;

World setup_zipf(std::uint64_t seed) {
  World w;
  for (std::size_t t = 0; t < kZipfTenants; ++t) {
    // fleet_soak's generator: G(20, 0.3), node costs in [0.5, 9].
    w.graphs.push_back(
        graph::make_erdos_renyi(kZipfNodes, 0.3, 0.5, 9.0, mix(seed, t)));
    w.ap.push_back(0);
    std::vector<NodeId> sources;
    for (NodeId s = 1; s < kZipfNodes; ++s) sources.push_back(s);
    for (const NodeId s : sources) {
      w.warmup.push_back({OpKind::kQuote, svc::Priority::kInteractive,
                          static_cast<svc::TenantId>(t), s,
                          graph::kInvalidNode, 0.0});
    }
    w.sweep_pool.push_back(std::move(sources));
  }
  // A sweep prices every source of one tenant.
  w.sweep_size = kZipfNodes - 1;
  start_fleet(w);
  return w;
}

/// Zipf(s) over tenant ids, id == rank (low ids hot), as fleet_soak.
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
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(),
                                     rng.next_double());
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// fleet_zipf's request stream: Zipf(1.1) quote tenants, 10% declares
/// uniform over tenants, 50/50 interactive/batch, 25% pair quotes.
/// Sweeps go to a uniform tenant: almost every tenant is cold, so a sweep
/// prices (nearly) all its sources afresh. A Zipf-drawn sweep tenant is hot
/// or cold by chance, and the median of that two-humped mix jumped between
/// the humps from seed to seed.
class ZipfStream {
 public:
  ZipfStream(std::uint64_t seed, const World& /*w*/)
      : rng_(mix(seed, 0x21bf)), zipf_(kZipfTenants, 1.1) {}

  Op next() {
    Op op;
    if (++count_ % kZipfSpec.sweep_every == 0) {
      op.kind = OpKind::kSweep;
      op.priority = svc::Priority::kBatch;
      op.tenant = static_cast<svc::TenantId>(rng_.next_below(kZipfTenants));
      return op;
    }
    op.priority = rng_.bernoulli(0.5) ? svc::Priority::kInteractive
                                      : svc::Priority::kBatch;
    if (rng_.bernoulli(0.10)) {
      op.kind = OpKind::kDeclare;
      op.tenant = static_cast<svc::TenantId>(rng_.next_below(kZipfTenants));
      op.a = static_cast<NodeId>(1 + rng_.next_below(kZipfNodes - 1));
      op.cost = rng_.uniform(0.5, 12.0);
      return op;
    }
    op.tenant = static_cast<svc::TenantId>(zipf_.sample(rng_));
    op.a = static_cast<NodeId>(1 + rng_.next_below(kZipfNodes - 1));
    if (rng_.bernoulli(0.25)) {
      auto target = static_cast<NodeId>(rng_.next_below(kZipfNodes));
      if (target == op.a) target = 0;
      op.b = target;
    }
    return op;
  }

 private:
  util::Rng rng_;
  ZipfSampler zipf_;
  std::size_t count_ = 0;
};

// ---------------------------------------------------------------------------
// engine_churn inputs
// ---------------------------------------------------------------------------

constexpr std::size_t kChurnTenants = 4;
constexpr std::size_t kChurnNodes = 1024;
constexpr std::size_t kChurnHot = 16;
/// Sources per price-sheet sweep, drawn from outside the hot set so that a
/// sweep always prices cold. Over the hot set a sweep was all hits or one
/// to sixteen misses by chance, and its median fell anywhere in between.
constexpr std::size_t kChurnSweepSize = 4;

/// The node nearest the middle of the deployment. With the generator's
/// node 0 (a uniform position) as access point, a corner AP doubles every
/// route and swings the whole workload by ±15% from seed to seed.
NodeId central_node(const graph::NodeGraph& g, double side) {
  NodeId best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double dx = g.position(v).x - side / 2;
    const double dy = g.position(v).y - side / 2;
    if (dx * dx + dy * dy < best_d2) {
      best_d2 = dx * dx + dy * dy;
      best = v;
    }
  }
  return best;
}

World setup_churn(std::uint64_t seed) {
  World w;
  for (std::size_t t = 0; t < kChurnTenants; ++t) {
    graph::UdgParams params;
    params.n = kChurnNodes;
    // The paper's n=300-in-2000 m density, scaled with n (redeclare_churn).
    const double side =
        2000.0 * std::sqrt(static_cast<double>(kChurnNodes) / 300.0);
    params.region = {side, side};
    params.range_m = 300.0;
    w.graphs.push_back(
        graph::make_unit_disk_node(params, 1.0, 10.0, mix(seed, 100 + t)));
    w.ap.push_back(central_node(w.graphs.back(), side));
    util::Rng rng(mix(seed, 200 + t));
    std::vector<NodeId> hot;
    while (hot.size() < kChurnHot) {
      const auto v = static_cast<NodeId>(rng.next_below(kChurnNodes));
      if (v != w.ap.back() &&
          std::find(hot.begin(), hot.end(), v) == hot.end()) {
        hot.push_back(v);
      }
    }
    for (const NodeId s : hot) {
      w.warmup.push_back({OpKind::kQuote, svc::Priority::kInteractive,
                          static_cast<svc::TenantId>(t), s,
                          graph::kInvalidNode, 0.0});
    }
    std::vector<NodeId> pool;
    for (NodeId v = 0; v < kChurnNodes; ++v) {
      if (v != w.ap.back() && std::find(hot.begin(), hot.end(), v) == hot.end()) {
        pool.push_back(v);
      }
    }
    rng.shuffle(pool);
    w.sweep_pool.push_back(std::move(pool));
    w.hot.push_back(std::move(hot));
  }
  w.sweep_size = kChurnSweepSize;
  start_fleet(w);
  return w;
}

/// engine_churn's request stream: uniform tenants, quotes from each
/// tenant's hot set, 10% declares (7/8 re-bid ×[0.9, 1.12] around the
/// current declaration, clamped to [0.5, 15]; 1/8 re-draw in [0.5, 12]).
class ChurnStream {
 public:
  ChurnStream(std::uint64_t seed, const World& w)
      : rng_(mix(seed, 0xc4a47)), w_(&w) {
    for (const auto& g : w.graphs) declared_.push_back(g.costs());
  }

  Op next() {
    Op op;
    op.tenant = static_cast<svc::TenantId>(rng_.next_below(kChurnTenants));
    if (++count_ % kChurnSpec.sweep_every == 0) {
      op.kind = OpKind::kSweep;
      op.priority = svc::Priority::kBatch;
      op.a = static_cast<NodeId>(
          rng_.next_below(w_->sweep_pool[op.tenant].size()));
      return op;
    }
    if (rng_.bernoulli(0.10)) {
      op.kind = OpKind::kDeclare;
      op.a = static_cast<NodeId>(1 + rng_.next_below(kChurnNodes - 1));
      Cost& current = declared_[op.tenant][op.a];
      if (rng_.bernoulli(0.125)) {
        op.cost = rng_.uniform(0.5, 12.0);
      } else {
        op.cost = std::clamp(current * rng_.uniform(0.9, 1.12), Cost{0.5},
                             Cost{15.0});
      }
      current = op.cost;
      return op;
    }
    const auto& hot = w_->hot[op.tenant];
    op.a = hot[rng_.next_below(hot.size())];
    return op;
  }

 private:
  util::Rng rng_;
  const World* w_;
  std::vector<std::vector<Cost>> declared_;
  std::size_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

/// Lowers this thread's timer slack so sleeps end close to their due time
/// (the default 50 µs slack would be a schedule error by itself).
class TimerSlack {
 public:
  TimerSlack() : saved_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~TimerSlack() {
    if (saved_ > 0) {
      prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved_), 0, 0, 0);
    }
  }
  TimerSlack(const TimerSlack&) = delete;
  TimerSlack& operator=(const TimerSlack&) = delete;

 private:
  int saved_;
};

void sleep_until_ns(std::int64_t due_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(due_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

bool gate_sampled(const Spec& spec, std::size_t j, const Record& r) {
  return r.op.kind != OpKind::kDeclare && j % spec.gate_stride == 0;
}

/// Folds an answer and the epoch it was priced under into one digest.
std::uint64_t answer_digest(
    std::uint64_t epoch, const std::optional<core::PaymentResult>& quote,
    const std::vector<std::optional<core::PaymentResult>>& quotes) {
  std::uint64_t h = digest(digest(kDigestBasis, epoch), quote);
  for (const auto& q : quotes) h = digest(h, q);
  return h;
}

/// Samples the process CPU clock at every segment boundary `now` has
/// passed (the load thread calls this at each wake).
void poll_cpu(Live& live, std::int64_t now) {
  while (live.cpu_at.size() <= live.segments &&
         now >= live.t0_ns + static_cast<std::int64_t>(live.cpu_at.size()) *
                                 1'000'000'000) {
    live.cpu_at.push_back(process_cpu_s());
  }
}

/// Stores one response into its record (and the gate digest / spans).
void absorb(const Spec& spec, Live& live, std::size_t j, svc::Response resp,
            Tracer& tracer) {
  Record& r = live.records[j];
  r.status = resp.status;
  r.latency_us = resp.latency_us;
  r.epoch = resp.epoch;
  if (resp.ok() && gate_sampled(spec, j, r)) {
    if (live.tamper_pending && tamper_quote(resp.quote)) {
      live.tamper_pending = false;
    }
    r.digest = answer_digest(resp.epoch, resp.quote, resp.quotes);
  }
  if (tracer.on()) {
    const std::int64_t done = r.completion_ns();
    r.span = tracer.add(SpanName::kRequest, j, 0, r.due_ns, done);
    tracer.add(SpanName::kGenLag, j, r.span, r.due_ns, r.submit_ns);
    tracer.add(SpanName::kFleetSubmit, j, r.span, r.submit_ns, r.returned_ns);
    tracer.add(SpanName::kFleetService, j, r.span, r.submit_ns, done);
  }
}

/// Open loop: request i is due at t0 + (i rounded down to a multiple of
/// the burst) / rate. The generator sleeps to the next due time, sends
/// every request due by then, and never spins. After sending it takes in
/// the responses that are already resolved, in
/// submission order, without blocking; a response's time is the fleet's
/// completion stamp, so when it is taken in does not matter. No collector
/// thread: the generator and the 3 shard workers are all the load there is.
template <class Stream>
Live run_open_loop(const Spec& spec, World& w, Stream& stream,
                   const Options& opts, Tracer& tracer) {
  const auto total = static_cast<std::size_t>(opts.seconds * spec.rate_per_s);
  const double period_ns = 1e9 / spec.rate_per_s;
  Live live;
  live.tamper_pending = opts.tamper;
  live.segments =
      static_cast<std::size_t>(std::max(1.0, std::floor(opts.seconds)));
  live.records.resize(total);
  for (Record& r : live.records) r.op = stream.next();
  std::vector<std::future<svc::Response>> futures(total);

  live.before = w.fleet->metrics();
  live.t0_ns = now_ns() + 1'000'000;
  const auto due_of = [&](std::size_t i) {
    const std::size_t tick = i / spec.burst * spec.burst;
    return live.t0_ns +
           static_cast<std::int64_t>(static_cast<double>(tick) * period_ns);
  };

  std::size_t taken = 0;  // responses absorbed so far
  {
    TimerSlack slack;
    const bool traced = tracer.on();
    std::size_t i = 0;
    while (i < total) {
      const std::int64_t next_due = due_of(i);
      if (now_ns() < next_due) sleep_until_ns(next_due);
      const std::int64_t now = now_ns();
      poll_cpu(live, now);
      for (; i < total && due_of(i) <= now; ++i) {
        Record& r = live.records[i];
        r.due_ns = due_of(i);
        r.submit_ns = now_ns();
        futures[i] = w.fleet->submit(to_request(r.op, w));
        if (traced) r.returned_ns = now_ns();
      }
      while (taken < i && futures[taken].wait_for(std::chrono::seconds(0)) ==
                              std::future_status::ready) {
        absorb(spec, live, taken, futures[taken].get(), tracer);
        ++taken;
      }
    }
  }
  for (; taken < total; ++taken) {
    absorb(spec, live, taken, futures[taken].get(), tracer);
  }
  poll_cpu(live, std::numeric_limits<std::int64_t>::max());
  live.after = w.fleet->metrics();
  return live;
}

/// Closed loop: `spec.window` requests in flight; the oldest is retired
/// before the next is sent. Runs on the calling thread. The record array
/// is allocated and touched up front for kMaxClosedRate requests per
/// second, so peak_rss_mb does not follow the run's throughput; a run
/// that fills it ends early.
constexpr double kMaxClosedRate = 50000.0;

template <class Stream>
Live run_closed_loop(const Spec& spec, World& w, Stream& stream,
                     const Options& opts, Tracer& tracer) {
  Live live;
  live.tamper_pending = opts.tamper;
  live.segments =
      static_cast<std::size_t>(std::max(1.0, std::floor(opts.seconds)));
  live.records.resize(
      static_cast<std::size_t>(opts.seconds * kMaxClosedRate));
  std::vector<std::future<svc::Response>> window(spec.window);

  live.before = w.fleet->metrics();
  live.t0_ns = now_ns();
  const std::int64_t end_ns =
      live.t0_ns + static_cast<std::int64_t>(opts.seconds * 1e9);
  std::size_t head = 0;
  std::size_t sent = 0;
  while (true) {
    if (sent - head == spec.window) {
      absorb(spec, live, head, window[head % spec.window].get(), tracer);
      ++head;
      continue;
    }
    const std::int64_t now = now_ns();
    poll_cpu(live, now);
    if (now >= end_ns || sent == live.records.size()) break;
    Record& r = live.records[sent];
    r.op = stream.next();
    r.submit_ns = now_ns();
    r.due_ns = r.submit_ns;
    window[sent % spec.window] = w.fleet->submit(to_request(r.op, w));
    if (tracer.on()) r.returned_ns = now_ns();
    ++sent;
  }
  for (; head < sent; ++head) {
    absorb(spec, live, head, window[head % spec.window].get(), tracer);
  }
  live.records.resize(sent);
  poll_cpu(live, std::numeric_limits<std::int64_t>::max());
  live.after = w.fleet->metrics();
  return live;
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

std::string describe(std::size_t j, const Op& op) {
  const char* kind = op.kind == OpKind::kQuote     ? "quote"
                     : op.kind == OpKind::kDeclare ? "declare"
                                                   : "sweep";
  return "request " + std::to_string(j) + " (" + kind + ", tenant " +
         std::to_string(op.tenant) + ")";
}

/// Replays every accepted declare, per tenant in submission order, into a
/// conservative oracle; every gate-sampled answer's digest must equal the
/// digest of the oracle's answer at the same point of the stream (same
/// route, payments and epoch), and so must three probe quotes per tenant
/// sent through the fleet afterwards.
void gate_fleet(const Spec& spec, const Options& opts, World& w, Live& live) {
  if (opts.tamper && live.tamper_pending) {
    throw RunRefused("--tamper found no route to corrupt");
  }
  std::vector<std::unique_ptr<svc::QuoteEngine>> oracles(w.graphs.size());
  const auto oracle = [&](svc::TenantId t) -> svc::QuoteEngine& {
    if (!oracles[t]) {
      oracles[t] = std::make_unique<svc::QuoteEngine>(
          w.graphs[t], w.ap[t], nullptr, oracle_config());
    }
    return *oracles[t];
  };
  const auto fail = [&](std::size_t j, const Op& op, const std::string& why) {
    throw GateFailure(describe(j, op) + ": " + why);
  };

  std::vector<std::optional<core::PaymentResult>> sweep;
  for (std::size_t j = 0; j < live.records.size(); ++j) {
    const Record& r = live.records[j];
    // A refused request never reached an engine; the fleet's contract is
    // that a refused declare is not applied.
    if (r.status != svc::Status::kOk) continue;
    svc::QuoteEngine& o = oracle(r.op.tenant);
    if (r.op.kind == OpKind::kDeclare) {
      const std::uint64_t epoch = o.declare_cost(r.op.a, r.op.cost);
      if (epoch != r.epoch) {
        fail(j, r.op, "answered epoch " + std::to_string(r.epoch) +
                          ", oracle " + std::to_string(epoch));
      }
      continue;
    }
    if (!gate_sampled(spec, j, r)) continue;
    std::optional<core::PaymentResult> want;
    sweep.clear();
    if (r.op.kind == OpKind::kQuote) {
      want = r.op.b == graph::kInvalidNode ? o.quote(r.op.a)
                                           : o.quote(r.op.a, r.op.b);
    } else {
      for (const auto& [s, t] : sweep_pairs(r.op, w)) {
        sweep.push_back(o.quote(s, t));
      }
    }
    if (answer_digest(o.epoch(), want, sweep) != r.digest) {
      fail(j, r.op,
           "served answer (epoch " + std::to_string(r.epoch) +
               ") differs from the oracle's (epoch " +
               std::to_string(o.epoch()) + ")");
    }
  }

  for (std::size_t t = 0; t < w.graphs.size(); ++t) {
    svc::QuoteEngine& o = oracle(static_cast<svc::TenantId>(t));
    const auto n = static_cast<NodeId>(w.graphs[t].num_nodes());
    for (NodeId source : {NodeId{1}, static_cast<NodeId>(n / 2),
                          static_cast<NodeId>(n - 1)}) {
      if (source == w.ap[t]) source = (source + 1) % n;
      svc::Request req;
      req.tenant = static_cast<svc::TenantId>(t);
      req.op = svc::QuoteOp{source, graph::kInvalidNode};
      const svc::Response got = w.fleet->call(std::move(req));
      const std::string d =
          got.ok() ? diff_quote(got.quote, got.epoch, o.quote(source),
                                o.epoch())
                   : std::string("probe refused: ") + svc::to_string(got.status);
      if (!d.empty()) {
        throw GateFailure("final probe tenant " + std::to_string(t) +
                          " source " + std::to_string(source) + ": " + d);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-layer replay (traced runs)
// ---------------------------------------------------------------------------

/// Sums the engine counters the per-layer metrics use.
struct EngineCounters {
  double hits = 0, misses = 0, evicted = 0, retained = 0, warm_priced = 0,
         warm_fallbacks = 0, rebases = 0;

  void add(const svc::MetricsSnapshot& m, double sign) {
    hits += sign * static_cast<double>(m.cache_hits);
    misses += sign * static_cast<double>(m.cache_misses);
    evicted += sign * static_cast<double>(m.quotes_evicted);
    retained += sign * static_cast<double>(m.quotes_retained);
    warm_priced += sign * static_cast<double>(m.warm_priced);
    warm_fallbacks += sign * static_cast<double>(m.warm_fallbacks);
    rebases += sign * static_cast<double>(m.snapshot_rebases);
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Times one call into each lower layer for a sampled quote, as children
/// of the replayed engine span `parent`.
void time_layers(const svc::QuoteEngine& engine, NodeId s, NodeId t,
                 std::uint64_t request, std::uint32_t parent,
                 spath::DijkstraWorkspace& ws, Tracer& tracer) {
  const auto snap = engine.snapshot();
  const graph::NodeGraph& g = snap->node();  // materialize before timing
  std::int64_t a = now_ns();
  spath::dijkstra_node_into(ws, g, s);
  tracer.add(SpanName::kSpathDijkstra, request, parent, a, now_ns());
  spath::SptResult spt_s = ws.to_result();
  a = now_ns();
  spath::dijkstra_node_into(ws, g, t);
  tracer.add(SpanName::kSpathDijkstra, request, parent, a, now_ns());
  spath::SptResult spt_t = ws.to_result();

  a = now_ns();
  (void)engine.pricer().price(*snap, s, t);
  tracer.add(SpanName::kPricerPrice, request, parent, a, now_ns());
  a = now_ns();
  (void)engine.pricer().price_with_spts(*snap, s, t, std::move(spt_s),
                                        std::move(spt_t));
  tracer.add(SpanName::kPricerPriceWithSpts, request, parent, a, now_ns());
  a = now_ns();
  (void)core::vcg_payments_fast(g, s, t);
  tracer.add(SpanName::kCoreVcgFast, request, parent, a, now_ns());
}

/// Replays each tenant's accepted op stream, in submission order, into a
/// standalone QuoteEngine with the fleet's EngineConfig, timing every
/// engine call and, for a sample of quotes, the layers beneath it.
void replay_layers(World& w, const Live& live, Tracer& tracer,
                   PhaseResult& out) {
  const svc::EngineConfig config = w.fleet->config().engine;
  std::vector<std::unique_ptr<svc::QuoteEngine>> engines;
  for (std::size_t t = 0; t < w.graphs.size(); ++t) {
    engines.push_back(std::make_unique<svc::QuoteEngine>(w.graphs[t], w.ap[t],
                                                         nullptr, config));
  }
  for (const Op& op : w.warmup) (void)engines[op.tenant]->quote(op.a);
  EngineCounters counters;
  for (const auto& e : engines) counters.add(e->metrics(), -1.0);

  std::size_t quotes = 0;
  for (const Record& r : live.records) {
    if (r.status == svc::Status::kOk && r.op.kind == OpKind::kQuote) ++quotes;
  }
  const std::size_t stride = std::max<std::size_t>(1, quotes / kMaxLayerSamples);
  spath::DijkstraWorkspace ws;
  std::size_t seen = 0;
  for (std::size_t j = 0; j < live.records.size(); ++j) {
    const Record& r = live.records[j];
    if (r.status != svc::Status::kOk) continue;
    svc::QuoteEngine& e = *engines[r.op.tenant];
    const std::int64_t a = now_ns();
    switch (r.op.kind) {
      case OpKind::kQuote: {
        if (r.op.b == graph::kInvalidNode) {
          (void)e.quote(r.op.a);
        } else {
          (void)e.quote(r.op.a, r.op.b);
        }
        const std::uint32_t span =
            tracer.add(SpanName::kEngineQuote, j, r.span, a, now_ns());
        if (seen++ % stride == 0) {
          const NodeId t = r.op.b == graph::kInvalidNode ? e.access_point()
                                                         : r.op.b;
          time_layers(e, r.op.a, t, j, span, ws, tracer);
        }
        break;
      }
      case OpKind::kDeclare:
        (void)e.declare_cost(r.op.a, r.op.cost);
        tracer.add(SpanName::kEngineDeclare, j, r.span, a, now_ns());
        break;
      case OpKind::kSweep: {
        const auto pairs = sweep_pairs(r.op, w);
        const std::int64_t b = now_ns();
        (void)e.quote_batch(pairs);
        tracer.add(SpanName::kEngineQuoteBatch, j, r.span, b, now_ns());
        break;
      }
    }
  }
  for (const auto& e : engines) counters.add(e->metrics(), 1.0);

  // One multi-root solve over every node of (up to 16) final graphs.
  spath::SptMatrix matrix;
  for (std::size_t t = 0; t < engines.size() && t < 16; ++t) {
    const auto snap = engines[t]->snapshot();
    const graph::NodeGraph& g = snap->node();
    std::vector<NodeId> roots(g.num_nodes());
    for (NodeId v = 0; v < roots.size(); ++v) roots[v] = v;
    const std::int64_t a = now_ns();
    spath::spt_multi_into(ws, matrix, g, roots);
    tracer.add(SpanName::kSpathSptMulti, t, 0, a, now_ns());
  }

  const auto layer = [&](const char* name, double value, const char* unit,
                         std::size_t samples) {
    out.layer.push_back({name, value, unit, samples});
  };
  const auto us = [&](const char* name, SpanName span, double p) {
    const Samples s = tracer.durations_us(span);
    layer(name, s.pct(p), "us", s.count());
  };
  const Samples engine_quote = tracer.durations_us(SpanName::kEngineQuote);
  us("quote_engine.quote_p50_us", SpanName::kEngineQuote, 50);
  us("quote_engine.quote_p99_us", SpanName::kEngineQuote, 99);
  us("quote_engine.declare_p50_us", SpanName::kEngineDeclare, 50);
  layer("quote_engine.hit_rate",
        ratio(counters.hits, counters.hits + counters.misses), "ratio", 0);
  layer("quote_engine.retained_frac",
        ratio(counters.retained, counters.retained + counters.evicted),
        "ratio", 0);
  layer("quote_engine.warm_priced_frac",
        ratio(counters.warm_priced, counters.misses), "ratio", 0);
  layer("quote_engine.warm_fallbacks", counters.warm_fallbacks, "count", 0);
  layer("quote_engine.snapshot_rebases", counters.rebases, "count", 0);
  us("pricer.price_p50_us", SpanName::kPricerPrice, 50);
  us("pricer.price_with_spts_p50_us", SpanName::kPricerPriceWithSpts, 50);
  us("core.vcg_payments_fast_p50_us", SpanName::kCoreVcgFast, 50);
  us("spath.dijkstra_node_into_p50_us", SpanName::kSpathDijkstra, 50);
  const Samples multi = tracer.durations_us(SpanName::kSpathSptMulti);
  layer("spath.spt_multi_into_ms", multi.median() / 1e3, "ms", multi.count());

  // Fleet self time: service time minus what the engine call costs.
  Samples service;
  for (const Record& r : live.records) {
    if (r.status == svc::Status::kOk && r.op.kind == OpKind::kQuote) {
      service.add(r.latency_us);
    }
  }
  layer("fleet.service_p50_us", service.median(), "us", service.count());
  layer("fleet.service_p99_us", service.pct(99), "us", service.count());
  layer("fleet.self_p50_us", service.median() - engine_quote.median(), "us",
        service.count());
  us("fleet.submit_p50_us", SpanName::kFleetSubmit, 50);
  const svc::FleetMetricsSnapshot& a = live.after;
  const svc::FleetMetricsSnapshot& b = live.before;
  const auto delta = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x - y);
  };
  layer("fleet.steal_runs", delta(a.stolen_runs, b.stolen_runs), "count", 0);
  layer("fleet.steal_requests", delta(a.stolen_requests, b.stolen_requests),
        "count", 0);
  layer("fleet.coalesced_frac",
        ratio(delta(a.coalesced_requests, b.coalesced_requests),
              delta(a.served, b.served)),
        "ratio", 0);
  layer("fleet.shed",
        delta(a.shed_queue_full + a.shed_watermark,
              b.shed_queue_full + b.shed_watermark),
        "count", 0);
  layer("fleet.expired", delta(a.expired, b.expired), "count", 0);
  layer("fleet.throttled", delta(a.throttled, b.throttled), "count", 0);
  out.notes.push_back(
      "quote_engine.* rows come from a single-threaded replay of each "
      "tenant's op stream into a standalone QuoteEngine; the replay does "
      "not coalesce");
}

// ---------------------------------------------------------------------------
// One phase
// ---------------------------------------------------------------------------

template <class Stream>
PhaseResult run_phase(const Spec& spec, World (*setup)(std::uint64_t),
                      const Options& opts, bool traced, int setups) {
  Samples setup_s;
  World w = timed_setups<World>(setups, setup_s,
                                [&] { return setup(opts.seed); });

  Tracer tracer(traced);
  Stream stream(opts.seed, w);
  Live live = spec.open_loop
                  ? run_open_loop(spec, w, stream, opts, tracer)
                  : run_closed_loop(spec, w, stream, opts, tracer);
  const double rss = peak_rss_mb();

  PhaseResult out;
  // The latency medians and the CPU per operation are taken per 1-second
  // segment of the run (requests by due time) and reported as the median
  // over segments: a host slowdown shorter than half the run moves the
  // segments it covers, not the figure.
  struct Segment {
    Samples quote_us, sweep_ms;
    std::uint64_t ok = 0;         ///< kOk requests due in the segment
    std::uint64_t completed = 0;  ///< kOk requests completed in it
  };
  std::vector<Segment> segments(live.segments);
  Samples quote_us, lag_us, tail_lag_us;
  std::uint64_t ok = 0, sweeps = 0;
  std::int64_t last_ns = live.t0_ns;
  std::vector<std::uint64_t> by_status(16, 0);
  const std::size_t tail_from = live.records.size() * 9 / 10;
  for (std::size_t j = 0; j < live.records.size(); ++j) {
    const Record& r = live.records[j];
    const double lag = static_cast<double>(r.submit_ns - r.due_ns) / 1e3;
    lag_us.add(lag);
    if (j >= tail_from) tail_lag_us.add(lag);
    if (r.status != svc::Status::kOk) {
      ++by_status[static_cast<std::size_t>(r.status)];
      continue;
    }
    ++ok;
    last_ns = std::max(last_ns, r.completion_ns());
    const auto k = static_cast<std::size_t>(
        std::max<std::int64_t>(0, r.due_ns - live.t0_ns) / 1'000'000'000);
    Segment& seg = segments[std::min(k, segments.size() - 1)];
    ++seg.ok;
    const auto done_k = static_cast<std::size_t>(
        (r.completion_ns() - live.t0_ns) / 1'000'000'000);
    if (done_k < segments.size()) ++segments[done_k].completed;
    switch (r.op.kind) {
      case OpKind::kQuote:
        quote_us.add(r.client_us());
        seg.quote_us.add(r.client_us());
        break;
      case OpKind::kDeclare:
        break;
      case OpKind::kSweep:
        ++sweeps;
        seg.sweep_ms.add(r.client_us() / 1e3);
        break;
    }
  }
  const auto segment_median = [&](Samples Segment::*field) {
    Samples medians;
    for (const Segment& seg : segments) {
      if ((seg.*field).count() != 0) medians.add((seg.*field).median());
    }
    return medians.median();
  };
  Samples cpu_us_per_op;
  for (std::size_t k = 0; k < segments.size(); ++k) {
    if (segments[k].ok != 0 && k + 1 < live.cpu_at.size()) {
      cpu_us_per_op.add((live.cpu_at[k + 1] - live.cpu_at[k]) * 1e6 /
                        static_cast<double>(segments[k].ok));
    }
  }
  out.attempted = live.records.size();
  out.failed = out.attempted - ok;
  for (std::size_t s = 1; s < by_status.size(); ++s) {
    if (by_status[s] != 0) {
      out.failures.emplace_back(svc::to_string(static_cast<svc::Status>(s)),
                                by_status[s]);
    }
  }
  if (spec.open_loop && tail_lag_us.median() > 1000.0) {
    throw RunRefused("the generator fell behind its schedule: median lag " +
                     fmt_double(tail_lag_us.median()) +
                     " us over the last 10% of the run");
  }
  if (ok == 0) throw RunRefused("no request completed");

  // quote_p99_us is the median over short windows of each window's p99.
  // Even an idle thread on a shared VM is descheduled for 2-12 ms several
  // times a second, and such a stall delays every request due during it.
  // The shorter the window, the fewer windows a stall touches, so the
  // median window reads the service, not the host. A window is as long as
  // it takes to hold kQuotesPerWindow quotes (about 11 ms on fleet_zipf);
  // its p99 lies between its second and third slowest quote.
  const double window_s =
      kQuotesPerWindow * opts.seconds /
      static_cast<double>(std::max<std::size_t>(1, quote_us.count()));
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(opts.seconds / window_s)));
  std::vector<Samples> window_quote_us(windows);
  for (const Record& r : live.records) {
    if (r.status != svc::Status::kOk || r.op.kind != OpKind::kQuote) continue;
    const auto k = static_cast<std::size_t>(
        static_cast<double>(r.due_ns - live.t0_ns) / 1e9 / window_s);
    window_quote_us[std::min(k, windows - 1)].add(r.client_us());
  }
  Samples window_p99;
  for (const Samples& w99 : window_quote_us) {
    if (w99.count() != 0) window_p99.add(w99.pct(99));
  }
  out.notes.push_back(
      "quote p99 over " + std::to_string(window_p99.count()) + " windows of " +
      fmt_double(std::round(window_s * 1e4) / 10) + " ms (us): min " +
      fmt_double(window_p99.pct(0)) +
      ", median " + fmt_double(window_p99.median()) + ", max " +
      fmt_double(window_p99.pct(100)) + "; whole-run p99 " +
      fmt_double(quote_us.pct(99)));
  // The closed loop's throughput is the median over segments of the
  // requests completed in each. The open loop completes its offered rate
  // unless requests fail, so per segment it would read the same integer
  // on every run; it reports completions over the whole run instead.
  Samples completed_per_s;
  for (const Segment& seg : segments) {
    completed_per_s.add(static_cast<double>(seg.completed));
  }
  const double ops_per_s =
      spec.open_loop
          ? static_cast<double>(ok) /
                (static_cast<double>(last_ns - live.t0_ns) / 1e9)
          : completed_per_s.median();
  out.e2e = {
      {"quote_p50_us", segment_median(&Segment::quote_us), "us",
       quote_us.count()},
      {"quote_p99_us", window_p99.median(), "us", quote_us.count()},
      {"ops_per_s", ops_per_s, "1/s", ok},
      {"sweep_p50_ms", segment_median(&Segment::sweep_ms), "ms", sweeps},
      {"cpu_us_per_op", cpu_us_per_op.median(), "us", ok},
      {"setup_s", setup_s.median(), "s", setup_s.count()},
      {"peak_rss_mb", rss, "MB", 1},
  };

  gate_fleet(spec, opts, w, live);

  if (traced) {
    out.layer.push_back({"gen.lag_p50_us", spec.open_loop ? lag_us.median() : 0.0,
                         "us", spec.open_loop ? lag_us.count() : 0});
    out.layer.push_back({"gen.lag_p99_us", spec.open_loop ? lag_us.pct(99) : 0.0,
                         "us", spec.open_loop ? lag_us.count() : 0});
    replay_layers(w, live, tracer, out);
    if (!opts.trace_dir.empty()) {
      const std::string path =
          opts.trace_dir + "/" + spec.name + ".spans.csv";
      if (!tracer.write_csv(path, live.t0_ns)) {
        out.notes.push_back("could not write " + path);
      } else {
        out.notes.push_back(std::to_string(tracer.size()) + " spans -> " +
                            path);
      }
    }
  }
  return out;
}

}  // namespace

PhaseResult run_fleet_zipf(const Options& opts, bool traced, int setups) {
  return run_phase<ZipfStream>(kZipfSpec, &setup_zipf, opts, traced, setups);
}

PhaseResult run_engine_churn(const Options& opts, bool traced, int setups) {
  return run_phase<ChurnStream>(kChurnSpec, &setup_churn, opts, traced,
                                setups);
}

}  // namespace pb
