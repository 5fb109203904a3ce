#include "svc/quote_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/check.hpp"

namespace tc::svc {

using graph::Cost;
using graph::kInfCost;
using graph::NodeId;

namespace {

constexpr std::size_t kDefaultShards = 16;

/// Keep iff the retained-decrease-adjusted through-bound strictly clears
/// vmax. Equality goes to eviction: recomputing a quote we could have
/// kept is sound; keeping one we should have dropped is not.
bool provably_unaffected(Cost thru_old, Cost thru_new, Cost decrease_slack,
                         Cost vmax) {
  const Cost guard = std::min(thru_old, thru_new) - decrease_slack;
  const Cost tol = 1e-9 * std::max(1.0, std::abs(vmax));
  return guard > vmax + tol;
}

double elapsed_us(std::chrono::steady_clock::time_point start) {
  const auto dt = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::micro>(dt).count();
}

}  // namespace

QuoteEngine::QuoteEngine(graph::NodeGraph topology, graph::NodeId access_point,
                         std::shared_ptr<const Pricer> pricer, Options options)
    : num_nodes_(topology.num_nodes()),
      access_point_(access_point),
      pricer_(pricer ? std::move(pricer) : make_node_vcg_pricer()),
      options_(options) {
  TC_CHECK_MSG(access_point_ < num_nodes_, "access point out of range");
  TC_CHECK_MSG(pricer_->model() == GraphModel::kNode,
               "node-graph engine needs a node-model pricer");
  // declare_cost's contract: NaN fails, +inf (a node that is down) passes.
  for (const Cost c : topology.costs()) {
    TC_CHECK_MSG(c >= 0.0, "topology node cost must be non-negative");
  }
  if (options_.shards == 0) options_.shards = kDefaultShards;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  rebase_cap_ = std::clamp<std::size_t>(num_nodes_ / 8, 16, 256);
  warm_pending_cap_ = std::max<std::size_t>(4 * num_nodes_, 1024);
  if (options_.warm_spt_cache && pricer_->accepts_warm_spts()) {
    // The warm repair graph starts as a private copy of the topology and
    // is kept in lockstep with the snapshot by replaying CostChanges.
    warm_ = std::make_unique<WarmState>(topology, 1);
  }
  snapshot_.store(
      std::make_shared<const ProfileSnapshot>(1, std::move(topology)));
}

QuoteEngine::QuoteEngine(graph::NodeGraph topology, graph::NodeId access_point,
                         std::shared_ptr<const Pricer> pricer)
    : QuoteEngine(std::move(topology), access_point, std::move(pricer),
                  Options{}) {}

QuoteEngine::QuoteEngine(graph::LinkGraph topology, graph::NodeId access_point,
                         std::shared_ptr<const Pricer> pricer, Options options)
    : num_nodes_(topology.num_nodes()),
      access_point_(access_point),
      pricer_(pricer ? std::move(pricer) : make_link_vcg_pricer()),
      options_(options) {
  TC_CHECK_MSG(access_point_ < num_nodes_, "access point out of range");
  TC_CHECK_MSG(pricer_->model() == GraphModel::kLink,
               "link-graph engine needs a link-model pricer");
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (const graph::Arc& arc : topology.out_arcs(u)) {
      TC_CHECK_MSG(arc.cost >= 0.0, "topology arc cost must be non-negative");
    }
  }
  if (options_.shards == 0) options_.shards = kDefaultShards;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  rebase_cap_ = std::clamp<std::size_t>(num_nodes_ / 8, 16, 256);
  warm_pending_cap_ = std::max<std::size_t>(4 * num_nodes_, 1024);
  // No warm SPT cache for link-model engines: CostDelta supports the link
  // model, but no link pricer accepts warm trees yet.
  snapshot_.store(
      std::make_shared<const ProfileSnapshot>(1, std::move(topology)));
}

QuoteEngine::QuoteEngine(graph::LinkGraph topology, graph::NodeId access_point,
                         std::shared_ptr<const Pricer> pricer)
    : QuoteEngine(std::move(topology), access_point, std::move(pricer),
                  Options{}) {}

std::shared_ptr<const ProfileSnapshot> QuoteEngine::snapshot() const {
  return snapshot_.load(std::memory_order_acquire);
}

void QuoteEngine::publish(std::shared_ptr<const ProfileSnapshot> snap) {
  const std::uint64_t epoch = snap->epoch();
  snapshot_.store(std::move(snap), std::memory_order_release);
  epoch_.store(epoch, std::memory_order_release);
  metrics_.record_declaration();
}

std::uint64_t QuoteEngine::declare_cost(NodeId v, Cost declared) {
  TC_CHECK_MSG(v < num_nodes_, "declaring node out of range");
  TC_CHECK_MSG(declared >= 0.0, "declared cost must be non-negative");
  TC_CHECK_MSG(pricer_->model() == GraphModel::kNode,
               "declare_cost is for node-model engines");
  util::MutexLock writer(writer_mutex_);
  const auto old_snap = snapshot_.load(std::memory_order_acquire);
  // Overlay-aware read: does not force the old snapshot to materialize.
  const Cost c_old = old_snap->node_cost(v);
  if (c_old == declared) return old_snap->epoch();
  const std::uint64_t new_epoch = old_snap->epoch() + 1;
  if (options_.cow_snapshots) {
    auto next = ProfileSnapshot::derive_node(*old_snap, new_epoch, v, declared,
                                             rebase_cap_);
    if (next->rebased()) metrics_.record_snapshot_rebase();
    publish(std::move(next));
  } else {
    // tc-lint: allow(svc-graph-copy) eager non-COW publish mode
    graph::NodeGraph g = old_snap->node();
    g.set_node_cost(v, declared);
    publish(std::make_shared<const ProfileSnapshot>(new_epoch, std::move(g)));
  }
  warm_note_change(new_epoch, v, c_old, declared);
  if (options_.incremental_invalidation) {
    sweep_node(v, c_old, declared, old_snap->epoch(), new_epoch);
  } else {
    full_flush_locked();
  }
  return new_epoch;
}

std::uint64_t QuoteEngine::declare_costs(const std::vector<Cost>& declared) {
  TC_CHECK_MSG(declared.size() == num_nodes_, "cost vector size mismatch");
  TC_CHECK_MSG(pricer_->model() == GraphModel::kNode,
               "declare_costs is for node-model engines");
  util::MutexLock writer(writer_mutex_);
  const auto old_snap = snapshot_.load(std::memory_order_acquire);
  // Bulk declarations rewrite the whole vector; an eager snapshot is the
  // right publish and the warm cache starts over.
  // tc-lint: allow(svc-graph-copy) bulk declaration snapshot construction
  graph::NodeGraph g = old_snap->node();
  for (NodeId v = 0; v < num_nodes_; ++v) {
    TC_CHECK_MSG(declared[v] >= 0.0, "declared cost must be non-negative");
    g.set_node_cost(v, declared[v]);
  }
  const std::uint64_t new_epoch = old_snap->epoch() + 1;
  publish(std::make_shared<const ProfileSnapshot>(new_epoch, std::move(g)));
  warm_poison();
  full_flush_locked();
  return new_epoch;
}

std::uint64_t QuoteEngine::declare_arc_cost(NodeId u, NodeId w, Cost declared) {
  TC_CHECK_MSG(u < num_nodes_ && w < num_nodes_, "arc endpoint out of range");
  TC_CHECK_MSG(declared >= 0.0, "declared cost must be non-negative");
  TC_CHECK_MSG(pricer_->model() == GraphModel::kLink,
               "declare_arc_cost is for link-model engines");
  util::MutexLock writer(writer_mutex_);
  const auto old_snap = snapshot_.load(std::memory_order_acquire);
  const Cost c_old = old_snap->arc_cost(u, w);
  TC_CHECK_MSG(graph::finite_cost(c_old), "declared arc does not exist");
  if (c_old == declared) return old_snap->epoch();
  const std::uint64_t new_epoch = old_snap->epoch() + 1;
  if (options_.cow_snapshots) {
    auto next = ProfileSnapshot::derive_link(*old_snap, new_epoch, u, w,
                                             declared, rebase_cap_);
    if (next->rebased()) metrics_.record_snapshot_rebase();
    publish(std::move(next));
  } else {
    // tc-lint: allow(svc-graph-copy) eager non-COW publish mode
    graph::LinkGraph g = old_snap->link();
    g.set_arc_cost(u, w, declared);
    publish(std::make_shared<const ProfileSnapshot>(new_epoch, std::move(g)));
  }
  if (options_.incremental_invalidation) {
    sweep_link(u, w, c_old, declared, old_snap->epoch(), new_epoch);
  } else {
    full_flush_locked();
  }
  return new_epoch;
}

Cost QuoteEngine::declared_cost(NodeId v) const {
  TC_CHECK_MSG(v < num_nodes_, "node out of range");
  const auto snap = snapshot_.load(std::memory_order_acquire);
  TC_CHECK_MSG(snap->model() == GraphModel::kNode,
               "declared_cost is for node-model engines");
  return snap->node_cost(v);
}

std::uint64_t QuoteEngine::mark_node_down(NodeId v) {
  TC_CHECK_MSG(v != access_point_,
               "the access point is infrastructure and cannot be down");
  return declare_cost(v, graph::kInfCost);
}

bool QuoteEngine::node_down(NodeId v) const {
  return !graph::finite_cost(declared_cost(v));
}

void QuoteEngine::sweep_node(NodeId v, Cost c_old, Cost c_new,
                             std::uint64_t old_epoch, std::uint64_t new_epoch) {
  const Cost delta = c_new - c_old;
  std::uint64_t evicted = 0;
  std::uint64_t retained = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    auto& entries = shard->entries;
    for (auto it = entries.begin(); it != entries.end();) {
      CacheEntry& e = it->second;
      if (e.epoch != old_epoch) {
        // Entries a reader already re-priced under the *new* snapshot
        // (between publish and this sweep) must not be touched; anything
        // older than old_epoch is leftover garbage.
        if (e.epoch < old_epoch) {
          it = entries.erase(it);
          ++evicted;
        } else {
          ++it;
        }
        continue;
      }
      const NodeId source = static_cast<NodeId>(it->first / num_nodes_);
      const NodeId target = static_cast<NodeId>(it->first % num_nodes_);
      bool keep = false;
      bool exact = false;  // true when the kept result is provably exact
                           // without consulting the thru bound
      if (!e.quote.result.connected()) {
        // Disconnection is topological; declarations cannot reconnect.
        keep = true;
        exact = true;
      } else if (v == source || v == target) {
        // Endpoint costs never enter node-weighted path values (paper
        // Section II.B), so the quote itself is invariant — though other
        // nodes' stored thru bounds may reference c_v via their L/R
        // legs, hence the decrease slack below still applies.
        keep = true;
        exact = true;
      } else if (!e.quote.deps.valid || e.quote.deps.thru.size() <= v) {
        keep = false;
      } else {
        const Cost thru_old = e.quote.deps.thru[v];
        if (!graph::finite_cost(thru_old)) {
          // v cannot reach both endpoints at all — on no s->t path ever.
          keep = true;
          exact = true;
        } else {
          keep = provably_unaffected(thru_old, thru_old + delta,
                                     e.decrease_slack, e.quote.deps.vmax);
        }
      }
      if (!keep) {
        it = entries.erase(it);
        ++evicted;
        continue;
      }
      e.epoch = new_epoch;
      e.quote.result.profile_version = new_epoch;
      if (!exact && e.quote.deps.valid && v < e.quote.deps.thru.size() &&
          graph::finite_cost(e.quote.deps.thru[v])) {
        // thru[v]'s interior term is c_v itself, so it tracks the new
        // declaration exactly relative to the stored L/R bounds.
        e.quote.deps.thru[v] += delta;
      }
      if (delta < 0.0) e.decrease_slack += -delta;
      ++retained;
      ++it;
    }
  }
  metrics_.record_evictions(evicted, retained);
}

void QuoteEngine::sweep_link(NodeId u, NodeId w, Cost c_old, Cost c_new,
                             std::uint64_t old_epoch, std::uint64_t new_epoch) {
  const Cost delta = c_new - c_old;
  std::uint64_t evicted = 0;
  std::uint64_t retained = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    auto& entries = shard->entries;
    for (auto it = entries.begin(); it != entries.end();) {
      CacheEntry& e = it->second;
      if (e.epoch != old_epoch) {
        if (e.epoch < old_epoch) {
          it = entries.erase(it);
          ++evicted;
        } else {
          ++it;
        }
        continue;
      }
      bool keep = false;
      if (!e.quote.result.connected()) {
        keep = true;
      } else if (!e.quote.deps.valid ||
                 e.quote.deps.dist_from_source.size() <= u ||
                 e.quote.deps.dist_to_target.size() <= w) {
        keep = false;
      } else {
        const Cost from = e.quote.deps.dist_from_source[u];
        const Cost to = e.quote.deps.dist_to_target[w];
        if (!graph::finite_cost(from) || !graph::finite_cost(to)) {
          // Arc u->w sits on no s->t walk at all.
          keep = true;
        } else {
          // Unlike the node sweep there is no stored per-arc term to
          // update: c_old comes from the snapshot each declaration, so
          // thru is always formed from the arc's current cost.
          const Cost thru_old = from + c_old + to;
          keep = provably_unaffected(thru_old, thru_old + delta,
                                     e.decrease_slack, e.quote.deps.vmax);
        }
      }
      if (!keep) {
        it = entries.erase(it);
        ++evicted;
        continue;
      }
      e.epoch = new_epoch;
      e.quote.result.profile_version = new_epoch;
      if (delta < 0.0) e.decrease_slack += -delta;
      ++retained;
      ++it;
    }
  }
  metrics_.record_evictions(evicted, retained);
}

void QuoteEngine::full_flush_locked() {
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mutex);
    shard->entries.clear();
  }
  metrics_.record_full_flush();
}

void QuoteEngine::flush_cache() {
  util::MutexLock writer(writer_mutex_);
  full_flush_locked();
}

std::optional<core::PaymentResult> QuoteEngine::quote(NodeId source) {
  TC_CHECK_MSG(source != access_point_,
               "the access point does not quote itself");
  return quote_impl(source, access_point_);
}

std::optional<core::PaymentResult> QuoteEngine::quote(NodeId source,
                                                      NodeId target) {
  return quote_impl(source, target);
}

std::uint64_t QuoteEngine::key_of(NodeId source, NodeId target) const {
  TC_CHECK_MSG(source < num_nodes_ && target < num_nodes_,
               "quote endpoint out of range");
  TC_CHECK_MSG(source != target, "source and target must differ");
  return static_cast<std::uint64_t>(source) * num_nodes_ + target;
}

bool QuoteEngine::serve_hit(std::uint64_t key, std::uint64_t epoch,
                            Clock::time_point start,
                            std::optional<core::PaymentResult>& out) {
  Shard& shard = *shards_[key % shards_.size()];
  {
    util::MutexLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end() || it->second.epoch != epoch) return false;
    const core::PaymentResult& result = it->second.quote.result;
    if (result.connected()) out = result;
  }
  metrics_.record_hit();
  metrics_.record_served(elapsed_us(start));
  return true;
}

std::optional<core::PaymentResult> QuoteEngine::install(
    std::uint64_t key, std::uint64_t epoch, PricedQuote priced,
    Clock::time_point start) {
  priced.result.profile_version = epoch;
  std::optional<core::PaymentResult> answer;
  if (priced.result.connected()) answer = priced.result;
  Shard& shard = *shards_[key % shards_.size()];
  {
    util::MutexLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      if (shard.entries.size() >= options_.max_entries_per_shard) {
        shard.entries.erase(shard.entries.begin());
      }
      shard.entries.emplace(key, CacheEntry{epoch, std::move(priced), 0.0});
    } else if (it->second.epoch < epoch) {
      it->second = CacheEntry{epoch, std::move(priced), 0.0};
    }
    // A concurrent reader already installed a same-or-newer entry: ours
    // is still a valid answer for *our* snapshot; just don't regress the
    // cache.
  }
  metrics_.record_miss();
  metrics_.record_served(elapsed_us(start));
  return answer;
}

bool QuoteEngine::try_hit(NodeId source, NodeId target,
                          std::optional<core::PaymentResult>& out,
                          std::uint64_t& epoch) {
  const std::uint64_t key = key_of(source, target);
  const auto start = Clock::now();
  epoch = epoch_.load(std::memory_order_acquire);
  return serve_hit(key, epoch, start, out);
}

std::optional<core::PaymentResult> QuoteEngine::quote_impl(NodeId source,
                                                           NodeId target) {
  const std::uint64_t key = key_of(source, target);
  const auto start = Clock::now();
  const auto snap = snapshot_.load(std::memory_order_acquire);
  std::optional<core::PaymentResult> answer;
  if (serve_hit(key, snap->epoch(), start, answer)) return answer;
  // Miss: price outside the shard lock against the frozen snapshot.
  return install(key, snap->epoch(), price_on_miss(*snap, source, target),
                 start);
}

PricedQuote QuoteEngine::price_on_miss(const ProfileSnapshot& snap,
                                       NodeId source, NodeId target) {
  if (warm_ != nullptr) {
    spath::SptResult spt_source;
    spath::SptResult spt_target;
    if (warm_spts(snap, source, target, spt_source, spt_target)) {
      metrics_.record_warm_priced();
      return pricer_->price_with_spts(snap, source, target, spt_source,
                                      spt_target);
    }
    metrics_.record_warm_fallback();
  }
  return pricer_->price(snap, source, target);
}

bool QuoteEngine::warm_spts(const ProfileSnapshot& snap, NodeId source,
                            NodeId target, spath::SptResult& spt_source,
                            spath::SptResult& spt_target) {
  WarmState& w = *warm_;
  util::MutexLock lock(w.mutex);
  if (w.poisoned) {
    // Rebuild in lockstep with this reader's snapshot: one cold copy,
    // after which replay resumes from snap's epoch.
    // tc-lint: allow(svc-graph-copy) warm-cache rebuild after poisoning
    w.graph = snap.node();
    w.graph_epoch = snap.epoch();
    w.pending.clear();
    w.roots.clear();
    w.poisoned = false;
    if (!w.refill.empty()) {
      // Re-warm the roots held at the poison in one batched multi-source
      // solve: the workspace stays hot across roots and each tree is
      // adopted bit-identical to what a lazy solve_node would produce.
      spath::spt_multi_into(w.ws, w.matrix, w.graph, w.refill);
      for (std::size_t i = 0; i < w.refill.size(); ++i) {
        WarmRoot& entry = w.roots[w.refill[i]];
        entry.delta.adopt_node(w.matrix.to_result(i));
        entry.last_used = ++w.tick;
        metrics_.record_warm_solve();
      }
      w.refill.clear();
    }
  }
  if (w.graph_epoch > snap.epoch()) {
    // Another reader already replayed past this reader's (older)
    // snapshot; repairs cannot run backwards.
    return false;
  }
  while (!w.pending.empty() && w.pending.front().new_epoch <= snap.epoch()) {
    const CostChange ch = w.pending.front();
    w.pending.pop_front();
    // CostDelta's contract: the graph holds the new cost, c_old rides
    // along. One replayed change repairs every warm root in O(affected).
    w.graph.set_node_cost(ch.v, ch.c_new);
    for (auto& [root, entry] : w.roots) {
      entry.delta.apply_node_cost(w.graph, ch.v, ch.c_old, w.ws);
    }
    metrics_.record_warm_repairs(w.roots.size());
    w.graph_epoch = ch.new_epoch;
  }
  if (w.graph_epoch != snap.epoch()) {
    // This reader's snapshot was published but its change record is not
    // appended yet (raced between publish and warm_note_change).
    return false;
  }
  for (const NodeId root : {source, target}) {
    WarmRoot& entry = w.roots[root];
    if (!entry.delta.solved()) {
      entry.delta.solve_node(w.graph, root, w.ws);
      metrics_.record_warm_solve();
    }
    entry.last_used = ++w.tick;
  }
  // LRU eviction; the access point and this quote's roots are pinned.
  while (w.roots.size() > options_.max_warm_spts) {
    auto victim = w.roots.end();
    for (auto it = w.roots.begin(); it != w.roots.end(); ++it) {
      if (it->first == access_point_ || it->first == source ||
          it->first == target) {
        continue;
      }
      if (victim == w.roots.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == w.roots.end()) break;
    w.roots.erase(victim);
  }
  spt_source = w.roots[source].delta.spt();
  spt_target = w.roots[target].delta.spt();
  return true;
}

void QuoteEngine::warm_note_change(std::uint64_t new_epoch, NodeId v,
                                   Cost c_old, Cost c_new) {
  if (warm_ == nullptr) return;
  WarmState& w = *warm_;
  util::MutexLock lock(w.mutex);
  if (w.poisoned) return;
  if (w.pending.size() >= warm_pending_cap_) {
    // Replay has fallen hopelessly behind the write rate; a rebuild from
    // the next reader's snapshot is cheaper than draining the log.
    w.poisoned = true;
    w.pending.clear();
    // Remember which roots were warm: the rebuild after this poison
    // re-solves them in one batched pass instead of lazily one-by-one.
    w.refill.clear();
    for (const auto& [root, entry] : w.roots) w.refill.push_back(root);
    std::sort(w.refill.begin(), w.refill.end());
    w.roots.clear();
    return;
  }
  w.pending.push_back(CostChange{new_epoch, v, c_old, c_new});
}

void QuoteEngine::warm_poison() {
  if (warm_ == nullptr) return;
  WarmState& w = *warm_;
  util::MutexLock lock(w.mutex);
  w.poisoned = true;
  w.pending.clear();
  w.refill.clear();
  for (const auto& [root, entry] : w.roots) w.refill.push_back(root);
  std::sort(w.refill.begin(), w.refill.end());
  w.roots.clear();
}

std::vector<std::optional<core::PaymentResult>> QuoteEngine::quote_all() {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (v != access_point_) pairs.emplace_back(v, access_point_);
  }
  auto answers = quote_batch(pairs);
  std::vector<std::optional<core::PaymentResult>> quotes(num_nodes_);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    quotes[pairs[i].first] = std::move(answers[i]);
  }
  return quotes;
}

std::vector<std::optional<core::PaymentResult>> QuoteEngine::quote_batch(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::vector<std::optional<core::PaymentResult>> quotes(pairs.size());
  util::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : util::default_pool();
  const auto snap = snapshot_.load(std::memory_order_acquire);
  if (snap->model() != GraphModel::kNode || !pricer_->accepts_warm_spts()) {
    pool.parallel_for(0, pairs.size(), [&](std::size_t i) {
      quotes[i] = quote_impl(pairs[i].first, pairs[i].second);
    });
    return quotes;
  }
  const auto start = Clock::now();
  // Serve cache hits against the frozen snapshot and collect the misses.
  // Pairs are visited in request order, so the miss list is deterministic.
  std::vector<std::size_t> miss;
  miss.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::uint64_t key = key_of(pairs[i].first, pairs[i].second);
    if (!serve_hit(key, snap->epoch(), start, quotes[i])) miss.push_back(i);
  }
  if (miss.empty()) return quotes;
  if (miss.size() < 2) {
    // One miss amortizes nothing; the scalar path still gets the warm
    // per-root SPT cache, which a cold solve would bypass.
    const std::size_t i = miss.front();
    quotes[i] = quote_impl(pairs[i].first, pairs[i].second);
    return quotes;
  }
  // Each distinct target tree is solved once, on the calling thread
  // (which would otherwise only wait; the pool may serve several
  // engines), and then only read. Each miss's source tree is solved by
  // the worker that prices it, in that worker's own workspace, so the
  // pool solves and prices at its full width and no tree is copied per
  // miss.
  const graph::NodeGraph& g = snap->node();
  std::vector<NodeId> targets;
  targets.reserve(miss.size());
  for (const std::size_t i : miss) targets.push_back(pairs[i].second);
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  std::vector<spath::SptResult> target_trees;
  target_trees.reserve(targets.size());
  for (const NodeId target : targets) {
    spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
    spath::dijkstra_node_into(ws, g, target);
    target_trees.push_back(ws.to_result());
  }
  pool.parallel_for(0, miss.size(), [&](std::size_t m) {
    const std::size_t i = miss[m];
    const auto [source, target] = pairs[i];
    const auto j = static_cast<std::size_t>(
        std::lower_bound(targets.begin(), targets.end(), target) -
        targets.begin());
    spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
    spath::dijkstra_node_into(ws, g, source);
    quotes[i] = install(key_of(source, target), snap->epoch(),
                        pricer_->price_with_spts(*snap, source, target,
                                                 ws.to_result(),
                                                 target_trees[j]),
                        start);
  });
  return quotes;
}

bool QuoteEngine::monopoly_free() const {
  const auto snap = snapshot_.load(std::memory_order_acquire);
  return pricer_->monopoly_free(*snap);
}

}  // namespace tc::svc
