#include "core/fast_payment.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/audit_hooks.hpp"
#include "spath/heap.hpp"
#include "spath/workspace.hpp"
#include "util/check.hpp"

namespace tc::core {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

namespace {

/// Level of a node the step-2 walk has not reached yet.
constexpr std::uint32_t kUnlabelled = LevelLabels::kInvalidLevel - 1;
/// End of a crossing-edge bucket list.
constexpr std::uint32_t kNoEdge = 0xffffffffu;

/// Step-5 crossing edge (a, b): level(a) = alpha < l < level(b) for every
/// level l it jumps over. Bucketed by the first (highest) such level.
struct CrossEdge {
  Cost value;           // L(a) + c_a + c_b + R(b)
  std::uint32_t alpha;  // valid while alpha < l
  std::uint32_t next;   // next edge in the same bucket, or kNoEdge
};

/// Per-thread scratch of steps 2-5. Every buffer only grows, so a warm
/// thread prices a route with the returned PaymentResult as its only
/// allocation.
struct Scratch {
  std::vector<std::uint32_t> level;
  std::vector<NodeId> chain;          // step 2: unlabelled run of a path
  std::vector<NodeId> members;        // off-path nodes of levels 1..q-1
  std::vector<Cost> lower;            // per member: min L(u) + c_u, lower u
  std::vector<Cost> r_minus;          // R^{-l}(v), read only for members
  std::vector<Cost> c_minus;          // per level: step-4 candidate
  std::vector<CrossEdge> edges;       // step 5, chained per bucket
  std::vector<std::uint32_t> bucket;  // per level: first edge, or kNoEdge
  std::vector<CrossEdge> sweep;       // step-5 min-heap by value
  spath::QuadHeap heap{0};            // step-3 Dijkstra
};

Scratch& thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Step 2: level[v] = index of the last LCP node on v's SPT(s) tree path
/// (kInvalidLevel when unreachable). Each node's parent chain is walked
/// only up to its first labelled ancestor, whose level the whole run
/// inherits, so every node is labelled once: O(n), no children lists.
void label_levels(const spath::SptResult& sptS, std::span<const NodeId> path,
                  std::vector<std::uint32_t>& level,
                  std::vector<NodeId>& chain) {
  const std::size_t n = sptS.parent.size();
  level.assign(n, kUnlabelled);
  for (std::uint32_t l = 0; l < path.size(); ++l) level[path[l]] = l;
  for (NodeId v = 0; v < n; ++v) {
    NodeId u = v;
    while (u != kInvalidNode && level[u] == kUnlabelled) {
      chain.push_back(u);
      u = sptS.parent[u];
    }
    const std::uint32_t l =
        u == kInvalidNode ? LevelLabels::kInvalidLevel : level[u];
    for (const NodeId w : chain) level[w] = l;
    chain.clear();
  }
}

/// Steps 2-5 of Algorithm 1 given the two step-1 trees; requires
/// sptS.reached(target). Shared by the from-scratch overloads and the
/// SPT-accepting one.
///
/// Steps 3-5 read the arcs once. For an off-path node v of level l in
/// 1..q-1 (a "member"), that pass collects its step-3 seed
/// min_w c_w + R(w) over higher-level neighbours w and its step-4 term
/// min_u L(u) + c_u over lower-level neighbours u; every arc jumping two
/// or more levels is bucketed as a step-5 crossing edge. One Dijkstra
/// then settles R^{-l} for all members at once: relaxation never leaves
/// a level and seeds read only the full-graph R, so the levels do not
/// interact and the single run equals the per-level runs bit for bit.
/// Step 4 adds c_v + R^{-l}(v) to the collected minimum; round-to-nearest
/// addition is monotone in each operand, so that equals the minimum of
/// the per-neighbour sums bit for bit.
PaymentResult fast_payments_from_spts(const graph::NodeGraph& g, NodeId source,
                                      NodeId target,
                                      const spath::SptResult& sptS,
                                      const spath::SptResult& sptT) {
  const std::size_t n = g.num_nodes();

  PaymentResult result;
  result.payments.assign(n, 0.0);

  sptS.path_to_into(target, result.path);
  result.path_cost = sptS.dist[target];
  const std::size_t q = result.path.size() - 1;  // path r_0..r_q
  if (q < 2) {                                   // no relay nodes
    return result;
  }
  const std::vector<NodeId>& path = result.path;
  const auto top = static_cast<std::uint32_t>(q - 1);

  const std::vector<Cost>& L = sptS.dist;  // relay cost s -> v (excl. both)
  const std::vector<Cost>& R = sptT.dist;  // relay cost v -> t (excl. both)

  // Cost contribution of a node when it is interior on a candidate path;
  // the endpoints' own costs are excluded by the path-cost convention.
  auto interior_cost = [&](NodeId v) -> Cost {
    return (v == source || v == target) ? 0.0 : g.node_cost(v);
  };

  Scratch& s = thread_scratch();
  // --- Step 2: levels. -------------------------------------------------
  label_levels(sptS, path, s.level, s.chain);
  const std::vector<std::uint32_t>& level = s.level;

  // --- One pass over the arcs: step-3 seeds, step-4 lower minima,
  // step-5 crossing edges. ----------------------------------------------
  s.members.clear();
  s.lower.clear();
  s.edges.clear();
  s.bucket.assign(q, kNoEdge);
  if (s.r_minus.size() < n) s.r_minus.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t lv = level[v];
    if (lv == LevelLabels::kInvalidLevel) continue;  // unreachable
    const bool member = lv >= 1 && lv <= top && path[lv] != v;
    Cost seed = kInfCost;
    Cost lower = kInfCost;
    for (const NodeId w : g.neighbors(v)) {
      const std::uint32_t lw = level[w];
      if (lw == LevelLabels::kInvalidLevel || lw == lv) continue;
      if (member) {
        // Step 3 seeds: a higher-level neighbour's R already avoids r_l
        // (Lemma 2). Step 4: lower-level neighbours enter from s.
        if (lw > lv) {
          if (graph::finite_cost(R[w]))
            seed = std::min(seed, interior_cost(w) + R[w]);
        } else if (graph::finite_cost(L[w])) {
          lower = std::min(lower, L[w] + interior_cost(w));
        }
      }
      if (w < v) continue;  // step 5 takes each undirected edge once
      const NodeId a = lv < lw ? v : w;  // lower-level side (s side)
      const NodeId b = lv < lw ? w : v;  // higher-level side (t side)
      const std::uint32_t alpha = std::min(lv, lw);
      const std::uint32_t beta = std::max(lv, lw);
      if (beta < alpha + 2) continue;  // no integer level strictly between
      if (!graph::finite_cost(L[a]) || !graph::finite_cost(R[b])) continue;
      const std::uint32_t first_l = std::min(beta - 1, top);
      if (first_l < 1 || first_l <= alpha) continue;
      s.edges.push_back({L[a] + interior_cost(a) + interior_cost(b) + R[b],
                         alpha, s.bucket[first_l]});
      s.bucket[first_l] = static_cast<std::uint32_t>(s.edges.size() - 1);
    }
    if (member) {
      s.members.push_back(v);
      s.lower.push_back(lower);
      s.r_minus[v] = seed;
    }
  }

  // --- Step 3: R^{-l}(v) = ||P(v, t, G \ r_l)|| for every member, by one
  // Dijkstra confined to each member's own level (Lemma 3 lets us ignore
  // transitions to lower levels). ----------------------------------------
  spath::QuadHeap& heap = s.heap;
  heap.reset(n);
  for (const NodeId v : s.members) {
    const Cost seed = s.r_minus[v];
    if (graph::finite_cost(seed)) heap.push_or_decrease(v, seed);
  }
  while (!heap.empty()) {
    const auto [dv, v] = heap.pop_min();
    const std::uint32_t lv = level[v];
    const Cost through = g.node_cost(v) + dv;  // v is off-path: interior
    for (const NodeId w : g.neighbors(v)) {
      // Settled nodes fail the test on their own: through >= dv >= R^-(w).
      if (level[w] != lv || w == path[lv]) continue;
      if (through < s.r_minus[w]) {
        s.r_minus[w] = through;
        heap.push_or_decrease(w, through);
      }
    }
  }

  // --- Step 4: crossings s -> (level < l) -> v(level l) -> t. -----------
  s.c_minus.assign(q, kInfCost);
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    const NodeId v = s.members[i];
    if (!graph::finite_cost(s.r_minus[v])) continue;
    Cost& c = s.c_minus[level[v]];
    c = std::min(c, s.lower[i] + g.node_cost(v) + s.r_minus[v]);
  }

  // --- Step 5: crossing-edge heap, swept l = q-1 .. 1. ------------------
  const auto later = [](const CrossEdge& x, const CrossEdge& y) {
    return x.value > y.value;
  };
  s.sweep.clear();
  for (std::uint32_t l = top; l >= 1; --l) {
    for (std::uint32_t e = s.bucket[l]; e != kNoEdge; e = s.edges[e].next) {
      s.sweep.push_back(s.edges[e]);
      std::push_heap(s.sweep.begin(), s.sweep.end(), later);
    }
    // Lazy invalidation: an edge with alpha >= l can never become valid
    // again as l decreases.
    while (!s.sweep.empty() && s.sweep.front().alpha >= l) {
      std::pop_heap(s.sweep.begin(), s.sweep.end(), later);
      s.sweep.pop_back();
    }
    const Cost heap_cand = s.sweep.empty() ? kInfCost : s.sweep.front().value;
    const Cost avoid_cost = std::min(heap_cand, s.c_minus[l]);

    const NodeId r_l = path[l];
    result.payments[r_l] = graph::finite_cost(avoid_cost)
                               ? avoid_cost - result.path_cost +
                                     g.node_cost(r_l)
                               : kInfCost;
  }

  TC_DCHECK(internal::audit_ok(g, source, target, result));
  return result;
}

/// A step-1 tree, SPT(root), solved in the thread's workspace.
spath::SptResult solve_tree(const graph::NodeGraph& g, NodeId root) {
  spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
  spath::dijkstra_node_into(ws, g, root);
  return ws.to_result();
}

}  // namespace

LevelLabels compute_levels(const graph::NodeGraph& g, NodeId source,
                           NodeId target) {
  const spath::SptResult sptS = solve_tree(g, source);
  LevelLabels out;
  if (!sptS.reached(target)) {
    out.levels.assign(g.num_nodes(), LevelLabels::kInvalidLevel);
    return out;
  }
  sptS.path_to_into(target, out.path);
  std::vector<NodeId> chain;
  label_levels(sptS, out.path, out.levels, chain);
  return out;
}

PaymentResult vcg_payments_fast(const graph::NodeGraph& g, NodeId source,
                                NodeId target) {
  return vcg_payments_fast(g, source, target, nullptr, nullptr);
}

PaymentResult vcg_payments_fast(const graph::NodeGraph& g, NodeId source,
                                NodeId target,
                                spath::SptResult* spt_source_out,
                                spath::SptResult* spt_target_out) {
  TC_CHECK_MSG(source != target, "source and target must differ");

  // --- Step 1: SPTs and the LCP. -------------------------------------
  spath::SptResult sptS = solve_tree(g, source);
  if (!sptS.reached(target)) {
    PaymentResult result;
    result.payments.assign(g.num_nodes(), 0.0);
    if (spt_source_out != nullptr) *spt_source_out = std::move(sptS);
    return result;
  }
  spath::SptResult sptT = solve_tree(g, target);
  PaymentResult result =
      fast_payments_from_spts(g, source, target, sptS, sptT);
  if (spt_source_out != nullptr) *spt_source_out = std::move(sptS);
  if (spt_target_out != nullptr) *spt_target_out = std::move(sptT);
  return result;
}

PaymentResult vcg_payments_fast(const graph::NodeGraph& g, NodeId source,
                                NodeId target,
                                const spath::SptResult& spt_source,
                                const spath::SptResult& spt_target) {
  TC_CHECK_MSG(source != target, "source and target must differ");
  TC_DCHECK(spt_source.source == source && spt_source.dist.size() ==
                                               g.num_nodes());
  if (!spt_source.reached(target)) {
    PaymentResult result;
    result.payments.assign(g.num_nodes(), 0.0);
    return result;
  }
  TC_DCHECK(spt_target.source == target && spt_target.dist.size() ==
                                               g.num_nodes());
  return fast_payments_from_spts(g, source, target, spt_source, spt_target);
}

}  // namespace tc::core
