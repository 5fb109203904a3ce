// Algorithm 1: fast VCG payment computation (paper Section III.B).
//
// Computes ||P_{-v_k}(s, t, d)|| for every relay v_k on the LCP in a single
// O(n log n + m) pass, instead of one Dijkstra per relay. Adapted from
// Hershberger-Suri's edge-weighted Vickrey payment algorithm to the
// node-weighted model, exactly as the paper describes:
//
//  1. Build SPT(s) and SPT(t); extract the LCP r_0..r_q and the labels
//     L(v) (relay cost s->v) and R(v) (relay cost v->t).
//  2. Assign every node a *level*: the index of the last LCP node on its
//     tree path to s in SPT(s). Removing r_l strands exactly the nodes of
//     level l (other than those hanging toward t).
//  3. For every off-path node v of level l, compute R^{-l}(v) =
//     ||P(v, t, G \ r_l)|| by a Dijkstra restricted to level l, seeded
//     from higher-level neighbors (whose full-graph distance R already
//     avoids r_l, by the paper's Lemma 2); Lemma 3 justifies never
//     stepping to a lower level.
//  4. c^{-l} = cheapest s->t path that crosses into a level-l node from a
//     lower-level neighbor and continues via R^{-l}.
//  5. A min-heap over "crossing" edges (a, b) with level(a) < l < level(b)
//     valued L(a)+c_a+c_b+R(b), swept from l = q-1 down to 1 with lazy
//     invalidation, yields the cheapest path that jumps over level l.
//     ||P_{-r_l}|| = min(heap top, c^{-l}).
//  6. p^{r_l} = ||P_{-r_l}|| - ||P|| + d_{r_l}.
//
// Steps 2-5 run on per-thread scratch that only grows: levels come from
// a memoized walk up the SPT(s) parents, one pass over the arcs collects
// the step-3 seeds, the step-4 terms and the step-5 crossing edges, and
// one indexed-heap Dijkstra settles every level's R^{-l} at once (levels
// never interact). The returned PaymentResult is the only allocation.
//
// Differential-tested against vcg_payments_naive on thousands of random
// instances (tests/core_fast_payment_test.cpp) and bit for bit against a
// frozen replica of the per-level implementation
// (tests/core_payment_differential_test.cpp).
#pragma once

#include "core/payment.hpp"
#include "graph/node_graph.hpp"
#include "spath/dijkstra.hpp"

namespace tc::core {

/// Computes the LCP and all VCG payments in O(n log n + m). Interprets the
/// graph's stored node costs as the declared vector d. Identical output to
/// vcg_payments_naive.
[[nodiscard]] PaymentResult vcg_payments_fast(const graph::NodeGraph& g,
                                              graph::NodeId source,
                                              graph::NodeId target);

/// As above, but additionally hands back the two shortest-path trees
/// step 1 builds anyway (non-null pointers are move-assigned). Callers
/// that need SPT(s)/SPT(t) alongside the payments — e.g. the serving
/// layer's invalidation certificates — avoid recomputing them. When the
/// target is unreachable only `spt_source_out` is produced.
[[nodiscard]] PaymentResult vcg_payments_fast(const graph::NodeGraph& g,
                                              graph::NodeId source,
                                              graph::NodeId target,
                                              spath::SptResult* spt_source_out,
                                              spath::SptResult* spt_target_out);

/// SPT-accepting overload: skips step 1 entirely by pricing from trees
/// the caller already holds — e.g. warm SPTs incrementally repaired by
/// spath::CostDelta after a re-declaration. `spt_source`/`spt_target`
/// must equal what dijkstra_node(g, source) / dijkstra_node(g, target)
/// would produce on `g` as passed (same dists and parents); this is the
/// caller's contract and is TC_DCHECK-audited via the payment invariants
/// in debug builds. Identical output to the from-scratch overloads.
[[nodiscard]] PaymentResult vcg_payments_fast(
    const graph::NodeGraph& g, graph::NodeId source, graph::NodeId target,
    const spath::SptResult& spt_source, const spath::SptResult& spt_target);

/// Internal structure exposed for testing: the level labelling of step 2.
/// levels[v] = index of the last LCP node on v's SPT(s) tree path; LCP
/// node r_l gets level l. Nodes unreachable from the source get
/// kInvalidLevel.
struct LevelLabels {
  static constexpr std::uint32_t kInvalidLevel = 0xffffffffu;
  std::vector<std::uint32_t> levels;
  std::vector<graph::NodeId> path;  ///< the LCP r_0..r_q
};

/// Computes the step-2 level labels (used by tests).
[[nodiscard]] LevelLabels compute_levels(const graph::NodeGraph& g,
                                         graph::NodeId source,
                                         graph::NodeId target);

}  // namespace tc::core
