// Pricer: one interface over the paper's four payment engines
// (node/link model x plain/fast), plus the collusion-resistant p~ scheme,
// evaluated against immutable profile snapshots.
//
// A ProfileSnapshot (svc/snapshot.hpp) freezes one declaration epoch:
// topology plus the declared-cost vector, published copy-on-write.
// Snapshots are shared immutably between the QuoteEngine's readers, so
// pricing never races with re-declarations.
//
// Alongside the PaymentResult, a pricer returns a *dependency
// certificate* that lets the engine decide, for a later re-declaration at
// node v (or arc u->w), whether a cached quote is provably unaffected:
//
//   thru[v]  (node model)  = L(v) + d_v + R(v): a lower bound on the
//            cheapest source->target path routed through v, from the two
//            SPTs the engines already build. Any s->t path through v —
//            including every *relay-avoiding* replacement path the VCG
//            payments are made of — costs at least thru[v].
//   vmax     = the largest finite path value the quote depends on:
//            max(||P||, max_k ||P_{-v_k}||) recovered from the payment
//            identity p_k = ||P_{-v_k}|| - ||P|| + d_k.
//
// If min(thru_old, thru_new) > vmax (after slack accounting for earlier
// retained decreases, see quote_engine.cpp), node v lies on no optimal
// path or replacement path of this quote and cannot create a cheaper one,
// so the quote — path, cost, and every payment — is byte-identical under
// the new profile. This strictly refines the "evict when v is in
// path ∪ N(path)" rule: a far-away node on a replacement path (which that
// rule would wrongly keep) has thru[v] <= vmax and is evicted.
// The link model stores the two distance vectors instead, since
// declarations there are per-arc: thru(u->w) = Ls(u) + c(u,w) + Rt(w).
//
// An empty certificate (valid == false) makes the engine fall back to
// evicting the entry on every re-declaration — the conservative path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/payment.hpp"
#include "core/vcg_unicast.hpp"
#include "graph/link_graph.hpp"
#include "graph/node_graph.hpp"
#include "spath/dijkstra.hpp"
#include "svc/snapshot.hpp"

namespace tc::svc {

/// Dependency certificate for incremental invalidation (header comment).
struct QuoteDeps {
  bool valid = false;
  /// Node model: thru[v] = L(v) + d_v + R(v); kInfCost when v is on no
  /// finite s->t through-path.
  std::vector<graph::Cost> thru;
  /// Link model: dist_from_source[u] = ||P(s,u)||, dist_to_target[w] =
  /// ||P(w,t)|| (arc-cost sums), so thru(u->w) = from[u] + c + to[w].
  std::vector<graph::Cost> dist_from_source;
  std::vector<graph::Cost> dist_to_target;
  /// Largest finite path value the quote depends on; -kInfCost for
  /// disconnected quotes (structurally invariant: never evict).
  graph::Cost vmax = graph::kInfCost;
};

/// A priced quote plus its dependency certificate.
struct PricedQuote {
  core::PaymentResult result;
  QuoteDeps deps;
};

/// Strategy interface over the payment engines. Implementations are
/// stateless and safe to share across threads.
class Pricer {
 public:
  virtual ~Pricer() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual GraphModel model() const = 0;

  /// Prices (source, target) under `snap`'s declared profile. The
  /// snapshot's model must match model().
  [[nodiscard]] virtual PricedQuote price(const ProfileSnapshot& snap,
                                          graph::NodeId source,
                                          graph::NodeId target) const = 0;

  /// Whether `snap`'s topology guarantees no relay can demand an
  /// unbounded (kInfCost) payment under this scheme.
  [[nodiscard]] virtual bool monopoly_free(
      const ProfileSnapshot& snap) const = 0;

  /// Whether price_with_spts() actually uses caller-held trees (true for
  /// the node-model fast engine). When false, the engine's warm SPT cache
  /// gains nothing and skips this pricer.
  [[nodiscard]] virtual bool accepts_warm_spts() const { return false; }

  /// Prices from SPT(source)/SPT(target) the caller already holds — e.g.
  /// warm trees incrementally repaired by spath::CostDelta. The trees
  /// must equal what a from-scratch Dijkstra on `snap`'s graph would
  /// produce; output is identical to price(). The trees are only read,
  /// so concurrent calls may share one (a batch's common target tree).
  /// The default ignores the trees and delegates to price().
  [[nodiscard]] virtual PricedQuote price_with_spts(
      const ProfileSnapshot& snap, graph::NodeId source, graph::NodeId target,
      const spath::SptResult& spt_source,
      const spath::SptResult& spt_target) const;
};

/// Engine selector for the link-weighted pricers.
enum class LinkEngine {
  kNaive,  ///< per-relay masked Dijkstra (works on asymmetric arcs)
  kFast,   ///< Algorithm 1 adaptation; requires symmetric arc costs
};

/// Node-weighted VCG (Section III.A); plain or Algorithm 1 fast engine.
[[nodiscard]] std::shared_ptr<const Pricer> make_node_vcg_pricer(
    core::PaymentEngine engine = core::PaymentEngine::kFast);

/// Node-weighted neighbor-collusion-resistant p~ (Section III.E).
[[nodiscard]] std::shared_ptr<const Pricer> make_neighbor_resistant_pricer();

/// Link-weighted VCG (Section III.F); plain or fast symmetric engine.
[[nodiscard]] std::shared_ptr<const Pricer> make_link_vcg_pricer(
    LinkEngine engine = LinkEngine::kNaive);

}  // namespace tc::svc
