#include "svc/pricer.hpp"

#include <algorithm>

#include "core/fast_link_payment.hpp"
#include "core/fast_payment.hpp"
#include "core/link_vcg.hpp"
#include "core/neighbor_collusion.hpp"
#include "graph/connectivity.hpp"
#include "spath/dijkstra.hpp"
#include "spath/workspace.hpp"
#include "util/check.hpp"

namespace tc::svc {

using graph::Cost;
using graph::kInfCost;
using graph::NodeId;

PricedQuote Pricer::price_with_spts(
    const ProfileSnapshot& snap, NodeId source, NodeId target,
    const spath::SptResult& /*spt_source*/,
    const spath::SptResult& /*spt_target*/) const {
  return price(snap, source, target);
}

namespace {

/// vmax = largest finite path value `result` depends on, recovered from
/// the payment identities (header comment in pricer.hpp). Handles both
/// plain VCG (off-path payments zero) and the p~ option-value payments.
Cost recover_vmax(const core::PaymentResult& result,
                  const std::vector<Cost>& own_cost_on_path) {
  Cost vmax = result.path_cost;
  for (NodeId k = 0; k < result.payments.size(); ++k) {
    const Cost p = result.payments[k];
    if (p == 0.0 || !graph::finite_cost(p)) continue;  // inf = structural
    vmax = std::max(vmax, p - own_cost_on_path[k] + result.path_cost);
  }
  return vmax;
}

/// `spt_source`/`spt_target` reuse the SPTs an engine already built (may
/// be null, in which case they are recomputed here).
QuoteDeps node_certificate(const graph::NodeGraph& g, NodeId source,
                           NodeId target, const core::PaymentResult& result,
                           const spath::SptResult* spt_source = nullptr,
                           const spath::SptResult* spt_target = nullptr) {
  QuoteDeps deps;
  deps.valid = true;
  if (!result.connected()) {
    // Disconnection is topological: no re-declaration reconnects it.
    deps.vmax = -kInfCost;
    return deps;
  }
  // Recomputed SPTs go through the thread-local workspace: deps.thru
  // doubles as scratch for the source pass, so neither run allocates an
  // SptResult.
  const std::size_t n = g.num_nodes();
  deps.thru.resize(n);
  spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
  if (spt_source != nullptr) {
    std::copy(spt_source->dist.begin(), spt_source->dist.end(),
              deps.thru.begin());
  } else {
    spath::dijkstra_node_into(ws, g, source);
    for (NodeId v = 0; v < n; ++v) deps.thru[v] = ws.dist(v);
  }
  if (spt_target == nullptr) spath::dijkstra_node_into(ws, g, target);
  for (NodeId v = 0; v < n; ++v) {
    const Cost l = deps.thru[v];
    const Cost r = spt_target != nullptr ? spt_target->dist[v] : ws.dist(v);
    const Cost interior =
        (v == source || v == target) ? 0.0 : g.node_cost(v);
    deps.thru[v] = (graph::finite_cost(l) && graph::finite_cost(r))
                       ? l + interior + r
                       : kInfCost;
  }
  std::vector<Cost> own(n, 0.0);
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i) {
    own[result.path[i]] = g.node_cost(result.path[i]);
  }
  deps.vmax = recover_vmax(result, own);
  return deps;
}

QuoteDeps link_certificate(const graph::LinkGraph& g, NodeId source,
                           NodeId target, const core::PaymentResult& result) {
  QuoteDeps deps;
  deps.valid = true;
  if (!result.connected()) {
    deps.vmax = -kInfCost;
    return deps;
  }
  const std::size_t n = g.num_nodes();
  spath::DijkstraWorkspace& ws = spath::thread_local_workspace();
  spath::dijkstra_link_into(ws, g, source);
  deps.dist_from_source.resize(n);
  for (NodeId v = 0; v < n; ++v) deps.dist_from_source[v] = ws.dist(v);
  // Uses the memoized g.reverse() instead of rebuilding the reverse CSR.
  spath::dijkstra_link_to_target_into(ws, g, target);
  deps.dist_to_target.resize(n);
  for (NodeId v = 0; v < n; ++v) deps.dist_to_target[v] = ws.dist(v);
  std::vector<Cost> own(g.num_nodes(), 0.0);
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i) {
    const NodeId k = result.path[i];
    own[k] = core::node_arc_cost_on_path(g, result.path, k);
  }
  deps.vmax = recover_vmax(result, own);
  return deps;
}

/// Undirected shadow graph with an edge wherever *both* arcs exist: a
/// biconnected shadow guarantees a v-avoiding directed path between any
/// endpoint pair, for any v (conservative for asymmetric topologies).
graph::NodeGraph mutual_shadow(const graph::LinkGraph& g) {
  graph::NodeGraphBuilder b(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const graph::Arc& arc : g.out_arcs(u)) {
      if (u < arc.to && graph::finite_cost(g.arc_cost(arc.to, u))) {
        b.add_edge(u, arc.to);
      }
    }
  }
  return b.build();
}

class NodeVcgPricer final : public Pricer {
 public:
  explicit NodeVcgPricer(core::PaymentEngine engine) : engine_(engine) {}

  [[nodiscard]] std::string name() const override {
    return engine_ == core::PaymentEngine::kNaive ? "node-vcg(naive)"
                                                  : "node-vcg(fast)";
  }
  [[nodiscard]] GraphModel model() const override { return GraphModel::kNode; }

  [[nodiscard]] PricedQuote price(const ProfileSnapshot& snap, NodeId source,
                                  NodeId target) const override {
    TC_CHECK_MSG(snap.model() == GraphModel::kNode,
                 "node pricer needs a node-model snapshot");
    const graph::NodeGraph& g = snap.node();
    PricedQuote quote;
    if (engine_ == core::PaymentEngine::kNaive) {
      quote.result = core::vcg_payments_naive(g, source, target);
      quote.result.profile_version = snap.epoch();
      quote.deps = node_certificate(g, source, target, quote.result);
    } else {
      // The fast engine hands back the two SPTs it builds anyway, making
      // the certificate O(n) on top of the pricing itself.
      spath::SptResult sptS;
      spath::SptResult sptT;
      quote.result = core::vcg_payments_fast(g, source, target, &sptS, &sptT);
      quote.result.profile_version = snap.epoch();
      quote.deps = quote.result.connected()
                       ? node_certificate(g, source, target, quote.result,
                                          &sptS, &sptT)
                       : node_certificate(g, source, target, quote.result);
    }
    return quote;
  }

  [[nodiscard]] bool monopoly_free(const ProfileSnapshot& snap) const override {
    return graph::is_biconnected(snap.node());
  }

  [[nodiscard]] bool accepts_warm_spts() const override {
    return engine_ == core::PaymentEngine::kFast;
  }

  [[nodiscard]] PricedQuote price_with_spts(
      const ProfileSnapshot& snap, NodeId source, NodeId target,
      const spath::SptResult& spt_source,
      const spath::SptResult& spt_target) const override {
    if (engine_ != core::PaymentEngine::kFast) {
      return price(snap, source, target);
    }
    TC_CHECK_MSG(snap.model() == GraphModel::kNode,
                 "node pricer needs a node-model snapshot");
    const graph::NodeGraph& g = snap.node();
    PricedQuote quote;
    quote.result =
        core::vcg_payments_fast(g, source, target, spt_source, spt_target);
    quote.result.profile_version = snap.epoch();
    quote.deps = quote.result.connected()
                     ? node_certificate(g, source, target, quote.result,
                                        &spt_source, &spt_target)
                     : node_certificate(g, source, target, quote.result);
    return quote;
  }

 private:
  core::PaymentEngine engine_;
};

class NeighborResistantPricer final : public Pricer {
 public:
  [[nodiscard]] std::string name() const override {
    return "neighbor-resistant";
  }
  [[nodiscard]] GraphModel model() const override { return GraphModel::kNode; }

  [[nodiscard]] PricedQuote price(const ProfileSnapshot& snap, NodeId source,
                                  NodeId target) const override {
    TC_CHECK_MSG(snap.model() == GraphModel::kNode,
                 "node pricer needs a node-model snapshot");
    const graph::NodeGraph& g = snap.node();
    PricedQuote quote;
    quote.result = core::neighbor_resistant_payments(g, source, target);
    quote.result.profile_version = snap.epoch();
    quote.deps = node_certificate(g, source, target, quote.result);
    return quote;
  }

  [[nodiscard]] bool monopoly_free(const ProfileSnapshot& snap) const override {
    return graph::is_biconnected(snap.node()) &&
           graph::neighborhood_removal_safe(snap.node());
  }
};

class LinkVcgPricer final : public Pricer {
 public:
  explicit LinkVcgPricer(LinkEngine engine) : engine_(engine) {}

  [[nodiscard]] std::string name() const override {
    return engine_ == LinkEngine::kNaive ? "link-vcg(naive)"
                                         : "link-vcg(fast)";
  }
  [[nodiscard]] GraphModel model() const override { return GraphModel::kLink; }

  [[nodiscard]] PricedQuote price(const ProfileSnapshot& snap, NodeId source,
                                  NodeId target) const override {
    TC_CHECK_MSG(snap.model() == GraphModel::kLink,
                 "link pricer needs a link-model snapshot");
    const graph::LinkGraph& g = snap.link();
    PricedQuote quote;
    quote.result = engine_ == LinkEngine::kNaive
                       ? core::link_vcg_payments(g, source, target)
                       : core::fast_link_payments(g, source, target);
    quote.result.profile_version = snap.epoch();
    quote.deps = link_certificate(g, source, target, quote.result);
    return quote;
  }

  [[nodiscard]] bool monopoly_free(const ProfileSnapshot& snap) const override {
    return graph::is_biconnected(mutual_shadow(snap.link()));
  }

 private:
  LinkEngine engine_;
};

}  // namespace

std::shared_ptr<const Pricer> make_node_vcg_pricer(core::PaymentEngine engine) {
  return std::make_shared<NodeVcgPricer>(engine);
}

std::shared_ptr<const Pricer> make_neighbor_resistant_pricer() {
  return std::make_shared<NeighborResistantPricer>();
}

std::shared_ptr<const Pricer> make_link_vcg_pricer(LinkEngine engine) {
  return std::make_shared<LinkVcgPricer>(engine);
}

}  // namespace tc::svc
