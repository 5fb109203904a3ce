// Differential tests pinning the rewired payment engines to the pre-PR
// allocating implementations. Each reference below replicates the old
// engine body verbatim on top of the allocating spath API; the live
// engines (now built on DijkstraWorkspace + MaskedSptDelta) must agree
// bit for bit — same payments, same metrics, same monopoly/skip counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>
#include <vector>

#include "core/edge_vcg.hpp"
#include "core/fast_payment.hpp"
#include "core/link_vcg.hpp"
#include "core/neighbor_collusion.hpp"
#include "core/overpayment.hpp"
#include "core/transit.hpp"
#include "core/vcg_unicast.hpp"
#include "graph/generators.hpp"
#include "spath/avoiding.hpp"
#include "spath/dijkstra.hpp"

namespace tc::core {
namespace {

using graph::Cost;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

constexpr std::uint64_t kSeeds = 40;

void expect_bits_equal(const std::vector<Cost>& a, const std::vector<Cost>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Cost)), 0);
}

// --- pre-PR reference implementations ------------------------------------

PaymentResult ref_vcg_payments_naive(const graph::NodeGraph& g, NodeId source,
                                     NodeId target) {
  PaymentResult result;
  result.payments.assign(g.num_nodes(), 0.0);
  const spath::SptResult spt = spath::dijkstra_node(g, source);
  if (!spt.reached(target)) return result;
  result.path = spt.path_to(target);
  result.path_cost = spt.dist[target];
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i) {
    const NodeId k = result.path[i];
    graph::NodeMask mask(g.num_nodes());
    mask.block(k);
    const spath::SptResult avoid = spath::dijkstra_node(g, source, mask);
    const Cost cost = avoid.reached(target) ? avoid.dist[target] : kInfCost;
    result.payments[k] = graph::finite_cost(cost)
                             ? cost - result.path_cost + g.node_cost(k)
                             : kInfCost;
  }
  return result;
}

PaymentResult ref_neighbor_resistant(const graph::NodeGraph& g, NodeId source,
                                     NodeId target) {
  PaymentResult result;
  result.payments.assign(g.num_nodes(), 0.0);
  const spath::SptResult spt = spath::dijkstra_node(g, source);
  if (!spt.reached(target)) return result;
  result.path = spt.path_to(target);
  result.path_cost = spt.dist[target];
  std::vector<bool> on_path(g.num_nodes(), false);
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i)
    on_path[result.path[i]] = true;
  for (NodeId k = 0; k < g.num_nodes(); ++k) {
    if (k == source || k == target) continue;
    graph::NodeMask mask(g.num_nodes());
    for (NodeId v : closed_neighborhood(g, k)) {
      if (v != source && v != target) mask.block(v);
    }
    const spath::SptResult avoid = spath::dijkstra_node(g, source, mask);
    const Cost avoid_cost =
        avoid.reached(target) ? avoid.dist[target] : kInfCost;
    if (!graph::finite_cost(avoid_cost)) {
      result.payments[k] = kInfCost;
      continue;
    }
    result.payments[k] = (on_path[k] ? g.node_cost(k) : 0.0) +
                         (avoid_cost - result.path_cost);
  }
  return result;
}

PaymentResult ref_link_vcg(const graph::LinkGraph& g, NodeId source,
                           NodeId target) {
  PaymentResult result;
  result.payments.assign(g.num_nodes(), 0.0);
  const spath::SptResult spt = spath::dijkstra_link(g, source);
  if (!spt.reached(target)) return result;
  result.path = spt.path_to(target);
  result.path_cost = spt.dist[target];
  for (std::size_t i = 1; i + 1 < result.path.size(); ++i) {
    const NodeId k = result.path[i];
    graph::NodeMask mask(g.num_nodes());
    mask.block(k);
    const spath::SptResult avoid = spath::dijkstra_link(g, source, mask);
    const Cost avoid_cost =
        avoid.reached(target) ? avoid.dist[target] : kInfCost;
    if (!graph::finite_cost(avoid_cost)) {
      result.payments[k] = kInfCost;
      continue;
    }
    const Cost own = node_arc_cost_on_path(g, result.path, k);
    result.payments[k] = own + (avoid_cost - result.path_cost);
  }
  return result;
}

EdgeVcgResult ref_edge_vcg_naive(const graph::LinkGraph& g, NodeId source,
                                 NodeId target) {
  EdgeVcgResult result;
  const spath::SptResult spt = spath::dijkstra_link(g, source);
  if (!spt.reached(target)) return result;
  result.path = spt.path_to(target);
  result.path_cost = spt.dist[target];
  graph::LinkGraph work = g;
  for (std::size_t i = 0; i + 1 < result.path.size(); ++i) {
    const NodeId u = result.path[i];
    const NodeId v = result.path[i + 1];
    const Cost w = g.arc_cost(u, v);
    work.set_arc_cost(u, v, kInfCost);
    work.set_arc_cost(v, u, kInfCost);
    const spath::SptResult detour = spath::dijkstra_link(work, source);
    work.set_arc_cost(u, v, w);
    work.set_arc_cost(v, u, w);
    EdgePayment payment;
    payment.u = u;
    payment.v = v;
    payment.declared = w;
    payment.payment = detour.reached(target)
                          ? detour.dist[target] - result.path_cost + w
                          : kInfCost;
    result.payments.push_back(payment);
  }
  return result;
}

/// Replica of Algorithm 1 as it stood before its steps 2-5 moved onto
/// per-thread scratch: levels from a children-list walk, one
/// std::priority_queue Dijkstra per level with a step-4 neighbour rescan,
/// and a separate step-5 edge scan into per-level vectors.
PaymentResult ref_fast_payments_from_spts(const graph::NodeGraph& g,
                                          NodeId source, NodeId target,
                                          const spath::SptResult& sptS,
                                          const spath::SptResult& sptT) {
  constexpr std::uint32_t kInvalidLevel = 0xffffffffu;
  const std::size_t n = g.num_nodes();

  PaymentResult result;
  result.payments.assign(n, 0.0);

  sptS.path_to_into(target, result.path);
  result.path_cost = sptS.dist[target];
  const std::size_t q = result.path.size() - 1;
  if (q < 2) return result;

  const std::vector<Cost>& L = sptS.dist;
  const std::vector<Cost>& R = sptT.dist;

  std::vector<std::uint32_t> path_index(n, kInvalidLevel);
  for (std::uint32_t l = 0; l <= q; ++l) path_index[result.path[l]] = l;

  std::vector<std::uint32_t> level(n, kInvalidLevel);
  {
    std::vector<std::vector<NodeId>> children(n);
    for (NodeId v = 0; v < n; ++v) {
      if (sptS.parent[v] != kInvalidNode) children[sptS.parent[v]].push_back(v);
    }
    std::vector<NodeId> stack{source};
    level[source] = 0;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : children[u]) {
        level[v] = path_index[v] != kInvalidLevel ? path_index[v] : level[u];
        stack.push_back(v);
      }
    }
  }

  auto interior_cost = [&](NodeId v) -> Cost {
    return (v == source || v == target) ? 0.0 : g.node_cost(v);
  };

  std::vector<std::vector<NodeId>> nodes_at_level(q);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t l = level[v];
    if (l == kInvalidLevel) continue;
    if (path_index[v] != kInvalidLevel) continue;
    if (l >= 1 && l <= q - 1) nodes_at_level[l].push_back(v);
  }

  std::vector<Cost> R_minus(n, kInfCost);
  std::vector<Cost> c_minus(q, kInfCost);
  {
    std::vector<bool> settled(n, false);
    using QEntry = std::pair<Cost, NodeId>;
    for (std::uint32_t l = q - 1; l >= 1; --l) {
      const auto& members = nodes_at_level[l];
      if (members.empty()) {
        if (l == 1) break;
        continue;
      }
      std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
      for (NodeId v : members) {
        Cost base = kInfCost;
        for (NodeId w : g.neighbors(v)) {
          const std::uint32_t lw = level[w];
          if (lw == kInvalidLevel || lw <= l) continue;
          if (!graph::finite_cost(R[w])) continue;
          base = std::min(base, interior_cost(w) + R[w]);
        }
        R_minus[v] = base;
        if (graph::finite_cost(base)) pq.emplace(base, v);
      }
      while (!pq.empty()) {
        const auto [dv, v] = pq.top();
        pq.pop();
        if (settled[v] || dv > R_minus[v]) continue;
        settled[v] = true;
        for (NodeId w : g.neighbors(v)) {
          if (level[w] != l || path_index[w] != kInvalidLevel) continue;
          if (settled[w]) continue;
          const Cost cand = interior_cost(v) + dv;
          if (cand < R_minus[w]) {
            R_minus[w] = cand;
            pq.emplace(cand, w);
          }
        }
      }
      for (NodeId v : members) {
        if (!graph::finite_cost(R_minus[v])) continue;
        for (NodeId u : g.neighbors(v)) {
          const std::uint32_t lu = level[u];
          if (lu == kInvalidLevel || lu >= l) continue;
          if (!graph::finite_cost(L[u])) continue;
          const Cost cand =
              L[u] + interior_cost(u) + g.node_cost(v) + R_minus[v];
          c_minus[l] = std::min(c_minus[l], cand);
        }
      }
      if (l == 1) break;
    }
  }

  struct CrossEdge {
    Cost value;
    std::uint32_t alpha;
    bool operator>(const CrossEdge& other) const {
      return value > other.value;
    }
  };
  std::vector<std::vector<CrossEdge>> insert_at(q);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u > v) continue;
      const std::uint32_t lu = level[u];
      const std::uint32_t lv = level[v];
      if (lu == kInvalidLevel || lv == kInvalidLevel) continue;
      if (lu == lv) continue;
      const NodeId a = lu < lv ? u : v;
      const NodeId b = lu < lv ? v : u;
      const std::uint32_t alpha = std::min(lu, lv);
      const std::uint32_t beta = std::max(lu, lv);
      if (beta < alpha + 2) continue;
      if (!graph::finite_cost(L[a]) || !graph::finite_cost(R[b])) continue;
      const std::uint32_t first_l =
          std::min<std::uint32_t>(beta - 1, static_cast<std::uint32_t>(q - 1));
      if (first_l < 1 || first_l <= alpha) continue;
      const Cost value = L[a] + interior_cost(a) + interior_cost(b) + R[b];
      insert_at[first_l].push_back({value, alpha});
    }
  }

  std::priority_queue<CrossEdge, std::vector<CrossEdge>, std::greater<>> heap;
  for (std::uint32_t l = static_cast<std::uint32_t>(q - 1); l >= 1; --l) {
    for (const CrossEdge& e : insert_at[l]) heap.push(e);
    while (!heap.empty() && heap.top().alpha >= l) heap.pop();
    const Cost heap_cand = heap.empty() ? kInfCost : heap.top().value;
    const Cost avoid_cost = std::min(heap_cand, c_minus[l]);
    const NodeId r_l = result.path[l];
    result.payments[r_l] = graph::finite_cost(avoid_cost)
                               ? avoid_cost - result.path_cost +
                                     g.node_cost(r_l)
                               : kInfCost;
    if (l == 1) break;
  }
  return result;
}

PaymentResult ref_vcg_payments_fast(const graph::NodeGraph& g, NodeId source,
                                    NodeId target) {
  const spath::SptResult sptS = spath::dijkstra_node(g, source);
  if (!sptS.reached(target)) {
    PaymentResult result;
    result.payments.assign(g.num_nodes(), 0.0);
    return result;
  }
  const spath::SptResult sptT = spath::dijkstra_node(g, target);
  return ref_fast_payments_from_spts(g, source, target, sptS, sptT);
}

/// Replica of the pre-PR study_from_tree (overpayment.cpp) with the old
/// full-masked-Dijkstra avoid_dist lambdas.
template <typename AvoidDistFn, typename RelayChargeFn, typename SourceOwnFn>
OverpaymentResult ref_study_from_tree(std::size_t n, NodeId ap,
                                      const spath::SptResult& to_ap,
                                      AvoidDistFn&& avoid_dist,
                                      RelayChargeFn&& relay_charge,
                                      SourceOwnFn&& source_own_cost) {
  OverpaymentResult result;
  std::size_t skipped = 0;
  std::size_t monopolies = 0;
  std::vector<bool> is_relay(n, false);
  for (NodeId i = 0; i < n; ++i) {
    if (i == ap || !to_ap.reached(i)) continue;
    const NodeId p = to_ap.parent[i];
    if (p != kInvalidNode && p != ap) is_relay[p] = true;
  }
  std::vector<std::vector<Cost>> avoid_cache(n);
  auto avoid_for = [&](NodeId k) -> const std::vector<Cost>& {
    if (avoid_cache[k].empty()) avoid_cache[k] = avoid_dist(k);
    return avoid_cache[k];
  };
  for (NodeId i = 0; i < n; ++i) {
    if (i == ap) continue;
    if (!to_ap.reached(i)) {
      ++skipped;
      continue;
    }
    SourceOverpayment src;
    src.source = i;
    const Cost full_cost = to_ap.dist[i];
    src.lcp_cost = full_cost - source_own_cost(i);
    bool monopoly = false;
    Cost payment = 0.0;
    std::size_t hops = 0;
    for (NodeId k = to_ap.parent[i]; k != kInvalidNode && !monopoly;
         k = to_ap.parent[k]) {
      ++hops;
      if (k == ap) break;
      const Cost avoided = avoid_for(k)[i];
      if (!graph::finite_cost(avoided)) {
        monopoly = true;
        break;
      }
      payment += relay_charge(k) + (avoided - full_cost);
    }
    if (monopoly) {
      ++monopolies;
      continue;
    }
    src.payment = payment;
    src.hops = hops;
    if (src.hops <= 1) ++skipped;
    result.per_source.push_back(src);
  }
  result.metrics = summarize_overpayment(result.per_source, monopolies, skipped);
  return result;
}

OverpaymentResult ref_overpayment_node(const graph::NodeGraph& g, NodeId ap) {
  const spath::SptResult to_ap = spath::dijkstra_node(g, ap);
  auto avoid_dist = [&](NodeId k) {
    graph::NodeMask mask(g.num_nodes());
    mask.block(k);
    return spath::dijkstra_node(g, ap, mask).dist;
  };
  auto relay_charge = [&](NodeId k) { return g.node_cost(k); };
  auto source_own = [](NodeId) { return 0.0; };
  return ref_study_from_tree(g.num_nodes(), ap, to_ap, avoid_dist,
                             relay_charge, source_own);
}

OverpaymentResult ref_overpayment_link(const graph::LinkGraph& g, NodeId ap) {
  const graph::LinkGraph rev = spath::reverse_graph(g);
  const spath::SptResult to_ap = spath::dijkstra_link(rev, ap);
  auto avoid_dist = [&](NodeId k) {
    graph::NodeMask mask(g.num_nodes());
    mask.block(k);
    return spath::dijkstra_link(rev, ap, mask).dist;
  };
  auto relay_charge = [&](NodeId k) { return g.arc_cost(k, to_ap.parent[k]); };
  auto source_own = [&](NodeId i) {
    const NodeId first_hop = to_ap.parent[i];
    return first_hop == kInvalidNode ? 0.0 : g.arc_cost(i, first_hop);
  };
  return ref_study_from_tree(g.num_nodes(), ap, to_ap, avoid_dist,
                             relay_charge, source_own);
}

TransitResult ref_transit(const graph::NodeGraph& g,
                          const TrafficMatrix& intensity) {
  const std::size_t n = g.num_nodes();
  TransitResult result;
  result.compensation.assign(n, 0.0);
  for (NodeId j = 0; j < n; ++j) {
    bool any_flow = false;
    for (NodeId i = 0; i < n; ++i) {
      if (i != j && intensity[i][j] > 0.0) {
        any_flow = true;
        break;
      }
    }
    if (!any_flow) continue;
    const spath::SptResult to_j = spath::dijkstra_node(g, j);
    std::vector<std::vector<Cost>> avoid_cache(n);
    auto avoid_for = [&](NodeId k) -> const std::vector<Cost>& {
      if (avoid_cache[k].empty()) {
        graph::NodeMask mask(n);
        mask.block(k);
        avoid_cache[k] = spath::dijkstra_node(g, j, mask).dist;
      }
      return avoid_cache[k];
    };
    for (NodeId i = 0; i < n; ++i) {
      if (i == j) continue;
      const double packets = intensity[i][j];
      if (packets <= 0.0) continue;
      if (!to_j.reached(i)) {
        ++result.unroutable_flows;
        continue;
      }
      Cost flow_payment = 0.0;
      bool monopoly = false;
      std::vector<std::pair<NodeId, Cost>> relay_shares;
      for (NodeId k = to_j.parent[i]; k != j && k != kInvalidNode;
           k = to_j.parent[k]) {
        const Cost avoided = avoid_for(k)[i];
        if (!graph::finite_cost(avoided)) {
          monopoly = true;
          break;
        }
        const Cost p = g.node_cost(k) + (avoided - to_j.dist[i]);
        relay_shares.emplace_back(k, p);
        flow_payment += p;
      }
      if (monopoly) {
        ++result.monopoly_flows;
        continue;
      }
      for (const auto& [k, p] : relay_shares) {
        result.compensation[k] += packets * p;
      }
      result.total_payment += packets * flow_payment;
      result.total_traffic_cost += packets * to_j.dist[i];
    }
  }
  return result;
}

// --- differential checks ---------------------------------------------------

void expect_same_payment(const PaymentResult& got, const PaymentResult& want) {
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.path_cost, want.path_cost);
  expect_bits_equal(got.payments, want.payments);
}

/// Algorithm 1 on (g, s, t) against the frozen replica, by memcmp, through
/// both the from-scratch and the SPT-accepting entry points. Tallies the
/// disconnected pairs and monopoly relays it saw.
struct FastCoverage {
  std::size_t pairs = 0;
  std::size_t disconnected = 0;
  std::size_t monopolies = 0;
};

void expect_fast_bit_identical(const graph::NodeGraph& g, NodeId s, NodeId t,
                               FastCoverage& seen) {
  const PaymentResult want = ref_vcg_payments_fast(g, s, t);
  const PaymentResult got = vcg_payments_fast(g, s, t);
  SCOPED_TRACE(testing::Message() << "n=" << g.num_nodes() << " s=" << s
                                  << " t=" << t);
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(std::memcmp(&got.path_cost, &want.path_cost, sizeof(Cost)), 0);
  expect_bits_equal(got.payments, want.payments);
  const PaymentResult via_trees = vcg_payments_fast(
      g, s, t, spath::dijkstra_node(g, s), spath::dijkstra_node(g, t));
  EXPECT_EQ(via_trees.path, want.path);
  expect_bits_equal(via_trees.payments, want.payments);
  ++seen.pairs;
  if (!want.connected()) ++seen.disconnected;
  seen.monopolies += static_cast<std::size_t>(std::count_if(
      want.payments.begin(), want.payments.end(),
      [](Cost p) { return std::isinf(p); }));
}

/// Every ordered pair of a small graph, or `samples` seeded pairs.
void expect_fast_bit_identical_on(const graph::NodeGraph& g,
                                  std::size_t samples, std::uint64_t seed,
                                  FastCoverage& seen) {
  const std::size_t n = g.num_nodes();
  if (samples == 0) {
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s != t) expect_fast_bit_identical(g, s, t, seen);
      }
    }
    return;
  }
  for (std::size_t i = 0; i < samples; ++i) {
    const auto s = static_cast<NodeId>((seed * 7919 + i * 104729) % n);
    const auto t = static_cast<NodeId>((seed * 31 + i * 65537 + 1) % n);
    if (s != t) expect_fast_bit_identical(g, s, t, seen);
  }
}

graph::NodeGraph udg(std::size_t n, std::uint64_t seed) {
  graph::UdgParams params;
  params.n = n;
  // The benchmark's density for large n; n = 20 keeps the default
  // 2 km square, sparse enough for cut vertices and split components.
  if (n > 100) {
    const double side = 2000.0 * std::sqrt(static_cast<double>(n) / 300.0);
    params.region = {side, side};
  }
  return graph::make_unit_disk_node(params, 1.0, 10.0, seed);
}

graph::NodeGraph random_node_graph(std::uint64_t seed) {
  return graph::make_erdos_renyi(48, 0.12, 0.1, 9.0, seed);
}

TEST(PaymentDifferential, VcgNaiveMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const NodeId s = static_cast<NodeId>(seed % g.num_nodes());
    const NodeId t = static_cast<NodeId>((seed * 17 + 5) % g.num_nodes());
    if (s == t) continue;
    expect_same_payment(vcg_payments_naive(g, s, t),
                        ref_vcg_payments_naive(g, s, t));
  }
}

TEST(PaymentDifferential, FastMatchesReferenceOnUnitDiskGraphs) {
  FastCoverage seen;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_fast_bit_identical_on(udg(20, seed), 0, seed, seen);
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_fast_bit_identical_on(udg(400, seed), 24, seed, seen);
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_fast_bit_identical_on(udg(1024, seed), 12, seed, seen);
  }
  EXPECT_GT(seen.disconnected, 0u);
  EXPECT_GT(seen.monopolies, 0u);
}

TEST(PaymentDifferential, FastMatchesReferenceOnErdosRenyi) {
  FastCoverage seen;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    expect_fast_bit_identical_on(random_node_graph(seed), 32, seed, seen);
    // Sparse enough for cut vertices and isolated nodes.
    expect_fast_bit_identical_on(
        graph::make_erdos_renyi(40, 0.06, 0.1, 9.0, seed), 32, seed, seen);
  }
  EXPECT_GT(seen.disconnected, 0u);
  EXPECT_GT(seen.monopolies, 0u);
}

TEST(PaymentDifferential, FastMatchesReferenceOnGridTies) {
  // Equal costs make many equal-cost paths, levels and crossing edges.
  FastCoverage seen;
  expect_fast_bit_identical_on(graph::make_grid(5, 5, 1.0), 0, 1, seen);
  expect_fast_bit_identical_on(graph::make_grid(3, 9, 2.0), 0, 2, seen);
  expect_fast_bit_identical_on(graph::make_grid(20, 20, 1.0), 64, 3, seen);
  EXPECT_EQ(seen.disconnected, 0u);
}

TEST(PaymentDifferential, FastMatchesReferenceOnZeroCostsMonopoliesAndSplits) {
  FastCoverage seen;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    // Zero-cost relays: ties between paths through them and around them.
    graph::NodeGraph g = udg(400, seed);
    for (NodeId v = 0; v < g.num_nodes(); v += 3) g.set_node_cost(v, 0.0);
    expect_fast_bit_identical_on(g, 16, seed, seen);
    graph::NodeGraph grid = graph::make_grid(6, 6, 1.0);
    for (NodeId v = 0; v < grid.num_nodes(); v += 2 + seed % 3) {
      grid.set_node_cost(v, 0.0);
    }
    expect_fast_bit_identical_on(grid, 0, seed, seen);
  }
  // Every interior node of a path is a monopoly relay.
  expect_fast_bit_identical_on(graph::make_path(9, 2.0), 0, 1, seen);
  // Two rings joined at node 0 (a cut vertex), plus an isolated pair and
  // a relay declared down (infinite cost).
  graph::NodeGraphBuilder b(16);
  for (NodeId v = 0; v < 6; ++v) b.add_edge(v, (v + 1) % 6);
  b.add_edge(0, 6);
  for (NodeId v = 6; v < 12; ++v) b.add_edge(v, v + 1 < 12 ? v + 1 : 6);
  b.add_edge(12, 13).add_edge(14, 15);
  for (NodeId v = 0; v < 16; ++v) b.set_node_cost(v, 1.0 + v % 4);
  graph::NodeGraph split = b.build();
  expect_fast_bit_identical_on(split, 0, 1, seen);
  split.set_node_cost(3, kInfCost);
  expect_fast_bit_identical_on(split, 0, 1, seen);
  EXPECT_GT(seen.disconnected, 0u);
  EXPECT_GT(seen.monopolies, 0u);
}

TEST(PaymentDifferential, NeighborResistantMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    const NodeId s = static_cast<NodeId>(seed % g.num_nodes());
    const NodeId t = static_cast<NodeId>((seed * 17 + 5) % g.num_nodes());
    if (s == t) continue;
    expect_same_payment(neighbor_resistant_payments(g, s, t),
                        ref_neighbor_resistant(g, s, t));
  }
}

TEST(PaymentDifferential, LinkVcgMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::HeteroParams params;
    params.n = 48;
    const auto g = graph::make_hetero_geometric(params, seed);
    const NodeId s = static_cast<NodeId>(seed % g.num_nodes());
    const NodeId t = static_cast<NodeId>((seed * 17 + 5) % g.num_nodes());
    if (s == t) continue;
    expect_same_payment(link_vcg_payments(g, s, t), ref_link_vcg(g, s, t));
  }
}

TEST(PaymentDifferential, EdgeVcgNaiveMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::UdgParams params;
    params.n = 48;  // symmetric costs, as edge-agent VCG requires
    const auto g = graph::make_unit_disk_link(params, seed);
    const NodeId s = static_cast<NodeId>(seed % g.num_nodes());
    const NodeId t = static_cast<NodeId>((seed * 17 + 5) % g.num_nodes());
    if (s == t) continue;
    const EdgeVcgResult got = edge_vcg_payments_naive(g, s, t);
    const EdgeVcgResult want = ref_edge_vcg_naive(g, s, t);
    EXPECT_EQ(got.path, want.path);
    EXPECT_EQ(got.path_cost, want.path_cost);
    ASSERT_EQ(got.payments.size(), want.payments.size());
    for (std::size_t i = 0; i < got.payments.size(); ++i) {
      EXPECT_EQ(got.payments[i].u, want.payments[i].u);
      EXPECT_EQ(got.payments[i].v, want.payments[i].v);
      EXPECT_EQ(got.payments[i].declared, want.payments[i].declared);
      EXPECT_EQ(got.payments[i].payment, want.payments[i].payment);
    }
  }
}

void expect_same_overpayment(const OverpaymentResult& got,
                             const OverpaymentResult& want) {
  ASSERT_EQ(got.per_source.size(), want.per_source.size());
  for (std::size_t i = 0; i < got.per_source.size(); ++i) {
    EXPECT_EQ(got.per_source[i].source, want.per_source[i].source);
    EXPECT_EQ(got.per_source[i].payment, want.per_source[i].payment);
    EXPECT_EQ(got.per_source[i].lcp_cost, want.per_source[i].lcp_cost);
    EXPECT_EQ(got.per_source[i].hops, want.per_source[i].hops);
  }
  EXPECT_EQ(got.metrics.tor, want.metrics.tor);
  EXPECT_EQ(got.metrics.ior, want.metrics.ior);
  EXPECT_EQ(got.metrics.worst, want.metrics.worst);
  EXPECT_EQ(got.metrics.sources_counted, want.metrics.sources_counted);
  EXPECT_EQ(got.metrics.sources_skipped, want.metrics.sources_skipped);
  EXPECT_EQ(got.metrics.monopoly_sources, want.metrics.monopoly_sources);
}

TEST(PaymentDifferential, OverpaymentNodeModelMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto g = random_node_graph(seed);
    expect_same_overpayment(overpayment_node_model(g, 0),
                            ref_overpayment_node(g, 0));
  }
}

TEST(PaymentDifferential, OverpaymentLinkModelMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::UdgParams params;
    params.n = 64;
    const auto g = graph::make_unit_disk_link(params, seed);
    expect_same_overpayment(overpayment_link_model(g, 0),
                            ref_overpayment_link(g, 0));
  }
}

TEST(PaymentDifferential, OverpaymentHeteroLinkMatchesReference) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    graph::HeteroParams params;
    params.n = 64;
    const auto g = graph::make_hetero_geometric(params, seed);
    expect_same_overpayment(overpayment_link_model(g, 0),
                            ref_overpayment_link(g, 0));
  }
}

TEST(PaymentDifferential, TransitMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = graph::make_erdos_renyi(24, 0.2, 0.1, 9.0, seed);
    const TrafficMatrix traffic = uniform_traffic(g.num_nodes(), 1.0);
    const TransitResult got = transit_payments(g, traffic);
    const TransitResult want = ref_transit(g, traffic);
    expect_bits_equal(got.compensation, want.compensation);
    EXPECT_EQ(got.total_payment, want.total_payment);
    EXPECT_EQ(got.total_traffic_cost, want.total_traffic_cost);
    EXPECT_EQ(got.unroutable_flows, want.unroutable_flows);
    EXPECT_EQ(got.monopoly_flows, want.monopoly_flows);
  }
}

}  // namespace
}  // namespace tc::core
