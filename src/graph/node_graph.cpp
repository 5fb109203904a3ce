#include "graph/node_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace tc::graph {

void NodeGraph::set_costs(std::vector<Cost> costs) {
  TC_CHECK_MSG(costs.size() == costs_.size(),
               "cost vector size must match node count");
  costs_ = std::move(costs);
}

bool NodeGraph::has_edge(NodeId u, NodeId v) const {
  for (NodeId w : neighbors(u)) {
    if (w == v) return true;
  }
  return false;
}

std::vector<std::pair<NodeId, NodeId>> NodeGraph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> result;
  result.reserve(num_edges());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) result.emplace_back(u, v);
    }
  }
  return result;
}

NodeGraphBuilder::NodeGraphBuilder(std::size_t num_nodes)
    : costs_(num_nodes, 0.0) {}

NodeGraphBuilder& NodeGraphBuilder::set_node_cost(NodeId v, Cost c) {
  // !(c >= 0) rather than c < 0: NaN must fail too. +inf (down) passes.
  if (!(c >= 0.0))
    throw std::invalid_argument("node cost must be non-negative");
  costs_.at(v) = c;
  return *this;
}

NodeGraphBuilder& NodeGraphBuilder::set_costs(std::vector<Cost> costs) {
  if (costs.size() != costs_.size())
    throw std::invalid_argument("cost vector size must match node count");
  for (Cost c : costs)
    if (!(c >= 0.0))
      throw std::invalid_argument("node cost must be non-negative");
  costs_ = std::move(costs);
  return *this;
}

NodeGraphBuilder& NodeGraphBuilder::add_edge(NodeId u, NodeId v) {
  if (u == v) throw std::invalid_argument("self-loops are not allowed");
  if (u >= costs_.size() || v >= costs_.size())
    throw std::invalid_argument("edge endpoint out of range");
  edge_list_.emplace_back(std::min(u, v), std::max(u, v));
  return *this;
}

NodeGraphBuilder& NodeGraphBuilder::set_positions(
    std::vector<geom::Point> positions) {
  if (positions.size() != costs_.size())
    throw std::invalid_argument("positions size must match node count");
  positions_ = std::move(positions);
  return *this;
}

NodeGraph NodeGraphBuilder::build() const {
  auto edges = edge_list_;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  NodeGraph g;
  g.costs_ = costs_;
  g.positions_ = positions_;
  const std::size_t n = costs_.size();
  g.offsets_.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.adjacency_.resize(2 * edges.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    g.adjacency_[cursor[u]++] = v;
    g.adjacency_[cursor[v]++] = u;
  }
  // Neighbor lists come out sorted because the edge list was sorted and we
  // appended in order; Dijkstra does not need this, but deterministic
  // iteration order makes test failures reproducible.
  return g;
}

}  // namespace tc::graph
