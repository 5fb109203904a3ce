#include "graph/node_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "graph/mask.hpp"

namespace tc::graph {
namespace {

NodeGraph triangle() {
  NodeGraphBuilder b(3);
  b.set_node_cost(0, 1.0).set_node_cost(1, 2.0).set_node_cost(2, 3.0);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
  return b.build();
}

TEST(NodeGraph, BasicCounts) {
  const NodeGraph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(NodeGraph, CostsStored) {
  const NodeGraph g = triangle();
  EXPECT_DOUBLE_EQ(g.node_cost(0), 1.0);
  EXPECT_DOUBLE_EQ(g.node_cost(2), 3.0);
}

TEST(NodeGraph, SetCostMutates) {
  NodeGraph g = triangle();
  g.set_node_cost(1, 9.5);
  EXPECT_DOUBLE_EQ(g.node_cost(1), 9.5);
}

TEST(NodeGraph, SetCostsWholeVector) {
  NodeGraph g = triangle();
  g.set_costs({7.0, 8.0, 9.0});
  EXPECT_DOUBLE_EQ(g.node_cost(0), 7.0);
  EXPECT_DOUBLE_EQ(g.node_cost(2), 9.0);
}

TEST(NodeGraph, NeighborsSortedAndSymmetric) {
  const NodeGraph g = triangle();
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(NodeGraph, HasEdgeNegative) {
  NodeGraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  const NodeGraph g = b.build();
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 3));
}

TEST(NodeGraph, DuplicateEdgesDeduplicated) {
  NodeGraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
  const NodeGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(NodeGraph, EdgesListCanonical) {
  const NodeGraph g = triangle();
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(NodeGraph, IsolatedNodeAllowed) {
  NodeGraphBuilder b(3);
  b.add_edge(0, 1);
  const NodeGraph g = b.build();
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(NodeGraphBuilder, RejectsSelfLoop) {
  NodeGraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(NodeGraphBuilder, RejectsOutOfRangeEdge) {
  NodeGraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 5), std::invalid_argument);
}

TEST(NodeGraphBuilder, RejectsNegativeCost) {
  NodeGraphBuilder b(2);
  EXPECT_THROW(b.set_node_cost(0, -1.0), std::invalid_argument);
  EXPECT_THROW(b.set_costs({1.0, -0.5}), std::invalid_argument);
}

TEST(NodeGraphBuilder, RejectsNaNCostButKeepsInfinity) {
  NodeGraphBuilder b(2);
  EXPECT_THROW(b.set_node_cost(0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(b.set_costs({1.0, std::nan("")}), std::invalid_argument);
  // +inf is how a node is marked down; it stays legal.
  b.set_node_cost(0, kInfCost).add_edge(0, 1);
  EXPECT_EQ(b.build().node_cost(0), kInfCost);
}

TEST(NodeGraphBuilder, RejectsWrongSizeVectors) {
  NodeGraphBuilder b(3);
  EXPECT_THROW(b.set_costs({1.0}), std::invalid_argument);
  EXPECT_THROW(b.set_positions({{0, 0}}), std::invalid_argument);
}

TEST(NodeGraph, PositionsRoundTrip) {
  NodeGraphBuilder b(2);
  b.add_edge(0, 1);
  b.set_positions({{1.0, 2.0}, {3.0, 4.0}});
  const NodeGraph g = b.build();
  ASSERT_TRUE(g.has_positions());
  EXPECT_DOUBLE_EQ(g.position(1).x, 3.0);
}

TEST(NodeGraph, NoPositionsByDefault) {
  EXPECT_FALSE(triangle().has_positions());
}

TEST(NodeMask, EmptyMaskAllowsEverything) {
  NodeMask m;
  EXPECT_TRUE(m.allowed(0));
  EXPECT_TRUE(m.allowed(1000));
}

TEST(NodeMask, BlockAndUnblock) {
  NodeMask m(5);
  EXPECT_TRUE(m.allowed(3));
  m.block(3);
  EXPECT_FALSE(m.allowed(3));
  EXPECT_TRUE(m.allowed(2));
  m.unblock(3);
  EXPECT_TRUE(m.allowed(3));
}

TEST(NodeMask, BlockingFactory) {
  const auto m = NodeMask::blocking(6, {1, 4});
  EXPECT_FALSE(m.allowed(1));
  EXPECT_FALSE(m.allowed(4));
  EXPECT_TRUE(m.allowed(0));
  EXPECT_EQ(m.blocked_count(), 2u);
}

}  // namespace
}  // namespace tc::graph
