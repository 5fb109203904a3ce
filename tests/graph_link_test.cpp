#include "graph/link_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace tc::graph {
namespace {

LinkGraph diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 with asymmetric back edges.
  LinkGraphBuilder b(4);
  b.add_arc(0, 1, 1.0).add_arc(1, 3, 2.0);
  b.add_arc(0, 2, 1.5).add_arc(2, 3, 1.0);
  b.add_arc(3, 0, 10.0);
  return b.build();
}

TEST(LinkGraph, CountsAndDegrees) {
  const LinkGraph g = diamond();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_arcs(), 5u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(3), 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
}

TEST(LinkGraph, ArcCostLookup) {
  const LinkGraph g = diamond();
  EXPECT_DOUBLE_EQ(g.arc_cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.arc_cost(2, 3), 1.0);
  EXPECT_TRUE(std::isinf(g.arc_cost(1, 0)));  // directed: no reverse arc
}

TEST(LinkGraph, SetArcCost) {
  LinkGraph g = diamond();
  g.set_arc_cost(0, 1, 5.5);
  EXPECT_DOUBLE_EQ(g.arc_cost(0, 1), 5.5);
}

TEST(LinkGraph, SetArcCostMissingThrows) {
  LinkGraph g = diamond();
  EXPECT_THROW(g.set_arc_cost(1, 2, 1.0), std::invalid_argument);
}

TEST(LinkGraph, SetAllOutCostsModelsRemoval) {
  LinkGraph g = diamond();
  g.set_all_out_costs(1, kInfCost);
  EXPECT_TRUE(std::isinf(g.arc_cost(1, 3)));
  EXPECT_DOUBLE_EQ(g.arc_cost(0, 1), 1.0);  // inbound arcs untouched
}

TEST(LinkGraph, SnapshotRestore) {
  LinkGraph g = diamond();
  const auto snapshot = g.arc_costs();
  g.set_all_out_costs(0, 99.0);
  EXPECT_DOUBLE_EQ(g.arc_cost(0, 1), 99.0);
  g.restore_arc_costs(snapshot);
  EXPECT_DOUBLE_EQ(g.arc_cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.arc_cost(0, 2), 1.5);
}

TEST(LinkGraph, ParallelArcsKeepCheapest) {
  LinkGraphBuilder b(2);
  b.add_arc(0, 1, 5.0).add_arc(0, 1, 2.0).add_arc(0, 1, 8.0);
  const LinkGraph g = b.build();
  EXPECT_EQ(g.num_arcs(), 1u);
  EXPECT_DOUBLE_EQ(g.arc_cost(0, 1), 2.0);
}

TEST(LinkGraph, AddLinkBothDirections) {
  LinkGraphBuilder b(2);
  b.add_link(0, 1, 3.0, 4.0);
  const LinkGraph g = b.build();
  EXPECT_DOUBLE_EQ(g.arc_cost(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(g.arc_cost(1, 0), 4.0);
}

TEST(LinkGraphBuilder, Rejections) {
  LinkGraphBuilder b(2);
  EXPECT_THROW(b.add_arc(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_arc(0, 9, 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_arc(0, 1, -2.0), std::invalid_argument);
}

// NaN fails every comparison, so a `cost < 0` test lets it through. +inf
// stays legal: it models an arc that is down.
TEST(LinkGraphBuilder, RejectsNaNCostButKeepsInfinity) {
  LinkGraphBuilder b(2);
  EXPECT_THROW(b.add_arc(0, 1, std::nan("")), std::invalid_argument);
  EXPECT_THROW(b.add_arc(1, 0, -std::nan("")), std::invalid_argument);
  b.add_arc(0, 1, kInfCost);
  const LinkGraph g = b.build();
  ASSERT_EQ(g.num_arcs(), 1u);
  EXPECT_EQ(g.out_arcs(0).front().cost, kInfCost);
}

TEST(LinkGraph, OutArcsSortedByTarget) {
  LinkGraphBuilder b(4);
  b.add_arc(0, 3, 1.0).add_arc(0, 1, 1.0).add_arc(0, 2, 1.0);
  const LinkGraph g = b.build();
  const auto arcs = g.out_arcs(0);
  ASSERT_EQ(arcs.size(), 3u);
  EXPECT_EQ(arcs[0].to, 1u);
  EXPECT_EQ(arcs[1].to, 2u);
  EXPECT_EQ(arcs[2].to, 3u);
}

TEST(LinkGraphReverse, ArcsAreReversed) {
  const LinkGraph g = diamond();
  const LinkGraph& rev = g.reverse();
  ASSERT_EQ(rev.num_nodes(), g.num_nodes());
  EXPECT_EQ(rev.num_arcs(), g.num_arcs());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Arc& a : g.out_arcs(u)) {
      EXPECT_DOUBLE_EQ(rev.arc_cost(a.to, u), a.cost);
    }
  }
}

TEST(LinkGraphReverse, SecondCallReusesCachedInstance) {
  const LinkGraph g = diamond();
  const LinkGraph* first = &g.reverse();
  EXPECT_EQ(first, &g.reverse());
}

TEST(LinkGraphReverse, MutationInvalidatesCache) {
  LinkGraph g = diamond();
  EXPECT_DOUBLE_EQ(g.reverse().arc_cost(1, 0), 1.0);
  g.set_arc_cost(0, 1, 7.0);
  // A stale cache would still return 1.0 here.
  EXPECT_DOUBLE_EQ(g.reverse().arc_cost(1, 0), 7.0);
  g.set_all_out_costs(0, 2.5);
  EXPECT_DOUBLE_EQ(g.reverse().arc_cost(1, 0), 2.5);
  EXPECT_DOUBLE_EQ(g.reverse().arc_cost(2, 0), 2.5);
}

TEST(LinkGraphReverse, CopySharesCacheUntilMutation) {
  LinkGraph g = diamond();
  const LinkGraph* cached = &g.reverse();
  LinkGraph copy = g;  // same costs: sharing the snapshot is safe
  EXPECT_EQ(&copy.reverse(), cached);
  copy.set_arc_cost(0, 1, 9.0);
  EXPECT_NE(&copy.reverse(), cached);
  EXPECT_EQ(&g.reverse(), cached);  // original cache untouched
  EXPECT_DOUBLE_EQ(g.reverse().arc_cost(1, 0), 1.0);
}

TEST(LinkGraphReverse, RestoreArcCostsInvalidates) {
  LinkGraph g = diamond();
  const std::vector<Cost> snapshot = g.arc_costs();
  g.set_arc_cost(0, 1, 99.0);
  EXPECT_DOUBLE_EQ(g.reverse().arc_cost(1, 0), 99.0);
  g.restore_arc_costs(snapshot);
  EXPECT_DOUBLE_EQ(g.reverse().arc_cost(1, 0), 1.0);
}

}  // namespace
}  // namespace tc::graph
