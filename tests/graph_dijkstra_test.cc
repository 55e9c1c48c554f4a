#include "graph/dijkstra.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"

namespace crowdrtse::graph {
namespace {

/// Runs DijkstraInto with every edge weighing `weight`.
DijkstraWorkspace Uniform(const Graph& g, RoadId source, double weight) {
  const std::vector<double> weights(static_cast<size_t>(g.num_edges()),
                                    weight);
  DijkstraWorkspace ws;
  DijkstraInto(g, source, weights, ws);
  return ws;
}

TEST(DijkstraTest, PathGraphDistances) {
  const Graph g = *PathNetwork(5);
  const DijkstraWorkspace tree = Uniform(g, 0, 2.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(tree.distance[static_cast<size_t>(i)], 2.0 * i);
  }
}

TEST(DijkstraTest, PrefersCheaperLongerPath) {
  // 0 -e0- 1 -e1- 2  and direct chord 0 -e2- 2 with a high weight.
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);  // e0
  builder.AddEdge(1, 2);  // e1
  builder.AddEdge(0, 2);  // e2
  const Graph g = *builder.Build();
  const std::vector<double> w{1.0, 1.0, 10.0};
  DijkstraWorkspace tree;
  DijkstraInto(g, 0, w, tree);
  EXPECT_DOUBLE_EQ(tree.distance[2], 2.0);
  EXPECT_EQ(ReconstructPath(tree, 0, 2), (std::vector<RoadId>{0, 1, 2}));
}

TEST(DijkstraTest, UnreachableIsInfinity) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  const Graph g = *builder.Build();
  const DijkstraWorkspace tree = Uniform(g, 0, 1.0);
  EXPECT_EQ(tree.distance[2], kUnreachable);
  EXPECT_TRUE(ReconstructPath(tree, 0, 2).empty());
}

TEST(DijkstraTest, SourceDistanceZero) {
  const Graph g = *RingNetwork(6);
  const DijkstraWorkspace tree = Uniform(g, 3, 1.0);
  EXPECT_DOUBLE_EQ(tree.distance[3], 0.0);
  EXPECT_EQ(tree.parent[3], kInvalidRoad);
}

TEST(DijkstraTest, RingGoesBothWays) {
  const Graph g = *RingNetwork(8);
  const DijkstraWorkspace tree = Uniform(g, 0, 1.0);
  EXPECT_DOUBLE_EQ(tree.distance[4], 4.0);
  EXPECT_DOUBLE_EQ(tree.distance[6], 2.0);  // shorter backwards
}

TEST(DijkstraTest, InfiniteWeightEdgeBlocked) {
  const Graph g = *PathNetwork(3);
  const std::vector<double> w{1.0, kUnreachable};
  DijkstraWorkspace tree;
  DijkstraInto(g, 0, w, tree);
  EXPECT_DOUBLE_EQ(tree.distance[1], 1.0);
  EXPECT_EQ(tree.distance[2], kUnreachable);
}

TEST(DijkstraTest, NegativeWeightEdgeBlocked) {
  const Graph g = *PathNetwork(3);
  const std::vector<double> w{1.0, -1.0};
  DijkstraWorkspace tree;
  DijkstraInto(g, 0, w, tree);
  EXPECT_EQ(tree.distance[2], kUnreachable);
}

TEST(DijkstraTest, InvalidSourceAllUnreachable) {
  const Graph g = *PathNetwork(3);
  const DijkstraWorkspace tree = Uniform(g, 99, 1.0);
  for (double d : tree.distance) EXPECT_EQ(d, kUnreachable);
}

TEST(DijkstraTest, ReconstructPathSingleNode) {
  const Graph g = *PathNetwork(3);
  const DijkstraWorkspace tree = Uniform(g, 1, 1.0);
  EXPECT_EQ(ReconstructPath(tree, 1, 1), (std::vector<RoadId>{1}));
}

TEST(DijkstraTest, GridMatchesManhattanWithUnitWeights) {
  const Graph g = *GridNetwork(5, 5);
  const DijkstraWorkspace tree = Uniform(g, 0, 1.0);
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_DOUBLE_EQ(tree.distance[static_cast<size_t>(r * 5 + c)],
                       static_cast<double>(r + c));
    }
  }
}

TEST(DijkstraTest, ReusedWorkspaceGivesFreshResults) {
  // The Γ_R fan-out and the trip simulator reuse one workspace across
  // sources: a second run must not keep distances or parents from the
  // first.
  const Graph g = *PathNetwork(4);
  const std::vector<double> w(3, 1.0);
  DijkstraWorkspace ws;
  DijkstraInto(g, 0, w, ws);
  DijkstraInto(g, 3, w, ws);
  EXPECT_EQ(ws.distance, (std::vector<double>{3.0, 2.0, 1.0, 0.0}));
  EXPECT_EQ(ReconstructPath(ws, 3, 0), (std::vector<RoadId>{3, 2, 1, 0}));
  EXPECT_TRUE(ReconstructPath(ws, 0, 3).empty());
}

}  // namespace
}  // namespace crowdrtse::graph
