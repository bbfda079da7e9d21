#include <gtest/gtest.h>

#include <algorithm>

#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::graph {
namespace {

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph cycle_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

Graph complete_graph(std::size_t n) {
  GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

// ---------------------------------------------------------------- building

TEST(GraphBuilder, DedupAndSelfLoops) {
  GraphBuilder b(4);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));  // duplicate in reverse order
  EXPECT_FALSE(b.add_edge(2, 2));  // self loop dropped
  EXPECT_TRUE(b.add_edge(2, 3));
  EXPECT_EQ(b.num_edges(), 2u);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphBuilder, OutOfRangeThrows) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), tgc::CheckError);
}

TEST(Graph, AdjacencySortedAndParallelEdgeIds) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(2, 1);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  const auto eids = g.incident_edges(2);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const auto [u, v] = g.edge(eids[i]);
    EXPECT_TRUE((u == 2 && v == nbrs[i]) || (v == 2 && u == nbrs[i]));
  }
}

TEST(Graph, EdgeBetween) {
  const Graph g = cycle_graph(5);
  for (VertexId v = 0; v < 5; ++v) {
    const auto e = g.edge_between(v, (v + 1) % 5);
    ASSERT_TRUE(e.has_value());
    const auto [a, b] = g.edge(*e);
    EXPECT_EQ(a, std::min<VertexId>(v, (v + 1) % 5));
    EXPECT_EQ(b, std::max<VertexId>(v, (v + 1) % 5));
  }
  EXPECT_FALSE(g.edge_between(0, 2).has_value());
  EXPECT_FALSE(g.edge_between(3, 3).has_value());
}

TEST(Graph, DegreeAndAverageDegree) {
  const Graph g = complete_graph(6);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 5.0);
}

TEST(Graph, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(is_connected(g));
}

// --------------------------------------------------------------------- BFS

TEST(Bfs, DistancesOnPath) {
  const Graph g = path_graph(6);
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, TruncatedDepth) {
  const Graph g = path_graph(10);
  const auto dist = bfs_distances(g, 0, 3);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kUnreached);
}

TEST(Bfs, DisconnectedUnreached) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreached);
}

TEST(Components, CountsAndLabels) {
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  // 5 and 6 isolated
  const Graph g = b.build();
  std::size_t count = 0;
  const auto label = connected_components(g, &count);
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(label[0], label[2]);
  EXPECT_EQ(label[3], label[4]);
  EXPECT_NE(label[0], label[3]);
  EXPECT_NE(label[5], label[6]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle_graph(5)));
}

TEST(KHopNeighbors, ExcludesSelfRespectsRadius) {
  const Graph g = path_graph(7);
  const auto n2 = k_hop_neighbors(g, 3, 2);
  EXPECT_EQ(n2, (std::vector<VertexId>{1, 2, 4, 5}));
  const auto n1 = k_hop_neighbors(g, 0, 1);
  EXPECT_EQ(n1, (std::vector<VertexId>{1}));
}

TEST(CycleSpaceDimension, KnownValues) {
  EXPECT_EQ(cycle_space_dimension(path_graph(5)), 0u);        // tree
  EXPECT_EQ(cycle_space_dimension(cycle_graph(5)), 1u);       // one cycle
  EXPECT_EQ(cycle_space_dimension(complete_graph(5)), 6u);    // 10-5+1
  GraphBuilder b(6);  // two triangles, disconnected
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  EXPECT_EQ(cycle_space_dimension(b.build()), 2u);
}

// --------------------------------------------------------------------- SPT

TEST(ShortestPathTree, DepthsMatchBfs) {
  util::Rng rng(77);
  GraphBuilder b(40);
  for (int i = 0; i < 90; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(40));
    const auto v = static_cast<VertexId>(rng.next_below(40));
    b.add_edge(u, v);
  }
  const Graph g = b.build();
  const ShortestPathTree spt(g, 0);
  const auto dist = bfs_distances(g, 0);
  for (VertexId v = 0; v < 40; ++v) {
    if (dist[v] == kUnreached) {
      EXPECT_FALSE(spt.reached(v));
    } else {
      ASSERT_TRUE(spt.reached(v));
      EXPECT_EQ(spt.depth(v), dist[v]);
      if (v != 0) {
        // Parent is one hop closer and adjacent.
        EXPECT_EQ(spt.depth(spt.parent(v)) + 1, spt.depth(v));
        EXPECT_TRUE(g.has_edge(v, spt.parent(v)));
        const auto [a, c] = g.edge(spt.parent_edge(v));
        EXPECT_TRUE((a == v && c == spt.parent(v)) ||
                    (c == v && a == spt.parent(v)));
      }
    }
  }
}

TEST(ShortestPathTree, LexicographicTieBreaking) {
  // 0 - {1,2} - 3: vertex 3 has two equal-depth parents; the smaller id (1)
  // must win.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const ShortestPathTree spt(g, 0);
  EXPECT_EQ(spt.parent(3), 1u);
}

TEST(ShortestPathTree, Lca) {
  // Balanced binary-ish tree rooted at 0.
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(1, 3);
  b.add_edge(1, 4);
  b.add_edge(2, 5);
  b.add_edge(2, 6);
  const Graph g = b.build();
  const ShortestPathTree spt(g, 0);
  EXPECT_EQ(spt.lca(3, 4), 1u);
  EXPECT_EQ(spt.lca(3, 5), 0u);
  EXPECT_EQ(spt.lca(3, 1), 1u);
  EXPECT_EQ(spt.lca(6, 6), 6u);
}

TEST(ShortestPathTree, PathFromRoot) {
  const Graph g = path_graph(5);
  const ShortestPathTree spt(g, 0);
  EXPECT_EQ(spt.path_from_root(3), (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(spt.path_from_root(0), (std::vector<VertexId>{0}));
}

TEST(ShortestPathTree, TruncatedTreeStopsAtDepth) {
  const Graph g = path_graph(10);
  const ShortestPathTree spt(g, 0, 4);
  EXPECT_TRUE(spt.reached(4));
  EXPECT_FALSE(spt.reached(5));
}

// ---------------------------------------------------------------- subgraph

TEST(InduceVertices, MapsEdges) {
  const Graph g = complete_graph(6);
  const std::vector<VertexId> keep{1, 3, 5};
  const InducedSubgraph sub = induce_vertices(g, keep);
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);  // triangle
  EXPECT_EQ(sub.to_parent[sub.local_of(3)], 3u);
  EXPECT_TRUE(sub.contains(5));
  EXPECT_FALSE(sub.contains(0));
}

TEST(InduceVertices, DropsOutsideEdges) {
  const Graph g = path_graph(5);
  const std::vector<VertexId> keep{0, 1, 3};
  const InducedSubgraph sub = induce_vertices(g, keep);
  EXPECT_EQ(sub.graph.num_edges(), 1u);  // only 0-1 survives
  EXPECT_TRUE(
      sub.graph.has_edge(sub.local_of(0), sub.local_of(1)));
}

TEST(InduceVertices, DuplicateThrows) {
  const Graph g = path_graph(3);
  const std::vector<VertexId> keep{0, 0};
  EXPECT_THROW(induce_vertices(g, keep), tgc::CheckError);
}

TEST(FilterActive, KeepsIdsDropsEdges) {
  const Graph g = complete_graph(5);
  std::vector<bool> active(5, true);
  active[2] = false;
  const Graph f = filter_active(g, active);
  EXPECT_EQ(f.num_vertices(), 5u);
  EXPECT_EQ(f.num_edges(), 6u);  // K4 among {0,1,3,4}
  EXPECT_EQ(f.degree(2), 0u);
  EXPECT_TRUE(f.has_edge(0, 4));
  EXPECT_FALSE(f.has_edge(0, 2));
}

// ------------------------------------------------------------ ball views

TEST(BallViewTest, MatchesInducedSubgraph) {
  // The arena-backed BallView must be structurally identical to the
  // builder-based induced subgraph it replaced: same local vertex order
  // (ascending member), same adjacency, and — load-bearing for Horton and
  // the GF(2) pivots — the same edge-id assignment.
  util::Rng rng(9091);
  const gen::Deployment dep = gen::random_connected_udg(130, 4.8, 1.0, rng);
  const Graph& g = dep.graph;
  for (const VertexId v : {VertexId{0}, VertexId{17}, VertexId{64}}) {
    for (const unsigned k : {1u, 2u, 3u}) {
      std::vector<VertexId> members = graph::k_hop_neighbors(g, v, k);
      if (members.empty()) continue;

      std::vector<VertexId> local_of(g.num_vertices(), graph::kInvalidVertex);
      for (VertexId i = 0; i < members.size(); ++i) local_of[members[i]] = i;
      graph::BallView ball;
      ball.build(members.size(), [&](VertexId la, auto&& emit) {
        for (const VertexId b : g.neighbors(members[la])) {
          if (local_of[b] != graph::kInvalidVertex) emit(local_of[b]);
        }
      });

      const graph::InducedSubgraph want = graph::induce_vertices(g, members);
      ASSERT_EQ(ball.num_vertices(), want.graph.num_vertices());
      ASSERT_EQ(ball.num_edges(), want.graph.num_edges());
      for (VertexId lu = 0; lu < ball.num_vertices(); ++lu) {
        const auto got_n = ball.neighbors(lu);
        const auto want_n = want.graph.neighbors(lu);
        ASSERT_EQ(got_n.size(), want_n.size()) << "v " << v << " local " << lu;
        EXPECT_TRUE(std::equal(got_n.begin(), got_n.end(), want_n.begin()));
        const auto got_e = ball.incident_edges(lu);
        const auto want_e = want.graph.incident_edges(lu);
        EXPECT_TRUE(std::equal(got_e.begin(), got_e.end(), want_e.begin()));
      }
      for (graph::EdgeId e = 0; e < ball.num_edges(); ++e) {
        EXPECT_EQ(ball.edge(e), want.graph.edge(e)) << "edge " << e;
      }
    }
  }
}

TEST(BallViewTest, RejectsAsymmetricRows) {
  // Each direction of a one-sided link: a lower row naming a higher vertex
  // whose row omits it, and a higher row naming a lower one that omits it.
  const std::vector<std::vector<VertexId>> lower_only = {{1, 2}, {0}, {}};
  const std::vector<std::vector<VertexId>> higher_only = {{1}, {0}, {0}};
  for (const auto* rows : {&lower_only, &higher_only}) {
    graph::BallView ball;
    EXPECT_THROW(ball.build(rows->size(),
                            [&](VertexId la, auto&& emit) {
                              for (const VertexId lb : (*rows)[la]) emit(lb);
                            }),
                 tgc::CheckError);
  }
}

}  // namespace
}  // namespace tgc::graph
