#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "tgcover/graph/graph.hpp"

namespace tgc::graph {

inline constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

/// BFS hop distances from `src`, truncated at `max_depth` (kUnreached beyond).
std::vector<std::uint32_t> bfs_distances(const Graph& g, VertexId src,
                                         std::uint32_t max_depth = kUnreached);

/// Connected-component labels (0-based); `count` receives the number of
/// components. Isolated vertices form their own components.
std::vector<std::uint32_t> connected_components(const Graph& g,
                                                std::size_t* count = nullptr);

bool is_connected(const Graph& g);

/// Reusable buffers of `count_components` / `is_connected`: a caller that
/// tests graph after graph (the VPT workspace) keeps one and stops touching
/// the allocator once they fit the largest graph seen.
struct ComponentScratch {
  std::vector<std::uint8_t> seen;
  std::vector<VertexId> stack;
};

/// Generic over any Graph-like type exposing num_vertices / neighbors
/// (Graph, BallView); the VPT kernel runs these on arena-backed ball views
/// through its workspace's scratch.
template <typename G>
std::size_t count_components(const G& g, ComponentScratch& scratch) {
  const std::size_t n = g.num_vertices();
  scratch.seen.assign(n, 0);
  scratch.stack.clear();
  std::size_t components = 0;
  for (VertexId s = 0; s < n; ++s) {
    if (scratch.seen[s] != 0) continue;
    scratch.seen[s] = 1;
    scratch.stack.push_back(s);
    while (!scratch.stack.empty()) {
      const VertexId u = scratch.stack.back();
      scratch.stack.pop_back();
      for (const VertexId w : g.neighbors(u)) {
        if (scratch.seen[w] == 0) {
          scratch.seen[w] = 1;
          scratch.stack.push_back(w);
        }
      }
    }
    ++components;
  }
  return components;
}

template <typename G>
bool is_connected(const G& g, ComponentScratch& scratch) {
  return g.num_vertices() <= 1 || count_components(g, scratch) == 1;
}

/// Mask of the vertices in the largest connected component (ties broken
/// toward the smallest component label). Useful for trace-derived graphs,
/// which can come out disconnected.
std::vector<bool> largest_component_mask(const Graph& g);

/// Vertices within `k` hops of `v`, excluding `v` itself — the paper's
/// N^k_H(v). Sorted by vertex id.
std::vector<VertexId> k_hop_neighbors(const Graph& g, VertexId v, unsigned k);

/// Dimension of the GF(2) cycle space: |E| - |V| + #components.
std::size_t cycle_space_dimension(const Graph& g);

/// Shortest-path tree with deterministic lexicographic tie-breaking: among
/// equal-depth parents the smallest vertex id wins. Horton's MCB algorithm
/// needs consistent shortest paths; lexicographic ties keep the candidate
/// set MCB-containing (Algorithm 1 of the paper, lines 2-6).
class ShortestPathTree {
 public:
  /// Builds the SPT of `g` rooted at `root`, truncated at `max_depth`.
  /// Generic over Graph-like types (Graph, BallView).
  ///
  /// `stop_at` stops the build once that vertex's layer completes: every
  /// vertex at depth ≤ depth(stop_at) — the whole root→stop_at path in
  /// particular — gets exactly the parent the untruncated build assigns
  /// (layers finish before the check, so tie-breaking never changes).
  /// Callers that only extract one path (boundary ring stitching) skip the
  /// rest of the graph.
  template <typename G>
  ShortestPathTree(const G& g, VertexId root,
                   std::uint32_t max_depth = kUnreached,
                   VertexId stop_at = kInvalidVertex)
      : root_(root),
        parent_(g.num_vertices(), kInvalidVertex),
        parent_edge_(g.num_vertices(), kInvalidEdge),
        depth_(g.num_vertices(), kUnreached) {
    depth_[root] = 0;
    // Layered BFS processing vertices in increasing id within each layer;
    // combined with sorted adjacency this assigns every vertex the
    // smallest-id eligible parent (lexicographic tie-breaking).
    std::vector<VertexId> layer{root};
    std::uint32_t d = 0;
    while (!layer.empty() && d < max_depth &&
           (stop_at == kInvalidVertex || depth_[stop_at] == kUnreached)) {
      std::vector<VertexId> next;
      for (const VertexId u : layer) {
        const auto nbrs = g.neighbors(u);
        const auto eids = g.incident_edges(u);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const VertexId w = nbrs[j];
          if (depth_[w] == kUnreached) {
            depth_[w] = d + 1;
            parent_[w] = u;
            parent_edge_[w] = eids[j];
            next.push_back(w);
          }
        }
      }
      std::sort(next.begin(), next.end());
      layer = std::move(next);
      ++d;
    }
  }

  VertexId root() const { return root_; }

  bool reached(VertexId v) const { return depth_[v] != kUnreached; }
  std::uint32_t depth(VertexId v) const { return depth_[v]; }

  /// Parent of `v` in the tree (kInvalidVertex for the root / unreached).
  VertexId parent(VertexId v) const { return parent_[v]; }

  /// The tree edge (v, parent(v)); kInvalidEdge for root / unreached.
  EdgeId parent_edge(VertexId v) const { return parent_edge_[v]; }

  /// Lowest common ancestor of two reached vertices.
  VertexId lca(VertexId x, VertexId y) const;

  /// Vertices on the tree path root -> v inclusive, root first.
  std::vector<VertexId> path_from_root(VertexId v) const;

 private:
  VertexId root_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<std::uint32_t> depth_;
};

}  // namespace tgc::graph
