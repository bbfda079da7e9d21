#pragma once

#include <cstdint>
#include <vector>

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/util/gf2.hpp"

namespace tgc::cycle {

/// A candidate cycle produced by the Horton-style generator.
struct CandidateCycle {
  util::Gf2Vector edges;
  std::uint32_t length = 0;
};

struct CandidateOptions {
  /// BFS trees are truncated at this depth. kUnreached = full trees.
  std::uint32_t depth_limit = graph::kUnreached;
  /// Candidates longer than this are discarded. kUnreached = keep all.
  std::uint32_t max_length = graph::kUnreached;
  /// When true, keep only candidates whose chord endpoints have their lowest
  /// common ancestor at the BFS root — the literal candidate set of
  /// Algorithm 1, line 5. When false (default), keep the fundamental cycle of
  /// every chord of every rooted tree; this is a mod-2 superset of the
  /// Algorithm 1 set (the tree-path segments above the LCA cancel), so the
  /// greedy basis it yields is still a minimum cycle basis, and the
  /// length-bounded variant exactly spans the short-cycle subspace (see
  /// DESIGN.md §3).
  bool lca_at_root_only = false;
};

/// Horton candidate cycles of `g`, deduplicated by incidence vector.
///
/// For every root v, a lexicographic shortest-path tree is built (ties broken
/// toward the smallest vertex id, giving unique subpath-closed shortest
/// paths). For every non-tree edge (x, y) reached by the tree, the candidate
/// is the fundamental cycle of that chord: tree path x→lca, tree path y→lca,
/// plus the chord; its length is depth(x) + depth(y) + 1 - 2·depth(lca).
///
/// Candidates are returned sorted by increasing length (then by an arbitrary
/// deterministic key) — the order Algorithm 1 consumes them in (line 7).
std::vector<CandidateCycle> fundamental_cycle_candidates(
    const graph::Graph& g, const CandidateOptions& options = {});

}  // namespace tgc::cycle
