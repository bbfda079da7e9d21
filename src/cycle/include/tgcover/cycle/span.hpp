#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tgcover/cycle/candidates.hpp"
#include "tgcover/cycle/cycle.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/util/gf2_elim.hpp"

namespace tgc::cycle {

/// Reusable buffers of the τ-span kernel (DESIGN.md §3). The kernel copies
/// the graph into a CSR in root order, fixes fundamental-cycle coordinates
/// from one BFS spanning forest, grows one depth-⌊τ/2⌋ BFS tree per root
/// over the root and the vertices after it, and eliminates each emitted
/// chord cycle in a flat word arena. Every
/// buffer only grows, so a worker testing ball after ball stops touching
/// the allocator once they fit the largest ball seen. One instance per
/// thread (it is not synchronized); the VPT workspace owns one.
struct SpanScratch {
  /// Per-vertex state of the current root's tree; `stamp == epoch` marks
  /// the vertices it reached.
  struct Reach {
    std::uint32_t stamp = 0;
    std::uint32_t depth = 0;
    std::uint32_t order = 0;       ///< position in the BFS queue
    graph::VertexId parent = 0;
    std::int32_t up = -1;          ///< coordinate of the parent edge, or -1
  };

  std::vector<std::uint32_t> label;     ///< vertex → root-order position
  std::vector<std::uint32_t> offsets;   ///< CSR of the graph in root order
  std::vector<std::uint64_t> adj;       ///< neighbour << 32 | edge, sorted
  std::vector<std::int32_t> coord;      ///< edge → coordinate, -1 on forest
  std::vector<Reach> reach;             ///< vertex-indexed
  std::uint32_t epoch = 0;
  std::vector<graph::VertexId> queue;   ///< BFS queue (forest and roots)
  std::vector<std::uint64_t> rows;      ///< rank × words arena + spare row
  std::vector<std::int32_t> pivot_row;  ///< coordinate → row, -1 = none
  /// Bit i of vertex v: root i (< 64) reached v, / reached it at the depth
  /// cap. Recorded when root i finishes.
  std::vector<std::uint64_t> reached_by;
  std::vector<std::uint64_t> rim_of;
};

/// Do the cycles of length ≤ τ span the whole cycle space of `g`? This is
/// equivalent to "the maximum irreducible cycle of `g` has length ≤ τ" (see
/// DESIGN.md §3), which is the expensive half of the
/// τ-void-preserving-transformation deletability test (Definition 5).
///
/// Each root's tree spans only the root and the vertices after it in the
/// root order, so each short cycle is generated from its first vertex rather
/// than from every vertex on it; candidates are eliminated as they are
/// emitted, and the test exits as soon as the rank reaches ν.
bool short_cycles_span(const graph::Graph& g, std::uint32_t tau);

/// `short_cycles_span` evaluated through caller-owned scratch storage.
bool short_cycles_span(const graph::Graph& g, std::uint32_t tau,
                       SpanScratch& scratch);

/// The same span test over an arena-backed punctured ball view — the VPT
/// hot path. Identical candidate enumeration and elimination order as the
/// Graph overload on the same structure (BallView reproduces GraphBuilder's
/// edge-id assignment), so the logical-cost counters are byte-identical too.
bool short_cycles_span(const graph::BallView& g, std::uint32_t tau,
                       SpanScratch& scratch);

/// Membership test: is `target` (an edge-incidence vector over g's edges) in
/// the subspace S_τ spanned by cycles of length ≤ τ? This is the
/// τ-partitionability test of Definitions 2/3. A target with an odd-degree
/// vertex is not a cycle-space element and is rejected outright; otherwise
/// its fundamental-cycle coordinates are reduced against the span kernel's
/// basis, which short-circuits to true once S_τ is the whole cycle space.
bool short_cycles_contain(const graph::Graph& g, std::uint32_t tau,
                          const util::Gf2Vector& target);

/// A basis of the subspace S_τ spanned by all cycles of length ≤ τ, with
/// optional explicit partition certificates.
///
/// `contains` implements the τ-partitionability test of Definition 3: a
/// cycle-space element (e.g. the sum of the boundary cycles CB) is
/// τ-partitionable iff it lies in S_τ. With `with_certificates`, an explicit
/// cycle partition (Definition 2) — a set of cycles of length ≤ τ summing to
/// the target — can be extracted.
class ShortCycleBasis {
 public:
  ShortCycleBasis(const graph::Graph& g, std::uint32_t tau,
                  bool with_certificates = false);

  std::uint32_t tau() const { return tau_; }
  std::size_t rank() const { return elim_.rank(); }
  std::size_t cycle_space_dim() const { return nu_; }

  /// True iff S_τ is the whole cycle space (max irreducible cycle ≤ τ).
  bool spans_cycle_space() const { return elim_.rank() == nu_; }

  /// τ-partitionability of `target` (an edge-incidence vector over g's
  /// edges). The caller is responsible for `target` being a cycle-space
  /// element; arbitrary vectors simply test subspace membership.
  bool contains(const util::Gf2Vector& target) const {
    return elim_.in_span(target);
  }

  /// Explicit cycle partition of `target` into generators of length ≤ τ.
  /// Requires construction with `with_certificates`; nullopt when `target`
  /// is not τ-partitionable.
  std::optional<std::vector<Cycle>> partition_of(
      const util::Gf2Vector& target) const;

 private:
  std::uint32_t tau_;
  std::size_t nu_;
  bool with_certificates_;
  std::vector<CandidateCycle> generators_;  // kept only with certificates
  util::Gf2Eliminator elim_;
};

}  // namespace tgc::cycle
