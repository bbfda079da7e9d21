#pragma once

#include <cstddef>
#include <vector>

#include "tgcover/geom/embedding.hpp"
#include "tgcover/geom/point.hpp"
#include "tgcover/graph/graph.hpp"

namespace tgc::geom {

/// Uniform grid of `cell`-sized cells over a point set's bounding box: every
/// point at range ≤ `cell` of a query position lies in the query's 3×3 cell
/// block, so range queries touch O(local density) points instead of all n.
/// This takes the deployment generators (gen::deployments) and the coverage
/// verifier (geom::analyze_coverage) from O(n²)-style scans to near-linear —
/// the difference between minutes and milliseconds at the 10⁵-node scale the
/// scheduler targets.
///
/// The grid indexes a snapshot of `positions` by reference; it must outlive
/// the grid. Cell membership is CSR-packed by counting sort, so construction
/// is one pass and queries are cache-friendly slab scans.
class CellGrid {
 public:
  /// Builds the grid with cells of side `cell` (> 0). `positions` must be
  /// non-empty. Range queries are exact for radii ≤ `cell`.
  CellGrid(const Embedding& positions, double cell);

  /// Appends every v > u with dist(u, v) ≤ cell to `out`, ascending — the
  /// exact (u, v) enumeration an all-pairs scan produces, so callers' edge
  /// insertion order and rng consultation sequence are byte-identical to a
  /// brute-force implementation.
  void neighbors_above(graph::VertexId u, std::vector<graph::VertexId>& out)
      const;

  /// True when any indexed point lies within distance `r` (≤ cell) of `q`.
  /// `q` may be anywhere, including outside the bounding box. This is the
  /// candidate-disk lookup analyze_coverage runs per grid cell: with the
  /// early exit on the first covering disk it makes coverage verification
  /// near-linear instead of rasterizing every disk.
  bool any_within(const Point& q, double r) const;

  /// Number of indexed points within distance `r` (≤ cell) of `q` — the
  /// multiplicity lookup behind k-coverage histograms. Same 3×3-block scan
  /// as any_within without the early exit, so it stays exact and O(local
  /// density) per query.
  std::size_t count_within(const Point& q, double r) const;

 private:
  std::size_t cell_of(const Point& p) const;

  const Embedding& positions_;
  double inv_cell_;
  double cell2_;
  double minx_ = 0.0;
  double miny_ = 0.0;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<std::size_t> offsets_;
  std::vector<graph::VertexId> members_;
};

}  // namespace tgc::geom
