#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "tgcover/gen/deployments.hpp"
#include "tgcover/geom/cell_grid.hpp"
#include "tgcover/geom/coverage.hpp"
#include "tgcover/geom/embedding.hpp"
#include "tgcover/geom/min_circle.hpp"
#include "tgcover/geom/point.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::geom {
namespace {

// ------------------------------------------------------------------- Point

TEST(Point, Distances) {
  EXPECT_DOUBLE_EQ(dist({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(dist2({1, 1}, {2, 2}), 2.0);
}

TEST(Rect, ContainsAndClearance) {
  const Rect r{0, 0, 10, 6};
  EXPECT_TRUE(r.contains({5, 3}));
  EXPECT_FALSE(r.contains({11, 3}));
  EXPECT_DOUBLE_EQ(r.interior_clearance({5, 3}), 3.0);
  EXPECT_DOUBLE_EQ(r.interior_clearance({1, 3}), 1.0);
  EXPECT_DOUBLE_EQ(r.interior_clearance({-1, 3}), 0.0);
  const Rect s = r.shrunk(1.0);
  EXPECT_DOUBLE_EQ(s.xmin, 1.0);
  EXPECT_DOUBLE_EQ(s.ymax, 5.0);
  EXPECT_DOUBLE_EQ(s.width(), 8.0);
}

// ------------------------------------------------------------- min circle

TEST(MinCircle, SinglePoint) {
  const Circle c = min_enclosing_circle(std::vector<Point>{{2, 3}});
  EXPECT_DOUBLE_EQ(c.radius, 0.0);
  EXPECT_DOUBLE_EQ(c.center.x, 2.0);
}

TEST(MinCircle, TwoPointsDiametral) {
  const Circle c = min_enclosing_circle(std::vector<Point>{{0, 0}, {4, 0}});
  EXPECT_NEAR(c.radius, 2.0, 1e-9);
  EXPECT_NEAR(c.center.x, 2.0, 1e-9);
  EXPECT_NEAR(c.center.y, 0.0, 1e-9);
}

TEST(MinCircle, EquilateralTriangleCircumcircle) {
  const double s = 2.0;
  const std::vector<Point> pts{
      {0, 0}, {s, 0}, {s / 2, s * std::sqrt(3.0) / 2.0}};
  const Circle c = min_enclosing_circle(pts);
  EXPECT_NEAR(c.radius, s / std::sqrt(3.0), 1e-9);
}

TEST(MinCircle, ObtuseTriangleUsesLongestSide) {
  // For an obtuse triangle the min circle is the diametral circle of the
  // longest side, not the circumcircle.
  const std::vector<Point> pts{{0, 0}, {10, 0}, {5, 0.5}};
  const Circle c = min_enclosing_circle(pts);
  EXPECT_NEAR(c.radius, 5.0, 1e-6);
}

TEST(MinCircle, CollinearPoints) {
  const std::vector<Point> pts{{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  const Circle c = min_enclosing_circle(pts);
  EXPECT_NEAR(c.radius, dist({0, 0}, {3, 3}) / 2.0, 1e-9);
}

TEST(MinCircle, DuplicatePoints) {
  const std::vector<Point> pts{{1, 1}, {1, 1}, {1, 1}};
  const Circle c = min_enclosing_circle(pts);
  EXPECT_NEAR(c.radius, 0.0, 1e-12);
}

TEST(MinCircle, ContainsAllRandomPoints) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Point> pts;
    const int n = 3 + static_cast<int>(rng.next_below(60));
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(-5, 5), rng.uniform(-5, 5)});
    }
    const Circle c = min_enclosing_circle(pts);
    for (const Point& p : pts) EXPECT_TRUE(c.contains(p, 1e-7));
    // Minimality: the circle of the farthest pair lower-bounds the radius.
    double far2 = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (std::size_t j = i + 1; j < pts.size(); ++j) {
        far2 = std::max(far2, dist2(pts[i], pts[j]));
      }
    }
    EXPECT_GE(c.radius + 1e-9, std::sqrt(far2) / 2.0);
  }
}

// --------------------------------------------------------------- embedding

TEST(Embedding, ValidityChecks) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const graph::Graph g = b.build();
  const Embedding ok{{0, 0}, {0.8, 0}, {1.6, 0}};
  EXPECT_TRUE(is_valid_embedding(g, ok, 1.0));
  // 0 and 2 are within range but not connected: fine in the general model,
  // invalid as a UDG realization.
  const Embedding close{{0, 0}, {0.5, 0}, {0.9, 0}};
  EXPECT_TRUE(is_valid_embedding(g, close, 1.0));
  EXPECT_FALSE(is_valid_udg_embedding(g, close, 1.0));
  EXPECT_TRUE(is_valid_udg_embedding(g, ok, 1.0));
  // A link longer than rc invalidates both.
  const Embedding stretched{{0, 0}, {1.5, 0}, {2.1, 0}};
  EXPECT_FALSE(is_valid_embedding(g, stretched, 1.0));
}

TEST(Embedding, MaxLinkLength) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Embedding emb{{0, 0}, {0.5, 0}, {1.4, 0}};
  EXPECT_NEAR(max_link_length(b.build(), emb), 0.9, 1e-12);
}

// ---------------------------------------------------------------- coverage

TEST(Coverage, SingleDiskCoversSmallTarget) {
  const Embedding nodes{{5, 5}};
  const std::vector<bool> active{true};
  const Rect target{4, 4, 6, 6};
  const auto a = analyze_coverage(nodes, active, 2.0, target);
  EXPECT_TRUE(a.blanket());
  EXPECT_DOUBLE_EQ(a.covered_fraction, 1.0);
  EXPECT_EQ(a.max_hole_diameter, 0.0);
}

TEST(Coverage, InactiveNodesDoNotCover) {
  const Embedding nodes{{5, 5}};
  const std::vector<bool> active{false};
  const Rect target{4, 4, 6, 6};
  const auto a = analyze_coverage(nodes, active, 2.0, target);
  EXPECT_FALSE(a.blanket());
  EXPECT_DOUBLE_EQ(a.covered_fraction, 0.0);
  EXPECT_EQ(a.holes.size(), 1u);
}

TEST(Coverage, CentralHoleDetectedAndMeasured) {
  // Four sensors at the corners of a 4×4 target with rs = 2.5: the disks
  // overlap along the edges but miss a small pillow around the center
  // (corner distance to center is 2√2 ≈ 2.83 > 2.5). The hole's extreme
  // points lie on the axis mid-lines at distance 0.5 from the center, so the
  // min circumscribing circle has diameter 1 (plus one cell diagonal).
  const Embedding nodes{{0, 0}, {4, 0}, {0, 4}, {4, 4}};
  const std::vector<bool> active(4, true);
  const Rect target{0, 0, 4, 4};
  CoverageGridOptions opt;
  opt.cell_size = 0.02;
  const auto a = analyze_coverage(nodes, active, 2.5, target, opt);
  ASSERT_EQ(a.holes.size(), 1u);
  EXPECT_NEAR(a.max_hole_diameter, 1.0, 0.1);
  EXPECT_GT(a.covered_fraction, 0.95);
}

TEST(Coverage, SeparateHolesSeparated) {
  // Two thin uncovered strips on the left and right of a central column of
  // overlapping sensors.
  Embedding nodes;
  for (double y = 0.0; y <= 8.0; y += 0.5) nodes.push_back({4.0, y});
  const std::vector<bool> active(nodes.size(), true);
  const Rect target{0, 0, 8, 8};
  CoverageGridOptions opt;
  opt.cell_size = 0.1;
  const auto a = analyze_coverage(nodes, active, 2.5, target, opt);
  EXPECT_EQ(a.holes.size(), 2u);
}

TEST(Coverage, CellSizeRefinementConverges) {
  const Embedding nodes{{0, 0}, {4, 0}, {0, 4}, {4, 4}};
  const std::vector<bool> active(4, true);
  const Rect target{0, 0, 4, 4};
  CoverageGridOptions coarse;
  coarse.cell_size = 0.2;
  CoverageGridOptions fine;
  fine.cell_size = 0.02;
  const auto ac = analyze_coverage(nodes, active, 2.5, target, coarse);
  const auto af = analyze_coverage(nodes, active, 2.5, target, fine);
  EXPECT_NEAR(ac.max_hole_diameter, af.max_hole_diameter, 0.5);
}

// A from-first-principles re-implementation of the hole analysis: brute
// force rasterization, 8-connected flood fill, min circle + cell diagonal.
// Mirrors the documented algorithm, not the CellGrid-accelerated code path.
CoverageAnalysis brute_force_holes(const Embedding& nodes,
                                   const std::vector<bool>& active, double rs,
                                   const Rect& target, double cell) {
  const auto nx = static_cast<std::size_t>(std::ceil(target.width() / cell));
  const auto ny = static_cast<std::size_t>(std::ceil(target.height() / cell));
  const auto center_of = [&](std::size_t ix, std::size_t iy) {
    return Point{target.xmin + (static_cast<double>(ix) + 0.5) * cell,
                 target.ymin + (static_cast<double>(iy) + 0.5) * cell};
  };
  std::vector<char> covered(nx * ny, 0);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      for (std::size_t v = 0; v < nodes.size(); ++v) {
        if (active[v] && dist2(center_of(ix, iy), nodes[v]) <= rs * rs) {
          covered[iy * nx + ix] = 1;
          break;
        }
      }
    }
  }
  CoverageAnalysis out;
  out.total_cells = nx * ny;
  std::vector<char> visited(nx * ny, 0);
  for (std::size_t start = 0; start < nx * ny; ++start) {
    if (covered[start] || visited[start]) continue;
    CoverageHole hole;
    std::vector<std::size_t> stack{start};
    visited[start] = 1;
    while (!stack.empty()) {
      const std::size_t idx = stack.back();
      stack.pop_back();
      hole.cells.push_back(center_of(idx % nx, idx / nx));
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const std::int64_t jx =
              static_cast<std::int64_t>(idx % nx) + dx;
          const std::int64_t jy =
              static_cast<std::int64_t>(idx / nx) + dy;
          if ((dx == 0 && dy == 0) || jx < 0 || jy < 0 ||
              jx >= static_cast<std::int64_t>(nx) ||
              jy >= static_cast<std::int64_t>(ny)) {
            continue;
          }
          const std::size_t jdx =
              static_cast<std::size_t>(jy) * nx + static_cast<std::size_t>(jx);
          if (!covered[jdx] && !visited[jdx]) {
            visited[jdx] = 1;
            stack.push_back(jdx);
          }
        }
      }
    }
    hole.diameter = 2.0 * min_enclosing_circle(hole.cells).radius +
                    cell * std::numbers::sqrt2;
    out.max_hole_diameter = std::max(out.max_hole_diameter, hole.diameter);
    out.holes.push_back(std::move(hole));
  }
  return out;
}

TEST(Coverage, HoleDiameterMatchesBruteForceAtSmallN) {
  util::Rng rng(31);
  const Rect target{0, 0, 3, 3};
  for (int trial = 0; trial < 12; ++trial) {
    Embedding nodes;
    const std::size_t n = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back({rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)});
    }
    std::vector<bool> active(n, true);
    if (n > 2) active[rng.next_below(n)] = false;
    const double rs = rng.uniform(0.5, 1.5);
    CoverageGridOptions opt;
    opt.cell_size = 0.1;
    const CoverageAnalysis got =
        analyze_coverage(nodes, active, rs, target, opt);
    const CoverageAnalysis want =
        brute_force_holes(nodes, active, rs, target, opt.cell_size);
    ASSERT_EQ(got.holes.size(), want.holes.size()) << "trial=" << trial;
    EXPECT_NEAR(got.max_hole_diameter, want.max_hole_diameter, 1e-9)
        << "trial=" << trial;
  }
}

TEST(Coverage, FullCoverageHasNoHoles) {
  // One disk swallows the whole target: no holes, diameter exactly 0, and
  // the k-histogram puts every cell at multiplicity ≥ 1.
  const Embedding nodes{{2, 2}};
  const std::vector<bool> active{true};
  const Rect target{1.5, 1.5, 2.5, 2.5};
  CoverageGridOptions opt;
  opt.k_max = 3;
  const CoverageAnalysis a = analyze_coverage(nodes, active, 5.0, target, opt);
  EXPECT_TRUE(a.blanket());
  EXPECT_DOUBLE_EQ(a.max_hole_diameter, 0.0);
  EXPECT_DOUBLE_EQ(a.covered_fraction, 1.0);
  ASSERT_EQ(a.k_histogram.size(), 4u);
  EXPECT_EQ(a.k_histogram[0], 0u);
  EXPECT_EQ(a.k_histogram[1], a.total_cells);
  EXPECT_DOUBLE_EQ(a.redundancy(), 1.0);
}

TEST(Coverage, EmptyAwakeSetIsOneWholeAreaHole) {
  const Embedding nodes{{1, 1}, {3, 3}};
  const std::vector<bool> active{false, false};
  const Rect target{0, 0, 4, 4};
  CoverageGridOptions opt;
  opt.cell_size = 0.1;
  opt.k_max = 3;
  const CoverageAnalysis a = analyze_coverage(nodes, active, 1.0, target, opt);
  EXPECT_DOUBLE_EQ(a.covered_fraction, 0.0);
  ASSERT_EQ(a.holes.size(), 1u);
  // The single hole spans the whole target: its min circle circumscribes
  // the outermost cell centers (target diagonal minus one cell diagonal),
  // plus the reported cell-extent diagonal.
  EXPECT_NEAR(a.max_hole_diameter, dist({0, 0}, {4, 4}), 0.01);
  // The hole touches the target border, so it is open — not confined by any
  // cycle — and contributes nothing to the Proposition 1 comparison.
  EXPECT_TRUE(a.holes[0].open);
  EXPECT_DOUBLE_EQ(a.max_confined_hole_diameter, 0.0);
  ASSERT_EQ(a.k_histogram.size(), 4u);
  EXPECT_EQ(a.k_histogram[0], a.total_cells);
  EXPECT_EQ(a.multiplicity_sum, 0u);
  EXPECT_DOUBLE_EQ(a.redundancy(), 0.0);
}

TEST(Coverage, InteriorPocketIsConfinedAndOpenMarginIsNot) {
  // Four corner disks leave an uncovered lens strictly inside the target:
  // that hole is confined (open == false) and drives the confined maximum,
  // the quantity the Proposition 1 audit compares against (τ−2)·Rc.
  const Embedding nodes{{0, 0}, {3, 0}, {0, 3}, {3, 3}};
  const std::vector<bool> active{true, true, true, true};
  const Rect target{0, 0, 3, 3};
  const CoverageAnalysis a = analyze_coverage(nodes, active, 1.6, target);
  ASSERT_EQ(a.holes.size(), 1u);
  EXPECT_FALSE(a.holes[0].open);
  EXPECT_GT(a.max_confined_hole_diameter, 0.0);
  EXPECT_DOUBLE_EQ(a.max_confined_hole_diameter, a.max_hole_diameter);
}

// ---------------------------------------------------------------- CellGrid

Embedding random_embedding(std::size_t n, double side, util::Rng& rng) {
  Embedding nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return nodes;
}

TEST(CellGrid, NeighborsAboveMatchesBruteForce) {
  util::Rng rng(7);
  for (const std::size_t n : {1UL, 2UL, 37UL, 120UL}) {
    const double r = 1.0;
    const Embedding nodes = random_embedding(n, 6.0, rng);
    const CellGrid grid(nodes, r);
    std::vector<graph::VertexId> got;
    for (graph::VertexId u = 0; u < n; ++u) {
      grid.neighbors_above(u, got);
      std::vector<graph::VertexId> want;
      for (graph::VertexId v = u + 1; v < n; ++v) {
        if (dist2(nodes[u], nodes[v]) <= r * r) want.push_back(v);
      }
      EXPECT_EQ(got, want) << "n=" << n << " u=" << u;
    }
  }
}

TEST(CellGrid, AnyWithinMatchesBruteForceForArbitraryQueries) {
  util::Rng rng(11);
  const Embedding nodes = random_embedding(80, 5.0, rng);
  const CellGrid grid(nodes, 0.8);
  for (int q = 0; q < 500; ++q) {
    // Queries deliberately range outside the bounding box too.
    const Point p{rng.uniform(-2.0, 7.0), rng.uniform(-2.0, 7.0)};
    const double r = rng.uniform(0.05, 0.8);
    bool want = false;
    for (const Point& v : nodes) {
      if (dist2(p, v) <= r * r) want = true;
    }
    EXPECT_EQ(grid.any_within(p, r), want)
        << "q=(" << p.x << "," << p.y << ") r=" << r;
  }
}

TEST(CellGrid, CountWithinMatchesBruteForceForArbitraryQueries) {
  util::Rng rng(13);
  const Embedding nodes = random_embedding(80, 5.0, rng);
  const CellGrid grid(nodes, 0.8);
  for (int q = 0; q < 500; ++q) {
    const Point p{rng.uniform(-2.0, 7.0), rng.uniform(-2.0, 7.0)};
    const double r = rng.uniform(0.05, 0.8);
    std::size_t want = 0;
    for (const Point& v : nodes) {
      if (dist2(p, v) <= r * r) ++want;
    }
    EXPECT_EQ(grid.count_within(p, r), want)
        << "q=(" << p.x << "," << p.y << ") r=" << r;
  }
}

TEST(CellGrid, KHistogramMatchesBruteForceMultiplicity) {
  // The multiplicity path must agree with a naive per-cell disk count, and
  // requesting the histogram must not change the covered set.
  util::Rng rng(29);
  const Embedding nodes = random_embedding(50, 4.0, rng);
  std::vector<bool> active(nodes.size(), true);
  for (std::size_t v = 0; v < active.size(); v += 4) active[v] = false;
  const Rect target{0.3, 0.3, 3.7, 3.7};
  const double rs = 0.7;
  CoverageGridOptions opt;
  opt.cell_size = 0.1;
  opt.k_max = 4;
  const CoverageAnalysis a = analyze_coverage(nodes, active, rs, target, opt);
  CoverageGridOptions plain = opt;
  plain.k_max = 0;
  const CoverageAnalysis p = analyze_coverage(nodes, active, rs, target, plain);
  EXPECT_EQ(a.covered_cells, p.covered_cells);
  EXPECT_EQ(a.holes.size(), p.holes.size());
  EXPECT_DOUBLE_EQ(a.max_hole_diameter, p.max_hole_diameter);

  const auto nx =
      static_cast<std::size_t>(std::ceil(target.width() / opt.cell_size));
  const auto ny =
      static_cast<std::size_t>(std::ceil(target.height() / opt.cell_size));
  std::vector<std::size_t> want(opt.k_max + 1, 0);
  std::uint64_t mass = 0;
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const Point c{
          target.xmin + (static_cast<double>(ix) + 0.5) * opt.cell_size,
          target.ymin + (static_cast<double>(iy) + 0.5) * opt.cell_size};
      std::size_t k = 0;
      for (std::size_t v = 0; v < nodes.size(); ++v) {
        if (active[v] && dist2(c, nodes[v]) <= rs * rs) ++k;
      }
      mass += k;
      ++want[std::min(k, opt.k_max)];
    }
  }
  EXPECT_EQ(a.k_histogram, want);
  EXPECT_EQ(a.multiplicity_sum, mass);
}

TEST(CellGrid, CoverageMatchesBruteForceRasterization) {
  // analyze_coverage marks cells via the CellGrid fast path; the defining
  // predicate (∃ active disk center within rs of the cell center) must give
  // the identical covered set.
  util::Rng rng(23);
  const Embedding nodes = random_embedding(60, 4.0, rng);
  std::vector<bool> active(nodes.size(), true);
  for (std::size_t v = 0; v < active.size(); v += 3) active[v] = false;
  const Rect target{0.3, 0.3, 3.7, 3.7};
  const double rs = 0.6;
  CoverageGridOptions opt;
  opt.cell_size = 0.1;
  const CoverageAnalysis a = analyze_coverage(nodes, active, rs, target, opt);

  const auto nx = static_cast<std::size_t>(
      std::ceil(target.width() / opt.cell_size));
  const auto ny = static_cast<std::size_t>(
      std::ceil(target.height() / opt.cell_size));
  std::size_t covered = 0;
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const Point c{
          target.xmin + (static_cast<double>(ix) + 0.5) * opt.cell_size,
          target.ymin + (static_cast<double>(iy) + 0.5) * opt.cell_size};
      for (std::size_t v = 0; v < nodes.size(); ++v) {
        if (active[v] && dist2(c, nodes[v]) <= rs * rs) {
          ++covered;
          break;
        }
      }
    }
  }
  EXPECT_EQ(a.total_cells, nx * ny);
  EXPECT_EQ(a.covered_cells, covered);
  EXPECT_GT(a.covered_cells, 0u);
  EXPECT_LT(a.covered_cells, a.total_cells);
}

// ------------------------------------------------------------- generators

TEST(CellGridTest, UdgEdgesMatchBruteForceScan) {
  // The cell-grid generator must reproduce the quadratic all-pairs scan
  // exactly: same edge set in the same edge-id (insertion) order. Dozens of
  // tests pin seeded topologies, so any reordering would show up loudly —
  // this test states the contract directly.
  using graph::Graph;
  using graph::VertexId;
  util::Rng rng(314);
  const gen::Deployment dep = gen::random_udg(600, 10.0, 1.0, rng);
  const Graph& g = dep.graph;
  std::size_t next_edge = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
      if (geom::dist2(dep.positions[u], dep.positions[v]) <= dep.rc * dep.rc) {
        ASSERT_LT(next_edge, g.num_edges());
        EXPECT_EQ(g.edge(next_edge), std::make_pair(u, v));
        ++next_edge;
      }
    }
  }
  EXPECT_EQ(next_edge, g.num_edges());
}

}  // namespace
}  // namespace tgc::geom
