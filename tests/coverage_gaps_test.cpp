// Edge cases and smaller APIs not exercised by the module suites:
// 4-connected flood fill, SVG style switches, priority-based MIS,
// dcc_schedule_from, smallest_certifiable_tau, CDF/trace corners.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "test_dirs.hpp"
#include "tgcover/core/criterion.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/cycle/cycle.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/geom/coverage.hpp"
#include "tgcover/io/svg.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/trace/trace.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/stats.hpp"

namespace tgc {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

// ---------------------------------------------------------- geom corners

TEST(CoverageGaps, FourConnectedFloodSplitsDiagonalHoles) {
  // Two uncovered cells touching only at a corner: 8-connected flooding
  // merges them into one hole, 4-connected keeps them apart.
  // Sensors cover everything except two diagonal pockets.
  geom::Embedding nodes;
  const double rs = 0.5;
  for (double x = 0.25; x < 4.0; x += 0.4) {
    for (double y = 0.25; y < 4.0; y += 0.4) {
      // Leave two diagonal pockets uncovered around (1,1) and (1.6,1.6).
      if (geom::dist({x, y}, {1.0, 1.0}) < 0.55) continue;
      if (geom::dist({x, y}, {1.9, 1.9}) < 0.55) continue;
      nodes.push_back({x, y});
    }
  }
  const std::vector<bool> active(nodes.size(), true);
  const geom::Rect target{0.5, 0.5, 3.5, 3.5};
  geom::CoverageGridOptions eight;
  eight.cell_size = 0.1;
  eight.eight_connected = true;
  geom::CoverageGridOptions four = eight;
  four.eight_connected = false;
  const auto a8 = geom::analyze_coverage(nodes, active, rs, target, eight);
  const auto a4 = geom::analyze_coverage(nodes, active, rs, target, four);
  EXPECT_GE(a4.holes.size(), a8.holes.size());
  EXPECT_EQ(a4.covered_cells, a8.covered_cells);
}

TEST(CoverageGaps, CoverageWithNoNodes) {
  const geom::Embedding nodes;
  const std::vector<bool> active;
  const auto a =
      geom::analyze_coverage(nodes, active, 1.0, geom::Rect{0, 0, 1, 1});
  EXPECT_EQ(a.covered_cells, 0u);
  EXPECT_EQ(a.holes.size(), 1u);
  EXPECT_FALSE(a.blanket());
}

// ------------------------------------------------------------ svg options

TEST(CoverageGaps, SvgStyleSwitches) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = b.build();
  const geom::Embedding pos{{0, 0}, {1, 0}, {2, 0}};
  std::vector<io::NodeRole> roles{io::NodeRole::kActive, io::NodeRole::kDeleted,
                                  io::NodeRole::kActive};
  io::SvgStyle style;
  style.draw_deleted = false;
  style.draw_edges = false;
  const auto path = test::temp_path("gap_style.svg");
  io::render_network_svg(g, pos, roles, util::Gf2Vector(), path.string(),
                         style);
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str().find("<line"), std::string::npos);  // no edges
  // Only the two active circles are drawn.
  std::size_t circles = 0;
  for (std::size_t p = 0;
       (p = content.str().find("<circle", p)) != std::string::npos; ++p) {
    ++circles;
  }
  EXPECT_EQ(circles, 2u);
  std::filesystem::remove(path);
}

// ----------------------------------------------------------- MIS priority

TEST(CoverageGaps, PriorityMisPrefersHighPriorityNodes) {
  // A path of 5 candidates, radius 1: greedy by priority picks the nodes we
  // boost.
  GraphBuilder b(5);
  for (VertexId v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1);
  const Graph g = b.build();
  const std::vector<bool> active(5, true);
  const std::vector<bool> candidate(5, true);
  std::vector<std::uint64_t> priorities{0, 100, 0, 0, 90};
  const auto selected = sim::elect_mis_oracle_with_priorities(
      g, active, candidate, 1, priorities);
  EXPECT_TRUE(selected[1]);
  EXPECT_TRUE(selected[4]);
  EXPECT_FALSE(selected[0]);
  EXPECT_FALSE(selected[2]);
  // Maximality: {1, 4} dominates 0, 2, 3.
  EXPECT_FALSE(selected[3]);
}

// -------------------------------------------------------- schedule_from

TEST(CoverageGaps, ScheduleFromRespectsInitialActive) {
  util::Rng rng(801);
  const auto dep = gen::random_connected_udg(120, 3.3, 1.0, rng);
  std::vector<bool> internal(120, true);
  std::vector<bool> initial(120, true);
  for (VertexId v = 0; v < 30; ++v) initial[v] = false;  // pre-asleep
  core::DccConfig config;
  config.tau = 4;
  const auto result =
      core::dcc_schedule_from(dep.graph, internal, initial, config);
  for (VertexId v = 0; v < 30; ++v) {
    EXPECT_FALSE(result.active[v]);  // never woken
  }
  // Survivors = active count, not n - deleted.
  std::size_t active_count = 0;
  for (const bool a : result.active) {
    if (a) ++active_count;
  }
  EXPECT_EQ(result.survivors, active_count);
  EXPECT_LE(result.survivors + result.deleted + 30, 120u + 30u);
}

// ------------------------------------------- smallest_certifiable_tau

TEST(CoverageGaps, SmallestCertifiableTauEdgeCases) {
  // C6 as its own boundary.
  GraphBuilder b(6);
  std::vector<VertexId> seq;
  for (VertexId v = 0; v < 6; ++v) {
    b.add_edge(v, (v + 1) % 6);
    seq.push_back(v);
  }
  const Graph g = b.build();
  const auto cb = cycle::Cycle::from_vertex_sequence(g, seq);
  const std::vector<bool> all(6, true);
  EXPECT_EQ(core::smallest_certifiable_tau(g, all, cb.edges(), 16), 6u);
  EXPECT_EQ(core::smallest_certifiable_tau(g, all, cb.edges(), 5), 0u);
  EXPECT_EQ(core::smallest_certifiable_tau(g, all, cb.edges(), 6), 6u);
  // Zero target: certifies at the smallest τ probed.
  EXPECT_EQ(core::smallest_certifiable_tau(g, all,
                                           util::Gf2Vector(g.num_edges()), 8),
            3u);
}

// --------------------------------------------------------------- trace

TEST(CoverageGaps, RssiSensitivityFloorsReceptions) {
  trace::RssiModel model;
  model.sensitivity_dbm = -10.0;  // absurdly deaf radio
  trace::TraceOptions options;
  options.model = model;
  options.epochs = 5;
  const geom::Embedding pos{{0, 0}, {3.0, 0}};  // far apart
  util::Rng rng(802);
  const auto trace = trace::generate_trace(pos, options, rng);
  EXPECT_TRUE(trace.links.empty());
  EXPECT_EQ(trace.records, 0u);
}

TEST(CoverageGaps, EmpiricalCdfSingleSample) {
  util::EmpiricalCdf cdf(std::vector<double>{-85.0});
  EXPECT_DOUBLE_EQ(cdf.at(-85.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(-86.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), -85.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(-85.0), 1.0);
}

// ------------------------------------------------------------ gf2 extras

TEST(CoverageGaps, Gf2VectorZeroWidth) {
  util::Gf2Vector v(0);
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.popcount(), 0u);
  util::Gf2Vector w(0);
  w.xor_assign(v);
  EXPECT_TRUE(w == v);
}

TEST(CoverageGaps, RunningStatSingleValue) {
  util::RunningStat s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

}  // namespace
}  // namespace tgc
