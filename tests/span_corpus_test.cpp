// The frozen τ-span kernel corpus: 216 punctured k-hop balls of the
// 1,600-node degree-25 UDG at τ = 3..6 (round 1, mid- and late-schedule
// awake sets), with the verdicts recorded by the kernel of the time
// (tests/data/span_corpus.txt, written by span_corpus_gen). Every ball is
// replayed through short_cycles_span over a Graph and over a BallView, and
// the smaller ones through Horton's maximum irreducible cycle (Theorem 4).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tgcover/cycle/horton.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/graph.hpp"
#include "tgcover/graph/subgraph.hpp"

namespace tgc::cycle {
namespace {

using graph::VertexId;

struct CorpusBall {
  std::size_t index = 0;
  unsigned tau = 0;
  std::string stage;
  std::size_t n = 0;
  std::size_t m = 0;
  bool connected = false;
  bool spans = false;
  std::vector<std::vector<VertexId>> adjacency;  ///< sorted, both directions
};

std::vector<CorpusBall> load_corpus() {
  std::ifstream in(TGC_SPAN_CORPUS);
  EXPECT_TRUE(in.good()) << "cannot open " << TGC_SPAN_CORPUS;
  std::vector<CorpusBall> balls;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream header(line);
    CorpusBall b;
    std::string key;
    VertexId node = 0;
    header >> key >> b.index >> key >> b.tau >> key >> b.stage >> key >>
        node >> key >> b.n >> key >> b.m >> key >> b.connected >> key >>
        b.spans;
    EXPECT_TRUE(header && key == "spans") << "bad header: " << line;
    b.adjacency.resize(b.n);
    for (VertexId x = 0; x < b.n; ++x) {
      std::getline(in, line);
      std::istringstream row(line);
      VertexId y = 0;
      while (row >> y) {
        b.adjacency[x].push_back(y);
        b.adjacency[y].push_back(x);
      }
    }
    // Rows list higher neighbours in ascending order, so each x's lower
    // neighbours arrive ascending before its higher ones: rows stay sorted.
    balls.push_back(std::move(b));
  }
  return balls;
}

const std::vector<CorpusBall>& corpus() {
  static const std::vector<CorpusBall> balls = load_corpus();
  return balls;
}

graph::Graph to_graph(const CorpusBall& b) {
  graph::GraphBuilder builder(b.n);
  for (VertexId x = 0; x < b.n; ++x) {
    for (const VertexId y : b.adjacency[x]) {
      if (x < y) builder.add_edge(x, y);
    }
  }
  return builder.build();
}

TEST(SpanCorpus, CoversEveryTauStageAndBothVerdicts) {
  const auto& balls = corpus();
  ASSERT_GE(balls.size(), 200u);
  std::size_t vetoed = 0;
  for (const unsigned tau : {3u, 4u, 5u, 6u}) {
    for (const char* stage : {"round1", "mid", "late"}) {
      std::size_t count = 0;
      for (const CorpusBall& b : balls) {
        if (b.tau == tau && b.stage == stage) ++count;
      }
      EXPECT_GT(count, 0u) << "tau " << tau << " stage " << stage;
    }
  }
  for (const CorpusBall& b : balls) {
    if (!(b.connected && b.spans)) ++vetoed;
  }
  EXPECT_GE(5 * vetoed, balls.size()) << "fewer than 20% vetoed";
}

TEST(SpanCorpus, GraphKernelReproducesRecordedVerdicts) {
  SpanScratch scratch;
  for (const CorpusBall& b : corpus()) {
    const graph::Graph g = to_graph(b);
    ASSERT_EQ(g.num_edges(), b.m) << "ball " << b.index;
    EXPECT_EQ(graph::is_connected(g), b.connected) << "ball " << b.index;
    EXPECT_EQ(short_cycles_span(g, b.tau, scratch), b.spans)
        << "ball " << b.index << " tau " << b.tau << " " << b.stage;
  }
}

TEST(SpanCorpus, BallViewKernelReproducesRecordedVerdicts) {
  SpanScratch scratch;
  graph::BallView view;
  for (const CorpusBall& b : corpus()) {
    view.build(b.n, [&](VertexId x, auto&& emit) {
      for (const VertexId y : b.adjacency[x]) emit(y);
    });
    ASSERT_EQ(view.num_edges(), b.m) << "ball " << b.index;
    EXPECT_EQ(short_cycles_span(view, b.tau, scratch), b.spans)
        << "ball " << b.index << " tau " << b.tau << " " << b.stage;
  }
}

TEST(SpanCorpus, SmallBallsAgreeWithHorton) {
  // Theorem 4: short cycles span iff the maximum irreducible cycle ≤ τ.
  std::size_t checked = 0;
  for (const CorpusBall& b : corpus()) {
    const graph::Graph g = to_graph(b);
    if (graph::cycle_space_dimension(g) > 150) continue;
    ++checked;
    EXPECT_EQ(irreducible_cycle_bounds(g).max_size <= b.tau, b.spans)
        << "ball " << b.index << " tau " << b.tau << " " << b.stage;
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace tgc::cycle
