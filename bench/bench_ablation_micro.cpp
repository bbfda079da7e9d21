// Micro-ablations (google-benchmark): the cost of the building blocks —
// the VPT deletability test per τ, the early-exit τ-span test vs the full
// Horton Algorithm 1 on the same punctured neighbourhoods, the τ-span test
// on the benchmark input's round-1 balls, k-hop collection, and the MIS
// election.
#include <benchmark/benchmark.h>

#include "tgcover/core/vpt.hpp"
#include "tgcover/cycle/horton.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/rng.hpp"

namespace {

using namespace tgc;

const gen::Deployment& deployment() {
  static const gen::Deployment dep = [] {
    util::Rng rng(1);
    return gen::random_connected_udg(
        300, gen::side_for_average_degree(300, 1.0, 18.0), 1.0, rng);
  }();
  return dep;
}

/// The punctured ⌈τ/2⌉-hop neighbourhood of a central node.
graph::Graph punctured_neighbourhood(unsigned tau) {
  const auto& dep = deployment();
  // Deterministically pick a well-connected interior node.
  graph::VertexId center = 0;
  double best = 1e18;
  for (graph::VertexId v = 0; v < dep.graph.num_vertices(); ++v) {
    const double dx = dep.positions[v].x - dep.area.width() / 2;
    const double dy = dep.positions[v].y - dep.area.height() / 2;
    if (dx * dx + dy * dy < best) {
      best = dx * dx + dy * dy;
      center = v;
    }
  }
  const auto members =
      graph::k_hop_neighbors(dep.graph, center, (tau + 1) / 2);
  return graph::induce_vertices(dep.graph, members).graph;
}

void BM_VptVertexTest(benchmark::State& state) {
  const auto tau = static_cast<unsigned>(state.range(0));
  const auto& dep = deployment();
  const std::vector<bool> active(dep.graph.num_vertices(), true);
  const core::VptConfig config{tau, 0};
  graph::VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::vpt_vertex_deletable(dep.graph, active, v, config));
    v = (v + 17) % static_cast<graph::VertexId>(dep.graph.num_vertices());
  }
}
BENCHMARK(BM_VptVertexTest)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

/// Same test through a warm VptWorkspace — the scheduler's steady-state
/// configuration. The gap to BM_VptVertexTest is the per-test allocation
/// cost the workspace eliminates.
void BM_VptVertexTestWorkspace(benchmark::State& state) {
  const auto tau = static_cast<unsigned>(state.range(0));
  const auto& dep = deployment();
  const std::vector<bool> active(dep.graph.num_vertices(), true);
  const core::VptConfig config{tau, 0};
  core::VptWorkspace ws;
  graph::VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::vpt_vertex_deletable(dep.graph, active, v, config, ws));
    v = (v + 17) % static_cast<graph::VertexId>(dep.graph.num_vertices());
  }
}
BENCHMARK(BM_VptVertexTestWorkspace)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_SpanEarlyExit(benchmark::State& state) {
  const auto tau = static_cast<unsigned>(state.range(0));
  const graph::Graph h = punctured_neighbourhood(tau);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycle::short_cycles_span(h, tau));
  }
  state.counters["vertices"] = static_cast<double>(h.num_vertices());
  state.counters["edges"] = static_cast<double>(h.num_edges());
}
BENCHMARK(BM_SpanEarlyExit)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

/// Round-1 punctured balls of the benchmark's 1,600-node degree-25 input
/// (deployment seed 8): every 25th node's ⌈τ/2⌉-hop ball, 64 in all. At
/// τ=4 they average ~73 vertices / ~690 edges, the size the τ-span kernel
/// sees in the oracle benchmark.
const std::vector<graph::Graph>& benchmark_balls(unsigned tau) {
  static std::vector<graph::Graph> by_k[2];
  const unsigned k = (tau + 1) / 2;
  std::vector<graph::Graph>& balls = by_k[k == 2 ? 0 : 1];
  if (balls.empty()) {
    util::Rng rng(8);
    const auto dep = gen::random_connected_udg(
        1600, gen::side_for_average_degree(1600, 1.0, 25.0), 1.0, rng);
    for (graph::VertexId v = 0; v < 1600; v += 25) {
      const auto members = graph::k_hop_neighbors(dep.graph, v, k);
      balls.push_back(graph::induce_vertices(dep.graph, members).graph);
    }
  }
  return balls;
}

void BM_SpanBenchmarkBall(benchmark::State& state) {
  const auto tau = static_cast<unsigned>(state.range(0));
  const auto& balls = benchmark_balls(tau);
  cycle::SpanScratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cycle::short_cycles_span(balls[i], tau, scratch));
    i = (i + 1) % balls.size();
  }
  double vertices = 0;
  double edges = 0;
  for (const graph::Graph& b : balls) {
    vertices += static_cast<double>(b.num_vertices());
    edges += static_cast<double>(b.num_edges());
  }
  state.counters["vertices"] = vertices / static_cast<double>(balls.size());
  state.counters["edges"] = edges / static_cast<double>(balls.size());
}
BENCHMARK(BM_SpanBenchmarkBall)->Arg(4)->Arg(6);

void BM_HortonFullAlgorithmOne(benchmark::State& state) {
  const auto tau = static_cast<unsigned>(state.range(0));
  const graph::Graph h = punctured_neighbourhood(tau);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycle::irreducible_cycle_bounds(h));
  }
  state.counters["vertices"] = static_cast<double>(h.num_vertices());
}
BENCHMARK(BM_HortonFullAlgorithmOne)->Arg(3)->Arg(4);

void BM_KHopCollect(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const auto& dep = deployment();
  for (auto _ : state) {
    sim::RoundEngine engine(dep.graph);
    benchmark::DoNotOptimize(sim::collect_k_hop_views(engine, k));
  }
}
BENCHMARK(BM_KHopCollect)->Arg(1)->Arg(2)->Arg(3);

void BM_MisOracle(benchmark::State& state) {
  const auto radius = static_cast<unsigned>(state.range(0));
  const auto& dep = deployment();
  const std::vector<bool> active(dep.graph.num_vertices(), true);
  std::vector<bool> candidate(dep.graph.num_vertices(), false);
  util::Rng rng(2);
  for (std::size_t v = 0; v < candidate.size(); ++v) {
    candidate[v] = rng.bernoulli(0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::elect_mis_oracle(dep.graph, active, candidate, radius, 3));
  }
}
BENCHMARK(BM_MisOracle)->Arg(2)->Arg(3);

}  // namespace

BENCHMARK_MAIN();
