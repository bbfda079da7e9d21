// Writes the frozen τ-span kernel corpus (tests/data/span_corpus.txt): the
// punctured k-hop balls of a 1,600-node degree-25 UDG (the oracle benchmark
// input: deployment seed 8, periphery band 1.0) with the verdicts of the
// kernel that recorded them. span_corpus_test replays every ball through the
// current kernel, so a kernel change that flips any verdict fails there.
//
// Balls come from three awake sets per τ = 3..6: round 1 (every node awake),
// the awake set after half of the schedule's rounds, and the one before its
// final round. Within a stage, awake internal nodes are visited in a hashed
// order and the first vetoed and the first passing balls fill equal quotas,
// so the corpus holds both verdicts wherever the stage has both.
//
// Usage: span_corpus_gen OUT_FILE  (takes a few minutes; uses 4 threads).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/util/rng.hpp"

namespace {

using tgc::graph::Graph;
using tgc::graph::VertexId;

struct Stage {
  const char* name;
  std::vector<bool> awake;
  std::size_t quota;
};

void write_stage(std::ostream& out, const Graph& g,
                 const std::vector<bool>& internal, unsigned tau,
                 const Stage& stage, std::size_t& index,
                 std::size_t& vetoed) {
  const Graph live = tgc::graph::filter_active(g, stage.awake);
  const unsigned k = (tau + 1) / 2;
  std::vector<VertexId> order;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (stage.awake[v] && internal[v]) order.push_back(v);
  }
  const std::uint64_t salt = 1000 * tau + stage.name[0];
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return tgc::util::splitmix64(a ^ salt) < tgc::util::splitmix64(b ^ salt);
  });

  const std::size_t want_veto = stage.quota / 2;
  const std::size_t want_pass = stage.quota - want_veto;
  std::size_t got_veto = 0;
  std::size_t got_pass = 0;
  // Two passes: the first keeps the per-verdict quotas, the second tops the
  // stage up from whichever verdict the first pass ran out of.
  std::vector<bool> taken(g.num_vertices(), false);
  for (int pass = 0; pass < 2; ++pass) {
    for (const VertexId v : order) {
      if (got_veto + got_pass == stage.quota) break;
      if (taken[v]) continue;
      const auto members = tgc::graph::k_hop_neighbors(live, v, k);
      if (members.empty()) continue;
      const auto ball = tgc::graph::induce_vertices(live, members);
      const bool connected = tgc::graph::is_connected(ball.graph);
      const bool spans = tgc::cycle::short_cycles_span(ball.graph, tau);
      const bool veto = !(connected && spans);
      if (pass == 0 && (veto ? got_veto >= want_veto : got_pass >= want_pass)) {
        continue;
      }
      taken[v] = true;
      ++(veto ? got_veto : got_pass);
      const Graph& b = ball.graph;
      out << "ball " << index++ << " tau " << tau << " stage " << stage.name
          << " node " << v << " n " << b.num_vertices() << " m "
          << b.num_edges() << " connected " << connected << " spans "
          << spans << "\n";
      // One line per local vertex: its higher-numbered neighbours.
      for (VertexId x = 0; x < b.num_vertices(); ++x) {
        bool first = true;
        for (const VertexId y : b.neighbors(x)) {
          if (y <= x) continue;
          out << (first ? "" : " ") << y;
          first = false;
        }
        out << "\n";
      }
    }
  }
  vetoed += got_veto;
  std::cerr << "tau " << tau << " " << stage.name << ": " << got_veto
            << " vetoed, " << got_pass << " passing\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: span_corpus_gen OUT_FILE\n";
    return 2;
  }
  constexpr std::size_t kNodes = 1600;
  tgc::util::Rng rng(8);
  auto dep = tgc::gen::random_connected_udg(
      kNodes, tgc::gen::side_for_average_degree(kNodes, 1.0, 25.0), 1.0, rng);
  const tgc::core::Network net =
      tgc::core::prepare_network(std::move(dep), 1.0);
  const Graph& g = net.dep.graph;

  std::ofstream out(argv[1]);
  out << "# tgcover span corpus v1: punctured k-hop balls of the 1,600-node\n"
         "# degree-25 UDG (deployment seed 8, band 1.0), k = ceil(tau/2).\n"
         "# Header: ball I tau T stage S node V n N m M connected C spans P\n"
         "# (P = cycles of length <= T span the ball's cycle space), then N\n"
         "# lines, line x listing x's neighbours y > x in local ids.\n";
  std::size_t index = 0;
  std::size_t vetoed = 0;
  for (const unsigned tau : {3u, 4u, 5u, 6u}) {
    tgc::core::DccConfig config;
    config.tau = tau;
    config.seed = 1;
    config.num_threads = 4;
    const auto full = tgc::core::dcc_schedule(g, net.internal, config);
    std::vector<Stage> stages;
    // k = 3 balls of the full network have ~1,800 edges (k = 2: ~700), so
    // round 1 contributes fewer of them at τ = 5, 6 to keep the file small.
    stages.push_back({"round1", std::vector<bool>(kNodes, true),
                      tau <= 4 ? 20u : 8u});
    config.max_rounds = full.rounds / 2;
    stages.push_back(
        {"mid", tgc::core::dcc_schedule(g, net.internal, config).active, 20});
    config.max_rounds = full.rounds - 1;
    stages.push_back(
        {"late", tgc::core::dcc_schedule(g, net.internal, config).active, 20});
    std::cerr << "tau " << tau << ": " << full.rounds << " rounds\n";
    for (const Stage& stage : stages) {
      write_stage(out, g, net.internal, tau, stage, index, vetoed);
    }
  }
  std::cerr << index << " balls, " << vetoed << " vetoed\n";
  return out ? 0 : 1;
}
