// The VPT kernel against independent references, and the DCC round loop
// against a brute-force replay of the protocol.
//
// Kernel: every adjacency source (global graph + node mask, global graph +
// link mask, a node's LocalView from the collection protocol) and both
// punctures (vertex, link) must give the verdict a reference computes from
// scratch with graph::induce_vertices + is_connected + the Graph-based
// short_cycles_span on the same punctured ball. The τ-span test itself is
// checked against Horton's maximum irreducible cycle (Theorem 4).
//
// Rounds (the `IncrementalEquivalence` suite: DCC deletes nodes in waves,
// round after round): every executor, at every thread count, must land on
// the schedule of a replay that re-tests every awake internal node each
// round from scratch and elects the same MIS — the protocol as Section V-B
// states it.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "tgcover/boundary/label.hpp"
#include "tgcover/core/criterion.hpp"
#include "tgcover/core/distributed.hpp"
#include "tgcover/core/pipeline.hpp"
#include "tgcover/core/repair.hpp"
#include "tgcover/core/scheduler.hpp"
#include "tgcover/core/vpt.hpp"
#include "tgcover/cycle/horton.hpp"
#include "tgcover/cycle/span.hpp"
#include "tgcover/gen/deployments.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/graph/subgraph.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/observe.hpp"
#include "tgcover/obs/round_log.hpp"
#include "tgcover/sim/engine.hpp"
#include "tgcover/sim/khop.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/gf2.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

// ------------------------------------------------------------- references

/// G(n, p) over `n` vertices.
Graph random_graph(std::size_t n, double p, util::Rng& rng) {
  graph::GraphBuilder b(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) b.add_edge(u, v);
    }
  }
  return b.build();
}

/// Small test graphs: sparse to dense G(n, p) and unit-disk graphs.
std::vector<Graph> small_graphs(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Graph> out;
  for (const double p : {0.15, 0.25, 0.4}) {
    out.push_back(random_graph(18, p, rng));
  }
  for (const double side : {2.6, 3.4}) {
    out.push_back(gen::random_connected_udg(45, side, 1.0, rng).graph);
  }
  return out;
}

/// The live topology: links whose endpoints are both active and whose bit in
/// `edge_active` is set (an empty mask keeps every link), minus `cut`.
Graph live_graph(const Graph& g, const std::vector<bool>& active,
                 const std::vector<bool>& edge_active,
                 EdgeId cut = graph::kInvalidEdge) {
  graph::GraphBuilder b(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (e == cut || !active[u] || !active[v]) continue;
    if (!edge_active.empty() && !edge_active[e]) continue;
    b.add_edge(u, v);
  }
  return b.build();
}

/// Definition 5 on an explicitly induced punctured ball.
bool reference_passes(const Graph& punctured_host,
                      const std::vector<VertexId>& members, unsigned tau) {
  if (members.empty()) return true;
  const graph::InducedSubgraph ball =
      graph::induce_vertices(punctured_host, members);
  return graph::is_connected(ball.graph) &&
         cycle::short_cycles_span(ball.graph, tau);
}

bool reference_vertex(const Graph& g, const std::vector<bool>& active,
                      VertexId v, unsigned tau) {
  const Graph live = live_graph(g, active, {});
  const unsigned k = VptConfig{tau, 0}.effective_k();
  return reference_passes(live, graph::k_hop_neighbors(live, v, k), tau);
}

/// Every node within k hops of u or v in `live`, u and v included, sorted.
std::vector<VertexId> link_ball(const Graph& live, VertexId u, VertexId v,
                                unsigned k) {
  std::vector<VertexId> members = graph::k_hop_neighbors(live, u, k);
  for (const VertexId w : graph::k_hop_neighbors(live, v, k)) {
    members.push_back(w);
  }
  members.push_back(u);
  members.push_back(v);
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return members;
}

bool reference_edge(const Graph& g, const std::vector<bool>& active,
                    const std::vector<bool>& edge_active, EdgeId e,
                    unsigned tau) {
  const unsigned k = VptConfig{tau, 0}.effective_k();
  const auto [u, v] = g.edge(e);
  return reference_passes(
      live_graph(g, active, edge_active, e),
      link_ball(live_graph(g, active, edge_active), u, v, k), tau);
}

std::vector<bool> random_mask(std::size_t n, double keep, util::Rng& rng) {
  std::vector<bool> mask(n);
  for (std::size_t i = 0; i < n; ++i) mask[i] = rng.bernoulli(keep);
  return mask;
}

// ------------------------------------------------------------ VPT kernel

TEST(VptKernel, VertexTestMatchesInducedReference) {
  std::size_t vetoes = 0;
  std::size_t passes = 0;
  VptWorkspace ws;  // reused across graphs of different orders on purpose
  for (const Graph& g : small_graphs(11)) {
    util::Rng rng(g.num_edges());
    for (const unsigned tau : {3u, 4u, 5u, 6u}) {
      const VptConfig config{tau, 0};
      for (const double keep : {1.0, 0.8}) {
        const std::vector<bool> active =
            keep == 1.0 ? std::vector<bool>(g.num_vertices(), true)
                        : random_mask(g.num_vertices(), keep, rng);
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          if (!active[v]) continue;
          const bool want = reference_vertex(g, active, v, tau);
          EXPECT_EQ(vpt_vertex_deletable(g, active, v, config, ws), want)
              << "tau " << tau << " vertex " << v;
          EXPECT_EQ(vpt_vertex_deletable(g, active, v, config), want);
          ++(want ? passes : vetoes);
        }
      }
    }
  }
  // Both verdicts occur, so neither branch is checked vacuously.
  EXPECT_GT(passes, 0u);
  EXPECT_GT(vetoes, 0u);
}

TEST(VptKernel, EdgeTestMatchesInducedReferenceUnderLinkMasks) {
  std::size_t vetoes = 0;
  std::size_t passes = 0;
  VptWorkspace ws;
  for (const Graph& g : small_graphs(12)) {
    util::Rng rng(g.num_edges() + 1);
    for (const unsigned tau : {3u, 4u, 5u, 6u}) {
      const VptConfig config{tau, 0};
      const std::vector<bool> active = random_mask(g.num_vertices(), 0.9, rng);
      const std::vector<bool> all_links(g.num_edges(), true);
      const std::vector<bool> some_links =
          random_mask(g.num_edges(), 0.8, rng);
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const auto [u, v] = g.edge(e);
        if (!active[u] || !active[v]) continue;
        const bool want = reference_edge(g, active, all_links, e, tau);
        EXPECT_EQ(vpt_edge_deletable(g, active, e, config, ws), want)
            << "tau " << tau << " edge " << e;
        EXPECT_EQ(vpt_edge_deletable(g, active, all_links, e, config, ws),
                  want);
        ++(want ? passes : vetoes);
        if (!some_links[e]) continue;
        EXPECT_EQ(vpt_edge_deletable(g, active, some_links, e, config, ws),
                  reference_edge(g, active, some_links, e, tau))
            << "masked, tau " << tau << " edge " << e;
      }
    }
  }
  EXPECT_GT(passes, 0u);
  EXPECT_GT(vetoes, 0u);
}

TEST(VptKernel, EdgeBallIsBothEndpointsKHopBalls) {
  for (const Graph& g : small_graphs(13)) {
    util::Rng rng(g.num_vertices());
    const std::vector<bool> active(g.num_vertices(), true);
    const std::vector<bool> links = random_mask(g.num_edges(), 0.85, rng);
    const Graph live = live_graph(g, active, links);
    VptWorkspace ws;
    for (const unsigned k : {1u, 2u, 3u}) {
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (!links[e]) continue;
        const auto [u, v] = g.edge(e);
        const std::vector<VertexId> want = link_ball(live, u, v, k);
        const auto got = edge_ball(g, active, links, e, k, ws);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "k " << k << " edge " << e;
      }
    }
  }
}

TEST(VptKernel, LocalViewMatchesInducedReference) {
  // Views come from the real collection protocol; deletions then reach them
  // only as tombstones, exactly as the distributed executor applies them.
  for (const Graph& g : small_graphs(14)) {
    for (const unsigned tau : {3u, 4u, 5u, 6u}) {
      const VptConfig config{tau, 0};
      sim::RoundEngine engine(g);
      std::vector<sim::LocalView> views =
          sim::collect_k_hop_views(engine, config.effective_k());
      util::Rng rng(g.num_edges() + tau);
      const std::vector<bool> active = random_mask(g.num_vertices(), 0.8, rng);
      const std::vector<bool> all(g.num_vertices(), true);
      VptWorkspace ws;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(vpt_vertex_deletable_local(views[v], config, ws),
                  reference_vertex(g, all, v, tau))
            << "tau " << tau << " vertex " << v;
        for (VertexId w = 0; w < g.num_vertices(); ++w) {
          if (!active[w]) views[v].erase_node(w);
        }
        if (!active[v]) continue;
        EXPECT_EQ(vpt_vertex_deletable_local(views[v], config, ws),
                  reference_vertex(g, active, v, tau))
            << "after deletions, tau " << tau << " vertex " << v;
      }
    }
  }
}

TEST(VptKernel, ShortCyclesSpanIffMaxIrreducibleCycleFits) {
  // Theorem 4: cycles of length ≤ τ span the cycle space exactly when the
  // maximum irreducible cycle (the longest cycle of a minimum cycle basis)
  // has length ≤ τ.
  std::size_t spanning = 0;
  std::size_t deficient = 0;
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    for (const Graph& g : small_graphs(seed)) {
      const std::size_t max_size = cycle::irreducible_cycle_bounds(g).max_size;
      for (const unsigned tau : {3u, 4u, 5u, 6u}) {
        const bool want = max_size <= tau;
        EXPECT_EQ(cycle::short_cycles_span(g, tau), want)
            << "seed " << seed << " tau " << tau << " max " << max_size;
        ++(want ? spanning : deficient);
      }
    }
  }
  EXPECT_GT(spanning, 0u);
  EXPECT_GT(deficient, 0u);
}

// ------------------------------------------------------- round equivalence

struct Instance {
  gen::Deployment dep;
  std::vector<bool> internal;
};

Instance make_instance(std::uint64_t seed, std::size_t n = 150,
                       double side = 5.2) {
  util::Rng rng(9000 + seed);
  Instance inst{gen::random_connected_udg(n, side, 1.0, rng), {}};
  const auto boundary =
      boundary::label_outer_band(inst.dep.positions, inst.dep.area, 1.0);
  inst.internal.resize(inst.dep.graph.num_vertices());
  for (VertexId v = 0; v < inst.dep.graph.num_vertices(); ++v) {
    inst.internal[v] = !boundary[v];
  }
  return inst;
}

/// The protocol of Section V-B, replayed from scratch: every round, every
/// awake internal node is re-tested from a fresh workspace, then the same
/// seeded m-hop MIS is elected and deleted.
DccResult replay(const Graph& g, const std::vector<bool>& internal,
                 std::vector<bool> active, const DccConfig& config) {
  const VptConfig vpt = config.vpt();
  DccResult out;
  while (true) {
    std::vector<bool> candidate(g.num_vertices(), false);
    std::size_t num_candidates = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!active[v] || !internal[v]) continue;
      ++out.vpt_tests;
      if (vpt_vertex_deletable(g, active, v, vpt)) {
        candidate[v] = true;
        ++num_candidates;
      }
    }
    if (num_candidates == 0) break;
    ++out.rounds;
    const std::vector<bool> selected = sim::elect_mis_oracle(
        g, active, candidate, vpt.mis_radius(),
        util::splitmix64(config.seed + out.rounds));
    std::size_t deleted = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!selected[v]) continue;
      active[v] = false;
      ++deleted;
    }
    out.deleted += deleted;
    out.per_round.push_back(DccRoundInfo{num_candidates, deleted});
  }
  out.active = std::move(active);
  return out;
}

void expect_same_schedule(const DccResult& got, const DccResult& want,
                          const std::string& where) {
  EXPECT_EQ(got.active, want.active) << where;
  EXPECT_EQ(got.rounds, want.rounds) << where;
  EXPECT_EQ(got.deleted, want.deleted) << where;
  EXPECT_EQ(got.vpt_tests, want.vpt_tests) << where;
  ASSERT_EQ(got.per_round.size(), want.per_round.size()) << where;
  for (std::size_t r = 0; r < got.per_round.size(); ++r) {
    EXPECT_EQ(got.per_round[r].candidates, want.per_round[r].candidates)
        << where << " round " << r;
    EXPECT_EQ(got.per_round[r].deleted, want.per_round[r].deleted)
        << where << " round " << r;
  }
}

TEST(IncrementalEquivalence, RandomizedDeletionWaves) {
  // Across instances, taus and thread counts the scheduler must equal the
  // replay in every observable: active mask, round trace, deletion counts
  // and the number of VPT tests.
  for (const std::uint64_t instance : {0ull, 1ull, 2ull}) {
    for (const unsigned tau : {3u, 4u}) {
      const Instance inst = make_instance(instance * 17 + tau);
      DccConfig config;
      config.tau = tau;
      config.seed = 21 + instance;
      const DccResult want =
          replay(inst.dep.graph, inst.internal,
                 std::vector<bool>(inst.dep.graph.num_vertices(), true),
                 config);
      ASSERT_GT(want.deleted, 0u);
      for (const unsigned threads : {1u, 2u, 4u}) {
        config.num_threads = threads;
        expect_same_schedule(
            dcc_schedule(inst.dep.graph, inst.internal, config), want,
            "instance " + std::to_string(instance) + " tau " +
                std::to_string(tau) + " threads " + std::to_string(threads));
      }
    }
  }
}

TEST(IncrementalEquivalence, CostStreamIdenticalAcrossThreads) {
  // The machine-independent cost stream (`--cost-out`) must be
  // byte-identical across thread counts.
  const Instance inst = make_instance(5);
  obs::set_enabled(true);
  std::string reference;
  for (const unsigned threads : {1u, 2u, 4u}) {
    DccConfig config;
    config.tau = 4;
    config.seed = 9;
    config.num_threads = threads;
    obs::RoundCollector collector;
    const obs::ObserverScope observe({&collector, nullptr, nullptr});
    const DccResult r = dcc_schedule(inst.dep.graph, inst.internal, config);
    collector.finalize(r.survivors);
    std::ostringstream out;
    collector.write_cost_jsonl(out);
    if (threads == 1) {
      reference = out.str();
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(out.str(), reference) << "threads " << threads;
    }
  }
  obs::set_enabled(false);
}

TEST(IncrementalEquivalence, DistributedSyncAndAsyncLossy) {
  // Local-view verdicts kept consistent by the deletion floods must give
  // the oracle's schedule on the ideal and on the lossy asynchronous
  // substrate, at every thread count.
  const Instance inst = make_instance(11, 110, 4.6);
  DccConfig config;
  config.tau = 4;
  config.seed = 31;
  const DccResult oracle = dcc_schedule(inst.dep.graph, inst.internal, config);
  ASSERT_GT(oracle.deleted, 0u);

  for (const unsigned threads : {1u, 4u}) {
    config.num_threads = threads;
    const DccDistributedResult sync =
        dcc_schedule_distributed(inst.dep.graph, inst.internal, config);
    EXPECT_EQ(sync.schedule.active, oracle.active) << "sync " << threads;
    EXPECT_EQ(sync.schedule.vpt_tests, oracle.vpt_tests);

    DccAsyncOptions async;
    async.net.loss_probability = 0.15;
    async.net.seed = 77;
    const DccDistributedResult lossy = dcc_schedule_distributed_async(
        inst.dep.graph, inst.internal, config, async);
    EXPECT_EQ(lossy.schedule.active, oracle.active) << "async " << threads;
    EXPECT_GT(lossy.messages_lost, 0u);
  }
}

TEST(IncrementalEquivalence, MidProtocolDeactivation) {
  // Stop the protocol after one round, let a few awake internal nodes die
  // outside any deletion wave, then resume from the degraded awake set: the
  // resumed run must equal the replay from that state (dead nodes neither
  // relay nor appear in any ball).
  const Instance inst = make_instance(23);
  const std::size_t n = inst.dep.graph.num_vertices();
  DccConfig config;
  config.tau = 4;
  config.seed = 13;
  config.max_rounds = 1;
  const DccResult first = dcc_schedule(inst.dep.graph, inst.internal, config);
  ASSERT_GT(first.deleted, 0u);
  config.max_rounds = static_cast<std::size_t>(-1);

  std::vector<bool> degraded = first.active;
  std::size_t killed = 0;
  for (VertexId v = 0; v < n && killed < 3; ++v) {
    if (degraded[v] && inst.internal[v]) {
      degraded[v] = false;
      ++killed;
    }
  }
  ASSERT_GT(killed, 0u);

  const DccResult want = replay(inst.dep.graph, inst.internal, degraded,
                                config);
  for (const unsigned threads : {1u, 4u}) {
    config.num_threads = threads;
    expect_same_schedule(
        dcc_schedule_from(inst.dep.graph, inst.internal, degraded, config),
        want, "threads " + std::to_string(threads));
  }
}

TEST(IncrementalEquivalence, RepairWavesMatchFullRecompute) {
  // dcc_repair escalates its wake radius wave by wave; its result must equal
  // one scheduler call on the final wave's awake set, recomputed here from
  // the reported radius, and must not depend on the thread count.
  util::Rng rng(73);
  Network net = prepare_network(gen::random_connected_udg(300, 5.5, 1.0, rng),
                                1.0);
  const Graph& g = net.dep.graph;
  const std::size_t n = g.num_vertices();
  DccConfig config;
  config.tau = 4;
  config.seed = 5;
  const ScheduleSummary schedule = run_dcc(net, config);

  std::vector<bool> failed(n, false);
  util::Rng kill_rng(74);
  std::size_t kills = 0;
  for (VertexId v = 0; v < n && kills < 6; ++v) {
    if (schedule.result.active[v] && net.internal[v] &&
        kill_rng.bernoulli(0.3)) {
      failed[v] = true;
      ++kills;
    }
  }
  ASSERT_GT(kills, 0u);

  for (const util::Gf2Vector& cb : {net.cb, util::Gf2Vector()}) {
    config.num_threads = 1;
    const RepairResult got = dcc_repair(g, net.internal,
                                        schedule.result.active, failed, cb,
                                        config);
    config.num_threads = 4;
    const RepairResult threaded = dcc_repair(
        g, net.internal, schedule.result.active, failed, cb, config);
    EXPECT_EQ(threaded.active, got.active) << "cb size " << cb.size();
    EXPECT_EQ(threaded.final_radius, got.final_radius);

    // Survivors within final_radius hops of a failure (over every
    // non-failed node) are woken; only they may go back to sleep.
    const std::vector<bool> alive = [&] {
      std::vector<bool> a(n);
      for (VertexId v = 0; v < n; ++v) a[v] = !failed[v];
      return a;
    }();
    std::vector<bool> near(n, false);
    for (VertexId f = 0; f < n; ++f) {
      if (!failed[f]) continue;
      std::vector<bool> relay = alive;
      relay[f] = true;
      const Graph reach = live_graph(g, relay, {});
      for (const VertexId w :
           graph::k_hop_neighbors(reach, f, got.final_radius)) {
        near[w] = true;
      }
    }
    std::vector<bool> awake(n, false);
    std::vector<bool> deletable(n, false);
    std::size_t woken = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (failed[v]) continue;
      const bool wake = !schedule.result.active[v] && near[v];
      awake[v] = schedule.result.active[v] || wake;
      deletable[v] = wake && net.internal[v];
      if (wake) ++woken;
    }
    config.num_threads = 1;
    const DccResult want = dcc_schedule_from(g, deletable, awake, config);
    EXPECT_EQ(got.active, want.active) << "cb size " << cb.size();
    EXPECT_EQ(got.woken, woken);
    EXPECT_EQ(got.redeleted, want.deleted);
    EXPECT_EQ(got.criterion_restored,
              cb.size() != 0 && criterion_holds(g, got.active, cb,
                                                config.tau));
  }
}

TEST(IncrementalEquivalence, VerdictFlipsBothWaysUnderReplay) {
  // Across instances the verdict history of the replay must contain flips
  // in BOTH directions — deletable → not-deletable (a deletion disconnects
  // a neighbour's punctured ball) and not-deletable → deletable (a deletion
  // shortens the neighbour's maximum irreducible cycle) — which is why a
  // verdict cannot be carried from one round to the next without re-testing
  // the balls a deletion touched. The scheduler must land on the replay.
  std::size_t flips_to_not = 0;
  std::size_t flips_to_deletable = 0;
  for (const std::uint64_t instance : {0ull, 1ull, 2ull, 3ull}) {
    const Instance inst = make_instance(400 + instance);
    const std::size_t n = inst.dep.graph.num_vertices();
    DccConfig config;
    config.tau = 4;
    config.seed = 61 + instance;
    const DccResult scheduled =
        dcc_schedule(inst.dep.graph, inst.internal, config);

    const VptConfig vpt = config.vpt();
    VptWorkspace ws;
    std::vector<bool> active(n, true);
    std::vector<char> history(n, -1);  // -1 unseen, else last verdict
    std::size_t round = 0;
    while (true) {
      std::vector<bool> candidate(n, false);
      std::size_t num_candidates = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (!active[v] || !inst.internal[v]) continue;
        const bool deletable =
            vpt_vertex_deletable(inst.dep.graph, active, v, vpt, ws);
        const char now = deletable ? 1 : 0;
        if (history[v] == 0 && now == 1) ++flips_to_deletable;
        if (history[v] == 1 && now == 0) ++flips_to_not;
        history[v] = now;
        if (deletable) {
          candidate[v] = true;
          ++num_candidates;
        }
      }
      if (num_candidates == 0) break;
      ++round;
      const std::uint64_t round_seed = util::splitmix64(config.seed + round);
      const std::vector<bool> selected = sim::elect_mis_oracle(
          inst.dep.graph, active, candidate, vpt.mis_radius(), round_seed);
      for (VertexId v = 0; v < n; ++v) {
        if (selected[v]) active[v] = false;
      }
    }
    EXPECT_EQ(active, scheduled.active) << "instance " << instance;
    EXPECT_EQ(round, scheduled.rounds);
  }
  EXPECT_GT(flips_to_not, 0u);
  EXPECT_GT(flips_to_deletable, 0u);
}

}  // namespace
}  // namespace tgc::core
