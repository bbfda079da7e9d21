#include "tgcover/core/scheduler.hpp"

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/obs/cost.hpp"
#include "tgcover/obs/log.hpp"
#include "tgcover/obs/observe.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"
#include "tgcover/util/thread_pool.hpp"

namespace tgc::core {

using graph::Graph;
using graph::VertexId;

DccResult dcc_schedule(const Graph& g, const std::vector<bool>& internal,
                       const DccConfig& config) {
  return dcc_schedule_from(g, internal,
                           std::vector<bool>(g.num_vertices(), true), config);
}

DccResult dcc_schedule_from(const Graph& g, const std::vector<bool>& internal,
                            const std::vector<bool>& initial_active,
                            const DccConfig& config) {
  TGC_CHECK(internal.size() == g.num_vertices());
  TGC_CHECK(initial_active.size() == g.num_vertices());
  TGC_CHECK(config.tau >= 3);
  const VptConfig vpt = config.vpt();

  // The verdict fan-out pool. Each worker owns a private VptWorkspace; every
  // other scratch buffer below is touched only by the scheduler thread.
  util::ThreadPool pool(config.num_threads);
  std::vector<VptWorkspace> workspaces(pool.num_workers());

  DccResult result;
  result.active = initial_active;

  std::vector<VertexId> to_test;
  // Per-node verdicts of the current round's fan-out. Workers write distinct
  // char slots (no word sharing, unlike vector<bool>).
  std::vector<char> verdict(g.num_vertices(), 0);

  // Running awake count, maintained for the round log only.
  std::size_t num_active = 0;
  for (const bool a : result.active) {
    if (a) ++num_active;
  }

  while (result.rounds < config.max_rounds) {
    obs::round_begin();
    // Step 1 (Section V-B): every awake internal node tests its own
    // deletability from local connectivity. Each verdict reads only the
    // graph and the pre-round `active` snapshot and writes only its own
    // slot, so the tests fan out over the pool and the outcome is
    // bit-identical to the serial loop.
    {
      const obs::CostPhaseScope cost_phase(obs::CostPhase::kVerdicts);
      to_test.clear();
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (result.active[v] && internal[v]) to_test.push_back(v);
      }
      result.vpt_tests += to_test.size();
      pool.parallel_for(0, to_test.size(), [&](std::size_t i, unsigned worker) {
        const VertexId v = to_test[i];
        verdict[v] =
            vpt_vertex_deletable(g, result.active, v, vpt, workspaces[worker])
                ? 1
                : 0;
      });
    }

    std::vector<bool> candidate(g.num_vertices(), false);
    std::size_t num_candidates = 0;
    for (const VertexId v : to_test) {
      if (verdict[v] != 0) {
        candidate[v] = true;
        ++num_candidates;
      }
    }
    if (num_candidates == 0) break;
    ++result.rounds;

    // Step 2: an m-hop MIS among the candidates is elected; its members can
    // delete themselves simultaneously (pairwise distance ≥ k+1 keeps their
    // punctured neighbourhoods disjoint from each other).
    std::vector<bool> selected;
    {
      const obs::CostPhaseScope cost_phase(obs::CostPhase::kMis);
      if (config.mis_priorities.empty()) {
        const std::uint64_t round_seed =
            util::splitmix64(config.seed + result.rounds);
        selected = sim::elect_mis_oracle(g, result.active, candidate,
                                         vpt.mis_radius(), round_seed);
      } else {
        selected = sim::elect_mis_oracle_with_priorities(
            g, result.active, candidate, vpt.mis_radius(),
            config.mis_priorities);
      }
    }

    // Step 3: the MIS powers down.
    std::size_t num_selected = 0;
    {
      const obs::CostPhaseScope cost_phase(obs::CostPhase::kDeletion);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (!selected[v]) continue;
        result.active[v] = false;
        ++num_selected;
      }
      TGC_CHECK(num_selected > 0);  // MIS of a non-empty set is non-empty
      result.deleted += num_selected;
    }
    result.per_round.push_back(DccRoundInfo{num_candidates, num_selected});
    num_active -= num_selected;
    obs::round_end(result.rounds, result.active, num_active, num_candidates,
                   num_selected);
    TGC_LOG(kDebug) << "dcc round" << obs::kv("round", result.rounds)
                    << obs::kv("active", num_active)
                    << obs::kv("candidates", num_candidates)
                    << obs::kv("deleted", num_selected);
  }

  result.survivors = 0;
  for (const bool a : result.active) {
    if (a) ++result.survivors;
  }
  return result;
}

}  // namespace tgc::core
