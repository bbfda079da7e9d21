#include "tgcover/core/edge_scheduler.hpp"

#include <algorithm>

#include "tgcover/core/vpt.hpp"
#include "tgcover/sim/mis.hpp"
#include "tgcover/util/check.hpp"
#include "tgcover/util/rng.hpp"

namespace tgc::core {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

EdgeScheduleResult dcc_schedule_edges(const Graph& g,
                                      const std::vector<bool>& node_active,
                                      const util::Gf2Vector& protected_edges,
                                      const DccConfig& config) {
  TGC_CHECK(node_active.size() == g.num_vertices());
  TGC_CHECK(protected_edges.size() == g.num_edges() ||
            protected_edges.size() == 0);
  const VptConfig vpt = config.vpt();
  const unsigned k = vpt.effective_k();

  EdgeScheduleResult result;
  result.edge_active.assign(g.num_edges(), false);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    result.edge_active[e] = node_active[u] && node_active[v];
  }
  auto is_protected = [&](EdgeId e) {
    return protected_edges.size() != 0 && protected_edges.test(e);
  };

  VptWorkspace ws;
  while (result.rounds < config.max_rounds) {
    // Candidate links: every live, unprotected link the VPT edge operator
    // finds deletable on the current topology.
    std::vector<EdgeId> candidates;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!result.edge_active[e] || is_protected(e)) continue;
      ++result.vpt_tests;
      if (vpt_edge_deletable(g, node_active, result.edge_active, e, vpt, ws)) {
        candidates.push_back(e);
      }
    }
    if (candidates.empty()) break;
    ++result.rounds;

    // Greedy-by-priority MIS over links: two candidate links conflict when
    // their endpoint sets are within k hops — the same independence distance
    // as simultaneous vertex deletions.
    const std::uint64_t round_seed =
        util::splitmix64(config.seed + 0x5eed + result.rounds);
    std::sort(candidates.begin(), candidates.end(), [&](EdgeId a, EdgeId b) {
      const auto pa = sim::mis_priority(round_seed, a);
      const auto pb = sim::mis_priority(round_seed, b);
      return pa != pb ? pa > pb : a < b;
    });
    std::vector<bool> node_blocked(g.num_vertices(), false);
    std::vector<EdgeId> selected;
    for (const EdgeId e : candidates) {
      const auto [u, v] = g.edge(e);
      if (node_blocked[u] || node_blocked[v]) continue;
      selected.push_back(e);
      for (const VertexId w :
           edge_ball(g, node_active, result.edge_active, e, k, ws)) {
        node_blocked[w] = true;
      }
    }
    TGC_CHECK(!selected.empty());

    for (const EdgeId e : selected) {
      result.edge_active[e] = false;
      ++result.pruned;
    }
  }

  result.kept = static_cast<std::size_t>(std::count(
      result.edge_active.begin(), result.edge_active.end(), true));
  return result;
}

}  // namespace tgc::core
