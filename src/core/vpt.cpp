#include "tgcover/core/vpt.hpp"

#include <algorithm>

#include "tgcover/cycle/span.hpp"
#include "tgcover/graph/algorithms.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::core {

namespace {

using graph::Graph;
using graph::VertexId;

/// Adjacency source over the global graph: a node mask and an optional link
/// mask select the current topology.
struct GraphSource {
  /// The BFS walks the global topology, so the kernel charges the collected
  /// ball to `bfs_expansions`.
  static constexpr bool kTraversesGraph = true;

  const Graph& g;
  const std::vector<bool>& active;
  const std::vector<bool>* edge_active = nullptr;  ///< null: every link live

  std::size_t id_bound() const { return g.num_vertices(); }

  /// Calls `fn(w)` for each live neighbour of `u`, ascending.
  template <typename Fn>
  void for_each_neighbor(VertexId u, Fn&& fn) const {
    const auto nbrs = g.neighbors(u);
    if (edge_active == nullptr) {
      for (const VertexId w : nbrs) {
        if (active[w]) fn(w);
      }
      return;
    }
    const auto eids = g.incident_edges(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (active[nbrs[i]] && (*edge_active)[eids[i]]) fn(nbrs[i]);
    }
  }
};

/// Adjacency source over a node's local view (the data a real node has after
/// the k-hop collection protocol): the recorded adjacency lists, minus nodes
/// tombstoned by deletion notices. Deletions may have lengthened paths since
/// the view was collected, so the kernel's BFS recomputes which recorded
/// nodes are still within k hops.
struct ViewSource {
  /// No global-graph traversal happens (the collection protocol's cost is
  /// accounted as messages): the scanned member list is charged to
  /// ball-view bytes instead of `bfs_expansions`.
  static constexpr bool kTraversesGraph = false;

  const sim::LocalView& view;

  std::size_t id_bound() const {
    return static_cast<std::size_t>(view.id_bound()) + 1;
  }

  /// Records keep the origin's sorted adjacency order, so filtered rows stay
  /// ascending.
  template <typename Fn>
  void for_each_neighbor(VertexId u, Fn&& fn) const {
    if (!view.knows(u)) return;
    for (const VertexId w : view.record(u)) {
      if (view.alive(w)) fn(w);
    }
  }
};

/// What a test removes from its ball: vertex `a` (the ball is a's k-hop
/// neighbourhood, a excluded), or the link (a, b) (the union of both
/// endpoints' k-hop neighbourhoods, endpoints kept, only the link dropped).
struct Puncture {
  VertexId a;
  VertexId b = graph::kInvalidVertex;

  bool is_link() const { return b != graph::kInvalidVertex; }
  bool cuts(VertexId x, VertexId y) const {
    return is_link() && ((x == a && y == b) || (x == b && y == a));
  }
};

/// Depth-k multi-source BFS from the puncture's endpoints over `src`; leaves
/// the ball's members in `ws.members`, sorted ascending.
template <typename Source>
void collect_ball(const Source& src, Puncture p, unsigned k,
                  VptWorkspace& ws) {
  ws.ensure(src.id_bound());
  ws.dist.clear();
  ws.queue.clear();
  ws.members.clear();
  for (const VertexId s : {p.a, p.b}) {
    if (s == graph::kInvalidVertex) continue;
    ws.dist.put(s, 0);
    ws.queue.push_back(s);
    if (p.is_link()) ws.members.push_back(s);
  }
  for (std::size_t head = 0; head < ws.queue.size(); ++head) {
    const VertexId u = ws.queue[head];
    const std::uint32_t du = ws.dist.get(u);
    if (du == k) continue;
    src.for_each_neighbor(u, [&](VertexId w) {
      if (ws.dist.contains(w)) return;
      ws.dist.put(w, du + 1);
      ws.members.push_back(w);
      ws.queue.push_back(w);
    });
  }
  std::sort(ws.members.begin(), ws.members.end());
}

/// The VPT kernel: collects the ball, builds the punctured ball as a
/// BallView, and checks the two Definition-5 conditions on it — connected,
/// and cycles of length ≤ τ span its cycle space (equivalent to maximum
/// irreducible cycle ≤ τ; DESIGN.md §3), with early exit.
template <typename Source>
bool punctured_ball_passes(const Source& src, Puncture p,
                           const VptConfig& config, VptWorkspace& ws) {
  collect_ball(src, p, config.effective_k(), ws);

  // Punctured-local ids follow ascending member order. A punctured vertex is
  // not a member, so its edges never materialize. Rows come out ascending
  // because members are sorted and every source yields ascending adjacency,
  // which is what BallView's first-encounter edge-id assignment requires.
  ws.local.clear();
  for (VertexId i = 0; i < ws.members.size(); ++i) {
    ws.local.put(ws.members[i], i);
  }
  ws.ball.build(ws.members.size(), [&](VertexId lx, auto&& emit) {
    const VertexId x = ws.members[lx];
    src.for_each_neighbor(x, [&](VertexId y) {
      if (ws.local.contains(y) && !p.cuts(x, y)) emit(ws.local.get(y));
    });
  });

  bool deletable = true;  // an empty ball has nothing local to preserve
  if (ws.ball.num_vertices() > 0) {
    deletable = graph::is_connected(ws.ball, ws.components) &&
                cycle::short_cycles_span(ws.ball, config.tau, ws.span);
  }

  const std::size_t members = ws.members.size();
  obs::add(obs::CounterId::kVptTests, 1);
  obs::add(deletable ? obs::CounterId::kVptDeletable
                     : obs::CounterId::kVptVetoed,
           1);
  obs::add(obs::CounterId::kBfsExpansions,
           Source::kTraversesGraph ? members : 0);
  obs::add(obs::CounterId::kBallViewBytes,
           ws.ball.bytes() +
               (Source::kTraversesGraph ? 0 : members * sizeof(VertexId)));
  return deletable;
}

bool edge_test(const GraphSource& src, graph::EdgeId e,
               const VptConfig& config, VptWorkspace& ws) {
  TGC_CHECK(src.active.size() == src.g.num_vertices());
  const auto [u, v] = src.g.edge(e);
  TGC_CHECK(src.active[u] && src.active[v]);
  return punctured_ball_passes(src, Puncture{u, v}, config, ws);
}

}  // namespace

bool vpt_vertex_deletable(const Graph& g, const std::vector<bool>& active,
                          VertexId v, const VptConfig& config) {
  VptWorkspace ws;
  return vpt_vertex_deletable(g, active, v, config, ws);
}

bool vpt_vertex_deletable(const Graph& g, const std::vector<bool>& active,
                          VertexId v, const VptConfig& config,
                          VptWorkspace& ws) {
  TGC_CHECK(active.size() == g.num_vertices());
  TGC_CHECK_MSG(active[v], "VPT test on inactive vertex " << v);
  return punctured_ball_passes(GraphSource{g, active}, Puncture{v}, config,
                               ws);
}

bool vpt_vertex_deletable_local(const sim::LocalView& view,
                                const VptConfig& config) {
  VptWorkspace ws;
  return vpt_vertex_deletable_local(view, config, ws);
}

bool vpt_vertex_deletable_local(const sim::LocalView& view,
                                const VptConfig& config, VptWorkspace& ws) {
  TGC_CHECK(view.owner != graph::kInvalidVertex);
  return punctured_ball_passes(ViewSource{view}, Puncture{view.owner}, config,
                               ws);
}

bool vpt_edge_deletable(const Graph& g, const std::vector<bool>& active,
                        graph::EdgeId e, const VptConfig& config) {
  VptWorkspace ws;
  return vpt_edge_deletable(g, active, e, config, ws);
}

bool vpt_edge_deletable(const Graph& g, const std::vector<bool>& active,
                        graph::EdgeId e, const VptConfig& config,
                        VptWorkspace& ws) {
  return edge_test(GraphSource{g, active}, e, config, ws);
}

bool vpt_edge_deletable(const Graph& g, const std::vector<bool>& active,
                        const std::vector<bool>& edge_active, graph::EdgeId e,
                        const VptConfig& config, VptWorkspace& ws) {
  TGC_CHECK(edge_active.size() == g.num_edges());
  TGC_CHECK_MSG(edge_active[e], "VPT test on deleted link " << e);
  return edge_test(GraphSource{g, active, &edge_active}, e, config, ws);
}

std::span<const VertexId> edge_ball(const Graph& g,
                                    const std::vector<bool>& active,
                                    const std::vector<bool>& edge_active,
                                    graph::EdgeId e, unsigned k,
                                    VptWorkspace& ws) {
  TGC_CHECK(edge_active.size() == g.num_edges());
  const auto [u, v] = g.edge(e);
  collect_ball(GraphSource{g, active, &edge_active}, Puncture{u, v}, k, ws);
  return ws.members;
}

}  // namespace tgc::core
