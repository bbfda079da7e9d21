#include "tgcover/cycle/span.hpp"

#include <algorithm>

#include "tgcover/graph/algorithms.hpp"
#include "tgcover/obs/obs.hpp"
#include "tgcover/util/check.hpp"

namespace tgc::cycle {

namespace {

using graph::Graph;
using graph::VertexId;

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// A scratch CSR entry: neighbour in the high half, edge id in the low half,
/// so sorting a row sorts it by neighbour.
std::uint64_t arc(VertexId to, graph::EdgeId e) {
  return (std::uint64_t{to} << 32) | e;
}
VertexId arc_head(std::uint64_t a) { return static_cast<VertexId>(a >> 32); }
graph::EdgeId arc_edge(std::uint64_t a) {
  return static_cast<graph::EdgeId>(a & 0xffffffffu);
}

/// Copies `g` into the scratch CSR under the root order: first a greedy
/// maximal independent set (ascending id), then every other vertex
/// (ascending id). Vertex p of the copy is the p-th root; rows are sorted by
/// the new ids and keep g's edge ids. Independent roots lie spread over the
/// graph and their trees overlap little, so the early roots emit mostly
/// independent cycles and the rank reaches ν after fewer candidates than in
/// plain id order.
template <typename G>
void load_in_root_order(const G& g, SpanScratch& s) {
  enum : std::uint8_t { kFree, kBlocked, kChosen };
  const std::size_t n = g.num_vertices();
  s.label.assign(n, kFree);
  s.queue.clear();
  for (VertexId v = 0; v < n; ++v) {
    if (s.label[v] != kFree) continue;
    s.label[v] = kChosen;
    s.queue.push_back(v);
    for (const VertexId w : g.neighbors(v)) s.label[w] = kBlocked;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (s.label[v] != kChosen) s.queue.push_back(v);
  }
  for (VertexId p = 0; p < n; ++p) s.label[s.queue[p]] = p;

  s.offsets.assign(1, 0);
  s.adj.clear();
  for (VertexId p = 0; p < n; ++p) {
    const VertexId v = s.queue[p];
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      s.adj.push_back(arc(s.label[nbrs[i]], eids[i]));
    }
    std::sort(s.adj.begin() + s.offsets.back(), s.adj.end());
    s.offsets.push_back(static_cast<std::uint32_t>(s.adj.size()));
  }
}

/// Starts a new traversal: every `reach` slot becomes unvisited in O(1).
void begin_pass(SpanScratch& s, std::size_t n) {
  if (s.reach.size() < n) s.reach.resize(n);
  if (++s.epoch == 0) {  // wrapped: invalidate every stamp once
    for (SpanScratch::Reach& r : s.reach) r.stamp = 0;
    s.epoch = 1;
  }
}

/// Fixes the fundamental-cycle coordinates: a BFS spanning forest of the
/// loaded graph (roots in order, FIFO, ascending rows) marks its edges -1
/// and the non-tree edges are numbered 0..ν-1 by edge id. A cycle-space
/// element is then the set of its non-tree edges. The forest and root 0's
/// tree are the same BFS, so root 0's cycles are unit rows. Returns
/// ν = |E| − |V| + #components.
std::size_t assign_coordinates(std::size_t num_edges, SpanScratch& s) {
  const std::size_t n = s.offsets.size() - 1;
  s.coord.assign(num_edges, 0);
  begin_pass(s, n);
  for (VertexId root = 0; root < n; ++root) {
    if (s.reach[root].stamp == s.epoch) continue;
    s.reach[root].stamp = s.epoch;
    s.queue.clear();
    s.queue.push_back(root);
    for (std::size_t head = 0; head < s.queue.size(); ++head) {
      const VertexId u = s.queue[head];
      for (std::size_t i = s.offsets[u]; i < s.offsets[u + 1]; ++i) {
        const VertexId w = arc_head(s.adj[i]);
        if (s.reach[w].stamp == s.epoch) continue;
        s.reach[w].stamp = s.epoch;
        s.coord[arc_edge(s.adj[i])] = -1;
        s.queue.push_back(w);
      }
    }
  }
  std::int32_t nu = 0;
  for (std::int32_t& c : s.coord) {
    if (c == 0) c = nu++;
  }
  return static_cast<std::size_t>(nu);
}

/// Incremental GF(2) elimination over ν-bit rows kept in `s.rows`: row i
/// occupies words [i·W, (i+1)·W) and the row after the last one is the
/// zeroed spare that candidates are built in, so a dependent candidate
/// (reduced back to zero) leaves nothing to undo and an independent one is
/// kept without a copy. `s.pivot_row` maps a row's highest bit to the row.
class Arena {
 public:
  Arena(SpanScratch& s, std::size_t nu)
      : s_(s), nu_(nu), words_((nu + 63) / 64) {
    s_.rows.assign(words_, 0);
    s_.pivot_row.assign(nu, -1);
  }
  ~Arena() { obs::add(obs::CounterId::kGf2Pivots, pivots_); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  bool full() const { return rank_ == nu_; }

  /// Flips coordinate `c` of the spare row.
  void flip(std::size_t c) {
    spare()[c >> 6] ^= std::uint64_t{1} << (c & 63);
    if (c > hi_ || hi_ == kNone) hi_ = c;
  }

  /// Reduces the spare row; keeps it as a new row iff it stays non-zero.
  bool insert() {
    const std::size_t top = reduce();
    if (top == kNone) return false;
    s_.pivot_row[top] = static_cast<std::int32_t>(rank_++);
    if (!full()) s_.rows.resize((rank_ + 1) * words_);
    return true;
  }

  /// True iff the spare row lies in the span of the kept rows.
  bool spare_in_span() { return reduce() == kNone; }

 private:
  std::uint64_t* spare() { return s_.rows.data() + rank_ * words_; }

  /// Highest set bit of `row` within words [0, w], or kNone.
  static std::size_t top_bit(const std::uint64_t* row, std::size_t w) {
    for (std::size_t i = w + 1; i-- > 0;) {
      if (row[i] != 0) {
        return i * 64 + 63 - static_cast<std::size_t>(__builtin_clzll(row[i]));
      }
    }
    return kNone;
  }

  /// Clears every pivot bit of the spare row from the top down and returns
  /// its remaining highest bit (kNone when it reduced to zero). A kept row's
  /// bits lie at or below its pivot, so each step XORs only that prefix.
  std::size_t reduce() {
    std::uint64_t* v = spare();
    std::size_t top = hi_ == kNone ? kNone : top_bit(v, hi_ >> 6);
    hi_ = kNone;
    while (top != kNone && s_.pivot_row[top] >= 0) {
      const std::uint64_t* row =
          s_.rows.data() + static_cast<std::size_t>(s_.pivot_row[top]) * words_;
      const std::size_t tw = top >> 6;
      for (std::size_t i = 0; i <= tw; ++i) v[i] ^= row[i];
      top = top_bit(v, tw);
      ++pivots_;
    }
    return top;
  }

  SpanScratch& s_;
  std::size_t nu_;
  std::size_t words_;
  std::size_t rank_ = 0;
  std::size_t hi_ = kNone;  ///< highest coordinate flipped into the spare
  std::uint64_t pivots_ = 0;
};

/// True iff one of the first 64 roots, already finished, covers the cycle F
/// made of the non-tree edge xy and the current tree's paths from x and y
/// to their LCA: it reached every vertex of F and, for even τ, no edge of F
/// joins two of its depth-cap vertices. F is then the sum over its edges uv
/// of that root's cycles P(u) + uv + P(v), each zero or emitted there
/// (d(u) + d(v) + 1 ≤ τ), so F is already in the span.
bool covered_by_earlier_root(const SpanScratch& s, VertexId x, VertexId y,
                             bool odd_tau) {
  const auto roots_admitting = [&](VertexId u, VertexId v) {
    const std::uint64_t both = s.reached_by[u] & s.reached_by[v];
    return odd_tau ? both : both & ~(s.rim_of[u] & s.rim_of[v]);
  };
  std::uint64_t roots = roots_admitting(x, y);
  VertexId a = x;
  VertexId b = y;
  if (s.reach[b].depth > s.reach[a].depth) {  // BFS: depths differ by ≤ 1
    roots &= roots_admitting(b, s.reach[b].parent);
    b = s.reach[b].parent;
  }
  while (roots != 0 && a != b) {
    roots &= roots_admitting(a, s.reach[a].parent) &
             roots_admitting(b, s.reach[b].parent);
    a = s.reach[a].parent;
    b = s.reach[b].parent;
  }
  return roots != 0;
}

/// Feeds `arena` the short-cycle candidates of the loaded graph until its
/// rank reaches ν. Root r grows a depth-⌊τ/2⌋ BFS tree over the vertices
/// ≥ r and emits, for every non-tree edge xy it reaches with
/// d(x) + d(y) + 1 ≤ τ, the fundamental cycle P_r(x) + xy + P_r(y) in
/// coordinates, unless an earlier root covers it. These span S_τ exactly
/// (DESIGN.md §3): a cycle C with |C| ≤ τ and minimum vertex r is the sum
/// of its edges' such cycles in r's tree, and each of those is zero or has
/// d(x) + d(y) + 1 ≤ |C|.
void fill_short_cycles(std::uint32_t tau, SpanScratch& s, Arena& arena) {
  const std::size_t n = s.offsets.size() - 1;
  const std::uint32_t depth_cap = tau / 2;
  // Two depth-cap vertices close a cycle of length ≤ τ only for odd τ.
  const bool scan_rim = 2 * depth_cap + 1 <= tau;
  std::uint64_t emitted = 0;
  s.reached_by.assign(n, 0);
  s.rim_of.assign(n, 0);
  for (VertexId r = 0; r < n && !arena.full(); ++r) {
    begin_pass(s, n);
    s.queue.clear();
    s.queue.push_back(r);
    s.reach[r] = {s.epoch, 0, 0, r, -1};
    for (std::size_t head = 0; head < s.queue.size() && !arena.full();
         ++head) {
      const VertexId x = s.queue[head];
      const SpanScratch::Reach rx = s.reach[x];
      const bool expand = rx.depth < depth_cap;
      if (!expand && !scan_rim) continue;
      const auto end = s.adj.begin() + s.offsets[x + 1];
      for (auto it = std::lower_bound(s.adj.begin() + s.offsets[x], end,
                                      arc(r, 0));
           it != end; ++it) {
        const VertexId y = arc_head(*it);
        SpanScratch::Reach& ry = s.reach[y];
        if (ry.stamp != s.epoch) {
          if (!expand) continue;
          const std::int32_t up = s.coord[arc_edge(*it)];
          ry = {s.epoch, rx.depth + 1,
                static_cast<std::uint32_t>(s.queue.size()), x, up};
          s.queue.push_back(y);
          continue;
        }
        // Each non-tree edge once, from its endpoint dequeued first (x's
        // parent edge comes from an earlier vertex and is skipped here).
        if (ry.order <= rx.order || rx.depth + ry.depth + 1 > tau) continue;
        if (covered_by_earlier_root(s, x, y, scan_rim)) continue;
        ++emitted;
        const std::int32_t chord = s.coord[arc_edge(*it)];
        if (chord >= 0) arena.flip(static_cast<std::size_t>(chord));
        // The tree paths up to the LCA; above it they would cancel.
        VertexId a = x;
        VertexId b = y;
        const auto climb = [&](VertexId& u) {
          if (s.reach[u].up >= 0) {
            arena.flip(static_cast<std::size_t>(s.reach[u].up));
          }
          u = s.reach[u].parent;
        };
        if (ry.depth > rx.depth) climb(b);  // BFS: depths differ by ≤ 1
        while (a != b) {
          climb(a);
          climb(b);
        }
        if (arena.insert() && arena.full()) break;
      }
    }
    if (r < 64 && !arena.full()) {
      const std::uint64_t bit = std::uint64_t{1} << r;
      for (const VertexId v : s.queue) {
        s.reached_by[v] |= bit;
        if (s.reach[v].depth == depth_cap) s.rim_of[v] |= bit;
      }
    }
  }
  obs::add(obs::CounterId::kHortonCandidates, emitted);
}

/// The span test shared by the Graph and BallView overloads.
template <typename G>
bool short_cycles_span_impl(const G& g, std::uint32_t tau, SpanScratch& s) {
  TGC_CHECK(tau >= 3);
  load_in_root_order(g, s);
  const std::size_t nu = assign_coordinates(g.num_edges(), s);
  if (nu == 0) return true;
  Arena arena(s, nu);
  fill_short_cycles(tau, s, arena);
  return arena.full();
}

}  // namespace

bool short_cycles_span(const Graph& g, std::uint32_t tau) {
  SpanScratch scratch;
  return short_cycles_span(g, tau, scratch);
}

bool short_cycles_span(const Graph& g, std::uint32_t tau,
                       SpanScratch& scratch) {
  return short_cycles_span_impl(g, tau, scratch);
}

bool short_cycles_span(const graph::BallView& g, std::uint32_t tau,
                       SpanScratch& scratch) {
  return short_cycles_span_impl(g, tau, scratch);
}

bool short_cycles_contain(const Graph& g, std::uint32_t tau,
                          const util::Gf2Vector& target) {
  TGC_CHECK(tau >= 3);
  TGC_CHECK(target.size() == g.num_edges());
  // Only cycle-space elements (every vertex of even target degree) can lie
  // in S_τ.
  std::vector<std::uint8_t> parity(g.num_vertices(), 0);
  target.for_each_set_bit([&](std::size_t e) {
    const auto [u, v] = g.edge(static_cast<graph::EdgeId>(e));
    parity[u] ^= 1;
    parity[v] ^= 1;
  });
  if (std::find(parity.begin(), parity.end(), 1) != parity.end()) {
    return false;
  }
  if (target.is_zero()) return true;
  SpanScratch s;
  // A non-zero cycle-space element implies ν > 0. Once S_τ spans the whole
  // cycle space it contains the target; otherwise the target's coordinates
  // (its non-tree edges) must reduce to zero against the basis.
  load_in_root_order(g, s);
  const std::size_t nu = assign_coordinates(g.num_edges(), s);
  Arena arena(s, nu);
  fill_short_cycles(tau, s, arena);
  if (arena.full()) return true;
  target.for_each_set_bit([&](std::size_t e) {
    if (s.coord[e] >= 0) arena.flip(static_cast<std::size_t>(s.coord[e]));
  });
  return arena.spare_in_span();
}

ShortCycleBasis::ShortCycleBasis(const Graph& g, std::uint32_t tau,
                                 bool with_certificates)
    : tau_(tau),
      nu_(graph::cycle_space_dimension(g)),
      with_certificates_(with_certificates),
      elim_(0) {
  TGC_CHECK(tau >= 3);
  CandidateOptions options;
  options.depth_limit = tau / 2;
  options.max_length = tau;
  auto candidates = fundamental_cycle_candidates(g, options);

  // aug_dim must stay positive even with an empty candidate set so that
  // partition_of still answers (only the zero vector is partitionable then).
  elim_ = util::Gf2Eliminator(
      g.num_edges(),
      with_certificates ? std::max<std::size_t>(1, candidates.size()) : 0);
  for (auto& cand : candidates) {
    if (!with_certificates && elim_.rank() == nu_) break;
    elim_.insert(cand.edges);
    if (with_certificates) generators_.push_back(std::move(cand));
  }
}

std::optional<std::vector<Cycle>> ShortCycleBasis::partition_of(
    const util::Gf2Vector& target) const {
  TGC_CHECK_MSG(with_certificates_,
                "ShortCycleBasis must be built with certificates enabled");
  const auto combo = elim_.combination_for(target);
  if (!combo.has_value()) return std::nullopt;
  std::vector<Cycle> parts;
  parts.reserve(combo->size());
  for (const std::size_t idx : *combo) {
    parts.emplace_back(generators_[idx].edges);
  }
  return parts;
}

}  // namespace tgc::cycle
