#include "tgcover/app/rounds.hpp"

#include "tgcover/util/check.hpp"
#include "tgcover/util/table.hpp"

namespace tgc::app {

RoundRow& RoundRow::operator+=(const RoundRow& rhs) {
  active = rhs.active;  // totals row shows the final awake count
  candidates += rhs.candidates;
  deleted += rhs.deleted;
  vpt_tests += rhs.vpt_tests;
  cache_hits += rhs.cache_hits;
  dirty_nodes += rhs.dirty_nodes;
  ball_view_bytes += rhs.ball_view_bytes;
  bfs_expansions += rhs.bfs_expansions;
  horton_candidates += rhs.horton_candidates;
  gf2_pivots += rhs.gf2_pivots;
  messages += rhs.messages;
  messages_lost += rhs.messages_lost;
  retransmissions += rhs.retransmissions;
  ns_verdicts += rhs.ns_verdicts;
  ns_mis += rhs.ns_mis;
  ns_deletion += rhs.ns_deletion;
  logical_cost += rhs.logical_cost;
  return *this;
}

RoundRow row_from_event(const obs::RoundEvent& ev) {
  RoundRow r;
  r.round = ev.round;
  r.active = ev.active;
  r.candidates = ev.candidates;
  r.deleted = ev.deleted;
  r.vpt_tests = ev.delta.get(obs::CounterId::kVptTests);
  r.cache_hits = ev.delta.get(obs::CounterId::kVerdictCacheHits);
  r.dirty_nodes = ev.delta.get(obs::CounterId::kDirtyNodes);
  r.ball_view_bytes = ev.delta.get(obs::CounterId::kBallViewBytes);
  r.bfs_expansions = ev.delta.get(obs::CounterId::kBfsExpansions);
  r.horton_candidates = ev.delta.get(obs::CounterId::kHortonCandidates);
  r.gf2_pivots = ev.delta.get(obs::CounterId::kGf2Pivots);
  r.messages = ev.delta.get(obs::CounterId::kMessages);
  r.messages_lost = ev.delta.get(obs::CounterId::kMessagesLost);
  r.retransmissions = ev.delta.get(obs::CounterId::kRetransmissions);
  r.ns_verdicts = ev.delta.ns(obs::CostPhase::kVerdicts);
  r.ns_mis = ev.delta.ns(obs::CostPhase::kMis);
  r.ns_deletion = ev.delta.ns(obs::CostPhase::kDeletion);
  r.logical_cost = obs::logical_cost(obs::CostVec{ev.delta.counters});
  return r;
}

RoundRow row_from_record(const obs::JsonRecord& rec) {
  RoundRow r;
  r.round = rec.u64("round");
  r.active = rec.u64("active");
  r.candidates = rec.u64("candidates");
  r.deleted = rec.u64("deleted");
  r.vpt_tests = rec.u64("vpt_tests");
  r.cache_hits = rec.u64("verdict_cache_hits");
  r.dirty_nodes = rec.u64("dirty_nodes");
  r.ball_view_bytes = rec.u64("ball_view_bytes");
  r.bfs_expansions = rec.u64("bfs_expansions");
  r.horton_candidates = rec.u64("horton_candidates");
  r.gf2_pivots = rec.u64("gf2_pivots");
  r.messages = rec.u64("messages");
  r.messages_lost = rec.u64("messages_lost");
  r.retransmissions = rec.u64("retransmissions");
  r.ns_verdicts = rec.u64("ns_verdicts");
  r.ns_mis = rec.u64("ns_mis");
  r.ns_deletion = rec.u64("ns_deletion");
  obs::CostVec v;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    v.units[i] = rec.u64(
        std::string(obs::counter_name(static_cast<obs::CounterId>(i))));
  }
  r.logical_cost = obs::logical_cost(v);
  return r;
}

CostRow cost_from_record(const obs::JsonRecord& rec) {
  CostRow c;
  c.round = rec.u64("round");
  c.phase = rec.text("phase");
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    c.vec.units[i] = rec.u64(
        std::string(obs::counter_name(static_cast<obs::CounterId>(i))));
  }
  // Trust the recomputation, not the recorded field — a hand-edited file
  // cannot smuggle an inconsistent scalar past `compare`.
  c.logical_cost = obs::logical_cost(c.vec);
  return c;
}

std::string render_round_table(const std::vector<RoundRow>& rows) {
  // "hits"/"dirty"/"view B" mirror the cost table's columns: "hits" and
  // "dirty" stay 0 since every round re-tests every node (DESIGN.md §11);
  // "view B" shows per round how many ball-view bytes were materialized.
  util::Table table({"round", "active", "cand", "del", "vpt", "hits", "dirty",
                     "bfs", "horton", "gf2", "msgs", "lost", "rexmit",
                     "view B", "cost", "verdict ms", "mis ms", "del ms"});
  const auto ms = [](std::uint64_t ns) {
    return util::Table::num(static_cast<double>(ns) / 1e6, 2);
  };
  const auto row_of = [&ms](const std::string& label, const RoundRow& r) {
    return std::vector<std::string>{
        label,
        std::to_string(r.active),
        std::to_string(r.candidates),
        std::to_string(r.deleted),
        std::to_string(r.vpt_tests),
        std::to_string(r.cache_hits),
        std::to_string(r.dirty_nodes),
        std::to_string(r.bfs_expansions),
        std::to_string(r.horton_candidates),
        std::to_string(r.gf2_pivots),
        std::to_string(r.messages),
        std::to_string(r.messages_lost),
        std::to_string(r.retransmissions),
        std::to_string(r.ball_view_bytes),
        std::to_string(r.logical_cost),
        ms(r.ns_verdicts),
        ms(r.ns_mis),
        ms(r.ns_deletion)};
  };
  RoundRow total;
  for (const RoundRow& r : rows) {
    total += r;
    table.add_row(row_of(std::to_string(r.round), r));
  }
  if (!rows.empty()) {
    table.add_row(row_of("total", total));
  }
  return table.to_string();
}

std::string render_cost_table(const std::vector<CostRow>& totals) {
  // "hits"/"dirty" stay 0 since every round re-tests every node (DESIGN.md
  // §11); "view B" is the bytes of BallView arena built for VPT tests. All
  // three are outside the logical-cost scalar but equally
  // machine-independent.
  util::Table table({"phase", "vpt", "hits", "dirty", "bfs", "horton", "gf2",
                     "msgs", "rexmit", "waves", "view B", "cost"});
  CostRow sum;
  const auto row_of = [](const std::string& label, const CostRow& c,
                         std::uint64_t cost) {
    return std::vector<std::string>{
        label, std::to_string(c.vec.get(obs::CounterId::kVptTests)),
        std::to_string(c.vec.get(obs::CounterId::kVerdictCacheHits)),
        std::to_string(c.vec.get(obs::CounterId::kDirtyNodes)),
        std::to_string(c.vec.get(obs::CounterId::kBfsExpansions)),
        std::to_string(c.vec.get(obs::CounterId::kHortonCandidates)),
        std::to_string(c.vec.get(obs::CounterId::kGf2Pivots)),
        std::to_string(c.vec.get(obs::CounterId::kMessages)),
        std::to_string(c.vec.get(obs::CounterId::kRetransmissions)),
        std::to_string(c.vec.get(obs::CounterId::kRepairWaves)),
        std::to_string(c.vec.get(obs::CounterId::kBallViewBytes)),
        std::to_string(cost)};
  };
  for (const CostRow& c : totals) {
    sum.vec += c.vec;
    table.add_row(row_of(c.phase, c, c.logical_cost));
  }
  if (!totals.empty()) {
    table.add_row(row_of("total", sum, obs::logical_cost(sum.vec)));
  }
  return table.to_string();
}

RoundLog load_round_log(const std::string& path) {
  RoundLog log;
  const auto visit = [&](obs::JsonRecord& rec) -> std::string {
    const std::string type = rec.text("type");
    if (type == "round") {
      RoundRow row = row_from_record(rec);
      if (!log.rows.empty() && row.round <= log.rows.back().round) {
        return "skipping duplicate/out-of-order round id " +
               std::to_string(row.round);
      }
      log.rows.push_back(row);
    } else if (type == "cost") {
      log.costs.push_back(cost_from_record(rec));
    } else if (type == "cost_total") {
      log.cost_totals.push_back(cost_from_record(rec));
    } else if (type == "summary") {
      log.summary = std::move(rec);
    } else {
      return "skipping unknown record type '" + type + "'";
    }
    return "";
  };
  obs::JsonlStream stream = obs::read_jsonl_stream(path, visit);
  if (!stream.error.empty()) {
    log.error = std::move(stream.error);
    return log;
  }
  log.manifest = std::move(stream.manifest);
  log.notes = std::move(stream.notes);
  log.skipped = log.notes.size();
  return log;
}

}  // namespace tgc::app
