#include "tgcover/obs/round_log.hpp"

#include <array>
#include <ostream>
#include <string_view>
#include <utility>

namespace tgc::obs {

namespace {

/// The per-phase wall-clock columns, in their stream order. kOther is never
/// timed: no scope opens it.
constexpr std::array<std::pair<CostPhase, std::string_view>, 5> kNsColumns = {{
    {CostPhase::kVerdicts, "ns_verdicts"},
    {CostPhase::kMis, "ns_mis"},
    {CostPhase::kDeletion, "ns_deletion"},
    {CostPhase::kKhop, "ns_khop_collect"},
    {CostPhase::kRepair, "ns_repair_wave"},
}};

/// Shared key order for round and summary records: scheduler-provided
/// fields, then every counter by name, then per-phase nanoseconds.
void write_metrics_fields(std::ostream& out, const Metrics& m) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out << ",\"" << counter_name(static_cast<CounterId>(i))
        << "\":" << m.counters[i];
  }
  for (const auto& [phase, column] : kNsColumns) {
    out << ",\"" << column << "\":" << m.ns(phase);
  }
}

void write_cost_fields(std::ostream& out, const CostVec& v) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out << ",\"" << counter_name(static_cast<CounterId>(i))
        << "\":" << v.units[i];
  }
  out << ",\"logical_cost\":" << logical_cost(v);
}

/// One "cost"/"cost_total" record per phase with any activity. Skipping
/// all-zero phases keeps the stream compact without costing determinism:
/// which phases fire is itself a deterministic function of input and seed.
void write_cost_records(std::ostream& out, std::string_view type,
                        std::uint64_t round, bool with_round,
                        const CostSnapshot& s) {
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const CostVec& v = s.phases[p];
    if (v.is_zero()) continue;
    out << "{\"type\":\"" << type << '"';
    if (with_round) out << ",\"round\":" << round;
    out << ",\"phase\":\"" << cost_phase_name(static_cast<CostPhase>(p))
        << '"';
    write_cost_fields(out, v);
    out << "}\n";
  }
}

}  // namespace

RoundCollector::RoundCollector() : t0_ns_(now_ns()) {}

void RoundCollector::begin_round() { cost_.begin_round(); }

void RoundCollector::end_round(std::uint64_t active, std::uint64_t candidates,
                               std::uint64_t deleted) {
  RoundEvent ev;
  ev.round = static_cast<std::uint64_t>(events_.size()) + 1;
  ev.active = active;
  ev.candidates = candidates;
  ev.deleted = deleted;
  cost_.end_round();
  ev.delta = metrics_of(cost_.profiles().back().delta);
  events_.push_back(std::move(ev));
}

void RoundCollector::finalize(std::uint64_t survivors) {
  survivors_ = survivors;
  wall_ns_ = now_ns() - t0_ns_;
  finalized_ = true;
  cost_.finalize();
}

Metrics RoundCollector::totals() const { return metrics_of(cost_.totals()); }

std::uint64_t RoundCollector::wall_ns() const {
  return finalized_ ? wall_ns_ : now_ns() - t0_ns_;
}

void RoundCollector::write_jsonl(std::ostream& out) const {
  const std::vector<CostProfile>& profiles = cost_.profiles();
  for (const RoundEvent& ev : events_) {
    out << "{\"type\":\"round\",\"round\":" << ev.round
        << ",\"active\":" << ev.active << ",\"candidates\":" << ev.candidates
        << ",\"deleted\":" << ev.deleted;
    write_metrics_fields(out, ev.delta);
    out << "}\n";
    // The collector drives both buffers in lockstep, so index == index.
    if (ev.round <= profiles.size()) {
      write_cost_records(out, "cost", ev.round, /*with_round=*/true,
                         profiles[ev.round - 1].delta);
    }
  }
  write_cost_records(out, "cost_total", 0, /*with_round=*/false,
                     cost_.totals());
  out << "{\"type\":\"summary\",\"rounds\":" << events_.size()
      << ",\"survivors\":" << survivors_ << ",\"wall_ns\":" << wall_ns()
      << ",\"obs_compiled\":" << (kCompiledIn ? 1 : 0)
      << ",\"logical_cost\":" << logical_cost(cost_.totals().total());
  write_metrics_fields(out, totals());
  out << "}\n";
}

void RoundCollector::write_cost_jsonl(std::ostream& out) const {
  for (const CostProfile& profile : cost_.profiles()) {
    write_cost_records(out, "cost", profile.round, /*with_round=*/true,
                       profile.delta);
  }
  write_cost_records(out, "cost_total", 0, /*with_round=*/false,
                     cost_.totals());
}

}  // namespace tgc::obs
