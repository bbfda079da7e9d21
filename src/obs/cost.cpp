#include "tgcover/obs/cost.hpp"

#include <deque>
#include <mutex>

#include "tgcover/obs/obs.hpp"
#include "tgcover/obs/profile.hpp"

namespace tgc::obs {

namespace {

constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "vpt_tests",         "vpt_deletable",     "vpt_vetoed",
    "bfs_expansions",    "horton_candidates", "gf2_pivots",
    "messages",          "payload_words",     "repair_waves",
    "messages_lost",     "retransmissions",   "verdict_cache_hits",
    "dirty_nodes",       "ball_view_bytes",
};

constexpr std::array<std::string_view, kNumPhases> kPhaseNames = {
    "verdicts", "mis", "deletion", "khop", "repair", "other",
};

// A new enumerator without a matching name entry would value-initialize the
// trailing slot to an empty view; catch that at compile time.
static_assert(!kCounterNames.back().empty(),
              "counter name table out of sync with CounterId");
static_assert(!kPhaseNames.back().empty(),
              "phase name table out of sync with CostPhase");

/// The process-wide cost-shard registry. Shards live in a deque (stable
/// addresses, no moves on growth) and are never reclaimed: a worker thread
/// that exits leaves its accumulated totals behind, which is exactly right
/// for monotonic counters.
struct CostRegistry {
  std::mutex mutex;
  std::deque<detail::CostShard> shards;
  std::atomic<bool> enabled{false};
  std::atomic<unsigned> phase{static_cast<unsigned>(CostPhase::kOther)};
};

CostRegistry& cost_registry() {
  static CostRegistry r;
  return r;
}

detail::CostShard* register_cost_shard() {
  CostRegistry& r = cost_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return &r.shards.emplace_back();
}

}  // namespace

std::string_view counter_name(CounterId id) {
  return kCounterNames[static_cast<std::size_t>(id)];
}

std::string_view cost_phase_name(CostPhase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

std::uint64_t logical_cost(const CostVec& v) {
  return v.get(CounterId::kVptTests) + v.get(CounterId::kBfsExpansions) +
         v.get(CounterId::kHortonCandidates) + v.get(CounterId::kGf2Pivots) +
         v.get(CounterId::kMessages) + v.get(CounterId::kRetransmissions) +
         v.get(CounterId::kRepairWaves);
}

namespace detail {

CostShard& local_cost_shard() {
  thread_local CostShard* shard = register_cost_shard();
  return *shard;
}

std::atomic<bool>& cost_enabled_flag() { return cost_registry().enabled; }

std::atomic<unsigned>& current_phase_slot() { return cost_registry().phase; }

}  // namespace detail

void set_enabled(bool on) {
  detail::cost_enabled_flag().store(on, std::memory_order_relaxed);
}

CostSnapshot cost_snapshot() {
  CostRegistry& r = cost_registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  CostSnapshot s;
  for (const detail::CostShard& shard : r.shards) {
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      for (std::size_t i = 0; i < kNumCounters; ++i) {
        s.phases[p].units[i] +=
            shard.units[p][i].load(std::memory_order_relaxed);
      }
      s.ns[p] += shard.ns[p].load(std::memory_order_relaxed);
    }
  }
  return s;
}

Metrics& Metrics::operator-=(const Metrics& rhs) {
  for (std::size_t i = 0; i < kNumCounters; ++i) counters[i] -= rhs.counters[i];
  for (std::size_t p = 0; p < kNumPhases; ++p) phase_ns[p] -= rhs.phase_ns[p];
  return *this;
}

Metrics metrics_of(const CostSnapshot& s) {
  Metrics m;
  m.counters = s.total().units;
  m.phase_ns = s.ns;
  return m;
}

Metrics snapshot() { return metrics_of(cost_snapshot()); }

CostVec local_cost_totals() {
  const detail::CostShard& shard = detail::local_cost_shard();
  CostVec t;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      t.units[i] += shard.units[p][i].load(std::memory_order_relaxed);
    }
  }
  return t;
}

CostAuditScope::CostAuditScope() {
  const detail::CostShard& shard = detail::local_cost_shard();
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      before_[p][i] = shard.units[p][i].load(std::memory_order_relaxed);
    }
  }
}

CostAuditScope::~CostAuditScope() {
  detail::CostShard& shard = detail::local_cost_shard();
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      const std::uint64_t now =
          shard.units[p][i].load(std::memory_order_relaxed);
      const std::uint64_t delta = now - before_[p][i];
      if (delta != 0) {
        shard.units[p][i].fetch_sub(delta, std::memory_order_relaxed);
      }
    }
  }
}

CostPhase current_phase() {
  return static_cast<CostPhase>(
      detail::current_phase_slot().load(std::memory_order_relaxed));
}

void set_current_phase(CostPhase phase) {
  detail::current_phase_slot().store(static_cast<unsigned>(phase),
                                     std::memory_order_relaxed);
  // Phase transitions are timeline landmarks: the execution profiler drops
  // an instant event on the calling thread's lane (no-op when profiling is
  // off — phase scopes flip twice per round, far off any hot loop).
  detail::profile_on_phase_change(phase);
}

CostPhaseScope::CostPhaseScope(CostPhase phase)
    : phase_(phase), prev_(current_phase()), timed_(kCompiledIn && enabled()) {
  if (timed_) start_ns_ = now_ns();
  set_current_phase(phase);
}

CostPhaseScope::~CostPhaseScope() {
  if (timed_) {
    detail::local_cost_shard()
        .ns[static_cast<std::size_t>(phase_)]
        .fetch_add(now_ns() - start_ns_, std::memory_order_relaxed);
  }
  set_current_phase(prev_);
}

CostModel::CostModel()
    : baseline_(cost_snapshot()), round_start_(baseline_) {}

void CostModel::begin_round() { round_start_ = cost_snapshot(); }

void CostModel::end_round() {
  CostProfile profile;
  profile.round = static_cast<std::uint64_t>(profiles_.size()) + 1;
  profile.delta = cost_snapshot() - round_start_;
  profiles_.push_back(std::move(profile));
}

void CostModel::finalize() {
  final_totals_ = cost_snapshot() - baseline_;
  finalized_ = true;
}

CostSnapshot CostModel::totals() const {
  return finalized_ ? final_totals_ : cost_snapshot() - baseline_;
}

}  // namespace tgc::obs
