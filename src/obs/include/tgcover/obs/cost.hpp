#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

/// The logical cost model: machine-independent work-unit accounting.
///
/// Everything here is ALWAYS compiled — `-DTGC_OBS=OFF` removes only the
/// phase scopes' wall-clock timing. Logical units
/// (VPT tests, BFS expansions, Horton candidates, GF(2) pivots, simulated
/// messages) are deterministic functions of the input and seed, so their
/// per-round, per-phase profiles are byte-identical across machines, thread
/// counts, log levels, and the TGC_OBS build flavour. That invariant is what
/// `tgcover compare` and tools/bench_gate.py hard-fail on (see DESIGN.md
/// §10); wall-clock numbers are advisory everywhere.

namespace tgc::obs {

/// The process-wide monotonic work-unit counters. Fixed at compile time: an
/// enum slot costs 8 bytes per thread shard per phase and one name-table
/// entry, so counters are cheap to add (see DESIGN.md §8) but deliberately
/// not dynamic — the hot path indexes a flat array, no hashing, no
/// registration handshake.
enum class CounterId : unsigned {
  kVptTests,          ///< VPT deletability evaluations (vertex, local, edge)
  kVptDeletable,      ///< ... of which answered "deletable"
  kVptVetoed,         ///< ... of which answered "not deletable"
  kBfsExpansions,     ///< vertices discovered by k-hop BFS frontiers
  kHortonCandidates,  ///< Horton candidate cycles generated / considered
  kGf2Pivots,         ///< GF(2) pivot-elimination XOR steps
  kMessages,          ///< radio messages simulated by the sim engines
  kPayloadWords,      ///< 32-bit payload words carried by those messages
  kRepairWaves,       ///< wake-radius escalations performed by dcc_repair
  kMessagesLost,      ///< transmissions lost on the air (AsyncEngine)
  kRetransmissions,   ///< α-synchronizer retransmissions of unacked messages
  kVerdictCacheHits,  ///< always 0: rounds re-test every node (DESIGN §11)
  kDirtyNodes,        ///< always 0: rounds re-test every node (DESIGN §11)
  kBallViewBytes,     ///< logical bytes of punctured ball views materialized
  kCount
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(CounterId::kCount);

/// Snake_case counter names used as JSONL keys and table headers.
std::string_view counter_name(CounterId id);

/// The protocol phase a work unit is attributed to — the one phase taxonomy
/// shared by the cost counters, the per-phase wall-clock columns of the round
/// log (`ns_*`) and the profiler. Phases are fork-join sequential (the
/// scheduler moves through them one at a time and workers are quiescent at
/// every transition), so a single process-wide current phase gives
/// deterministic attribution at any thread count.
enum class CostPhase : unsigned {
  kVerdicts,  ///< DCC Step 1: VPT verdict fan-out
  kMis,       ///< DCC Step 2: m-hop MIS election
  kDeletion,  ///< DCC Step 3: deletion
  kKhop,      ///< distributed executor: k-hop view collection
  kRepair,    ///< dcc_repair wake-radius escalation (outside nested phases)
  kOther,     ///< work outside any declared phase
  kCount
};
inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(CostPhase::kCount);

std::string_view cost_phase_name(CostPhase phase);

/// One vector of work-unit tallies — a point (or delta) in logical-cost
/// space. Component-wise arithmetic only; no wall-clock anywhere.
struct CostVec {
  std::array<std::uint64_t, kNumCounters> units{};

  std::uint64_t get(CounterId id) const {
    return units[static_cast<std::size_t>(id)];
  }
  bool is_zero() const {
    for (const std::uint64_t u : units) {
      if (u != 0) return false;
    }
    return true;
  }

  CostVec& operator+=(const CostVec& rhs) {
    for (std::size_t i = 0; i < kNumCounters; ++i) units[i] += rhs.units[i];
    return *this;
  }
  CostVec& operator-=(const CostVec& rhs) {
    for (std::size_t i = 0; i < kNumCounters; ++i) units[i] -= rhs.units[i];
    return *this;
  }
  friend CostVec operator+(CostVec lhs, const CostVec& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend CostVec operator-(CostVec lhs, const CostVec& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend bool operator==(const CostVec& a, const CostVec& b) {
    return a.units == b.units;
  }
};

/// The scalar the bench gate and `tgcover compare` rank runs by: one unit of
/// logical cost per primitive operation. Sub-counts (deletable/vetoed are a
/// partition of tests, lost is a subset of messages) and payload_words (a
/// different unit) are excluded to avoid double counting — see DESIGN.md §10.
/// verdict_cache_hits, dirty_nodes and ball_view_bytes are likewise
/// excluded: the first two stay 0 since rounds stopped caching verdicts
/// (their columns remain for existing readers), and bytes are a memory unit
/// — all three remain machine-independent and exact-match gated as their own
/// bench columns.
std::uint64_t logical_cost(const CostVec& v);

/// Registry state split by phase. `total()` collapses the phase axis and is
/// what Metrics::counters is built from. `ns` is the wall-clock time the
/// phase scopes recorded (zero under TGC_OBS=OFF); it is never part of the
/// machine-independent cost stream.
struct CostSnapshot {
  std::array<CostVec, kNumPhases> phases{};
  std::array<std::uint64_t, kNumPhases> ns{};

  const CostVec& phase(CostPhase p) const {
    return phases[static_cast<std::size_t>(p)];
  }
  CostVec total() const {
    CostVec t;
    for (const CostVec& p : phases) t += p;
    return t;
  }
  CostSnapshot& operator-=(const CostSnapshot& rhs) {
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      phases[i] -= rhs.phases[i];
      ns[i] -= rhs.ns[i];
    }
    return *this;
  }
  friend CostSnapshot operator-(CostSnapshot lhs, const CostSnapshot& rhs) {
    lhs -= rhs;
    return lhs;
  }
};

namespace detail {

/// One thread's slice of the cost registry: one shard per thread, relaxed
/// atomics, never reclaimed (a worker that exits leaves its totals behind),
/// merged under a mutex by cost_snapshot(). `ns` holds the wall-clock time of
/// the phase scopes this thread closed.
struct CostShard {
  std::array<std::array<std::atomic<std::uint64_t>, kNumCounters>, kNumPhases>
      units{};
  std::array<std::atomic<std::uint64_t>, kNumPhases> ns{};
};

CostShard& local_cost_shard();
std::atomic<bool>& cost_enabled_flag();
std::atomic<unsigned>& current_phase_slot();

}  // namespace detail

/// Runtime master switch (default off) shared by the cost counters and the
/// phase timers. Disabled, every instrumentation site costs one relaxed bool
/// load and a predicted-untaken branch.
inline bool enabled() {
  return detail::cost_enabled_flag().load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Adds `delta` to the calling thread's shard under the current phase. Hot
/// loops batch into a local and call this once per kernel invocation, not
/// once per element.
inline void add(CounterId id, std::uint64_t delta) {
  if (!enabled()) return;
  const unsigned phase =
      detail::current_phase_slot().load(std::memory_order_relaxed);
  detail::local_cost_shard()
      .units[phase][static_cast<std::size_t>(id)]
      .fetch_add(delta, std::memory_order_relaxed);
}

/// Merges every shard under the registry lock. Safe to call while other
/// threads keep counting; the result is a consistent-enough monotonic view
/// (per-slot atomic reads).
CostSnapshot cost_snapshot();

/// The calling thread's shard only, summed over phases. Because shards are
/// strictly thread-local, the delta of two calls brackets exactly the work
/// this thread performed in between — no other thread can perturb it. This
/// is how the fleet runner attributes counters to a run: each campaign run
/// executes single-threaded on one pool worker, so the bracketing delta is
/// that run's exact total even while sibling workers count concurrently.
CostVec local_cost_totals();

CostPhase current_phase();
void set_current_phase(CostPhase phase);

/// RAII phase scope: the one way code declares a protocol phase. It
/// attributes counters to `phase` and, when the counters are enabled and the
/// timers compiled in (TGC_OBS=ON), adds its wall time to the calling
/// thread's nanosecond slot for `phase` — the `ns_*` round-log columns. The
/// enabled flag is captured at construction, so a scope never half-records
/// across a runtime toggle. Installed at fork-join boundaries only
/// (scheduler phase transitions happen with all workers quiescent), so the
/// single process-wide slot is race-free in practice and attribution is
/// identical at every thread count. Nests: dcc_repair opens kRepair, and the
/// scheduler phases it re-enters override inside (their time counts in both
/// slots).
class CostPhaseScope {
 public:
  explicit CostPhaseScope(CostPhase phase);
  ~CostPhaseScope();
  CostPhaseScope(const CostPhaseScope&) = delete;
  CostPhaseScope& operator=(const CostPhaseScope&) = delete;

 private:
  CostPhase phase_;
  CostPhase prev_;
  bool timed_;
  std::uint64_t start_ns_ = 0;
};

/// Exactly reverts whatever cost-counter activity the calling thread
/// performs during the scope's lifetime. Shards are strictly thread-local
/// (the same argument that makes `local_cost_totals` bracketing exact), so
/// snapshotting every phase×counter slot at construction and subtracting the
/// delta at destruction cancels the scope's contribution without touching
/// any other thread's tallies. This is how observation probes may re-enter
/// counted kernels (Horton search, GF(2) elimination) purely to *measure*
/// solution quality: the measurement must not perturb the gated cost stream.
/// Single-threaded scopes only — work the scope hands to other threads is
/// not reverted.
class CostAuditScope {
 public:
  CostAuditScope();
  ~CostAuditScope();
  CostAuditScope(const CostAuditScope&) = delete;
  CostAuditScope& operator=(const CostAuditScope&) = delete;

 private:
  std::array<std::array<std::uint64_t, kNumCounters>, kNumPhases> before_{};
};

/// One round's per-phase logical-cost delta.
struct CostProfile {
  std::uint64_t round = 0;  ///< 1-based, aligned with RoundEvent::round
  CostSnapshot delta;       ///< registry activity during the round, by phase
};

/// Per-run logical-cost accounting: snapshot at round boundaries, buffer one
/// CostProfile per round plus run totals. Driven from the scheduler loop
/// (single-threaded by design) — RoundCollector owns one and keeps it in
/// lockstep with its RoundEvents.
class CostModel {
 public:
  /// Captures the baseline snapshot; run totals are measured from here.
  CostModel();

  /// Stashes a snapshot for the round about to run. A begin without a
  /// matching end is overwritten by the next begin and never emits a record.
  void begin_round();

  /// Closes the round opened by the last `begin_round` and buffers its
  /// per-phase profile.
  void end_round();

  /// Freezes the run totals. Call once, after the schedule/repair returns.
  void finalize();

  const std::vector<CostProfile>& profiles() const { return profiles_; }
  /// Per-phase activity from construction to `finalize` (to now, if not yet
  /// finalized).
  CostSnapshot totals() const;

 private:
  CostSnapshot baseline_;
  CostSnapshot round_start_;
  CostSnapshot final_totals_;
  bool finalized_ = false;
  std::vector<CostProfile> profiles_;
};

}  // namespace tgc::obs
