#pragma once

#include <cstdint>
#include <vector>

/// The one telemetry path out of the DCC round loop (DESIGN.md §8).
///
/// The schedulers (core/scheduler, core/distributed, core/repair) declare
/// phases with obs::CostPhaseScope and report every round boundary through
/// round_begin() / round_end(). Those calls fan out to whichever per-run
/// observers the caller armed — the round collector (round_log.hpp), node
/// telemetry (node_stats.hpp), the quality auditor (quality.hpp) — plus the
/// execution profiler when a profile session is open (profile.hpp; its
/// session is process-wide because pool workers record into their own
/// lanes). The schedulers never name an observer.
///
/// Binding. A caller arms observers for the calling thread with one
/// ObserverScope. Every hook runs on the thread that drives the run: the
/// schedulers report from their own loop, and all sim messaging happens on
/// the thread that owns the engine (pool workers only evaluate verdicts,
/// which report nothing), so fleet cells running whole on different workers
/// never share an observer. An unarmed run pays one thread_local load per
/// hook, and arming perturbs nothing: observers only read what the run
/// already computed, so schedules, cost streams and traces stay
/// byte-identical armed or not.

namespace tgc::obs {

class NodeTelemetry;
class QualityAuditor;
class RoundCollector;

/// The per-run observers a caller can arm; any subset may be null.
struct RoundObservers {
  RoundCollector* rounds = nullptr;
  NodeTelemetry* nodes = nullptr;
  QualityAuditor* quality = nullptr;
};

/// Binds `observers` to the calling thread for the scope's lifetime and
/// restores the previous binding on exit, so a throwing run never leaves a
/// stale pointer behind.
class ObserverScope {
 public:
  explicit ObserverScope(const RoundObservers& observers);
  ~ObserverScope();
  ObserverScope(const ObserverScope&) = delete;
  ObserverScope& operator=(const ObserverScope&) = delete;

 private:
  RoundObservers prev_;
};

/// The calling thread's bound observers (all null when unarmed). The sim
/// engines read `.nodes` on their send/deliver/drop paths.
const RoundObservers& bound_observers();

/// Opens a DCC round: the round collector stashes its start snapshot. A
/// begin without an end (the fixpoint round that finds no candidates) is
/// overwritten by the next begin.
void round_begin();

/// Closes DCC round `round` (1-based): the round collector records the
/// counts and the registry delta, node telemetry and the quality auditor
/// sample the post-deletion awake set `active` (`num_active` nodes), and
/// the profiler marks the round and samples memory.
void round_end(std::uint64_t round, const std::vector<bool>& active,
               std::uint64_t num_active, std::uint64_t candidates,
               std::uint64_t deleted);

/// Closes the distributed executor's k-hop setup, telemetry round 0. Only
/// node telemetry (the setup floods get their own bucket) and the quality
/// auditor (the pre-deletion baseline) see it; it is not a DCC round.
void setup_end(const std::vector<bool>& active);

/// Closes one dcc_repair escalation wave: the profiler marks the wave with
/// its wake `radius` and samples memory. The wave's DCC rounds already
/// reached every observer through round_end().
void repair_wave_end(std::uint64_t radius);

}  // namespace tgc::obs
