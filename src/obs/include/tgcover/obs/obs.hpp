#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "tgcover/obs/cost.hpp"

/// Compile gate for the wall-clock telemetry hot path. `tgc_obs` defines it
/// PUBLICly from the TGC_OBS CMake option; the fallback keeps stray includes
/// working.
#ifndef TGC_OBS_ENABLED
#define TGC_OBS_ENABLED 1
#endif

namespace tgc::obs {

/// True when the phase timers are compiled in (TGC_OBS=ON). With OFF a
/// CostPhaseScope only sets the phase and the per-phase nanosecond slots stay
/// zero, but every type stays defined so call sites never #ifdef.
///
/// The logical work-unit counters (cost.hpp) are NOT behind this gate: they
/// are always compiled, runtime-gated by obs::enabled(), and byte-identical
/// across build flavours — only wall-clock instrumentation compiles out.
inline constexpr bool kCompiledIn = TGC_OBS_ENABLED != 0;

/// A merged snapshot of every cost shard: the counters summed over phases
/// plus the wall-clock nanoseconds each phase scope recorded (all zero under
/// TGC_OBS=OFF). Both are monotonic, so the component-wise difference of two
/// snapshots is the exact work performed between them — the round log is
/// built entirely from such deltas.
struct Metrics {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumPhases> phase_ns{};

  std::uint64_t get(CounterId id) const {
    return counters[static_cast<std::size_t>(id)];
  }
  std::uint64_t ns(CostPhase phase) const {
    return phase_ns[static_cast<std::size_t>(phase)];
  }

  Metrics& operator-=(const Metrics& rhs);
  friend Metrics operator-(Metrics lhs, const Metrics& rhs) {
    lhs -= rhs;
    return lhs;
  }
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The phase axis of a cost snapshot (or delta) collapsed into Metrics.
Metrics metrics_of(const CostSnapshot& s);

/// Merges the cost registry: metrics_of(cost_snapshot()).
Metrics snapshot();

}  // namespace tgc::obs
