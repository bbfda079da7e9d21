#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "tgcover/obs/cost.hpp"

/// Compile gate for the wall-clock telemetry hot path. `tgc_obs` defines it
/// PUBLICly from the TGC_OBS CMake option; the fallback keeps stray includes
/// working.
#ifndef TGC_OBS_ENABLED
#define TGC_OBS_ENABLED 1
#endif

namespace tgc::obs {

/// True when the span timers are compiled in (TGC_OBS=ON). With OFF every
/// span is a no-op expression the optimizer deletes; span histograms are
/// all-zero but every type stays defined so call sites never #ifdef.
///
/// The logical work-unit counters (cost.hpp) are NOT behind this gate: they
/// are always compiled, runtime-gated by obs::enabled(), and byte-identical
/// across build flavours — only wall-clock instrumentation compiles out.
inline constexpr bool kCompiledIn = TGC_OBS_ENABLED != 0;

/// Scoped-timer identities. Each span id owns one latency histogram per
/// thread shard; per-phase nanoseconds in the round log are the deltas of
/// the corresponding histogram sums.
enum class SpanId : unsigned {
  kVerdicts,     ///< DCC Step 1: the per-round VPT verdict fan-out
  kMis,          ///< DCC Step 2: m-hop MIS election
  kDeletion,     ///< DCC Step 3: deletion
  kKhopCollect,  ///< distributed executor: k-hop view collection
  kRepairWave,   ///< one wake-radius escalation of dcc_repair
  kCount
};
inline constexpr std::size_t kNumSpans =
    static_cast<std::size_t>(SpanId::kCount);

/// Snake_case names used as JSONL keys and table headers.
std::string_view span_name(SpanId id);

/// Power-of-two latency buckets: bucket i counts durations with
/// floor(log2(ns)) == i (bucket 0 additionally takes 0 ns). 40 buckets reach
/// ~18 minutes, far beyond any phase this codebase times.
inline constexpr std::size_t kHistBuckets = 40;

/// Merged view of one span's histogram.
struct HistSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  /// Mean nanoseconds per recorded span (0 when empty).
  double mean_ns() const {
    return count > 0 ? static_cast<double>(sum_ns) / static_cast<double>(count)
                     : 0.0;
  }
};

/// A merged snapshot of every shard: the cost registry's counters (always
/// live) plus the span histograms (zero under TGC_OBS=OFF). Counters are
/// monotonic, so the component-wise difference of two snapshots is the exact
/// work performed between them — the round log is built entirely from such
/// deltas.
struct Metrics {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<HistSnapshot, kNumSpans> spans{};

  std::uint64_t get(CounterId id) const {
    return counters[static_cast<std::size_t>(id)];
  }
  const HistSnapshot& span(SpanId id) const {
    return spans[static_cast<std::size_t>(id)];
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

/// Merges the cost registry and (when compiled in) every span shard. Safe to
/// call while other threads keep counting; the result is a
/// consistent-enough monotonic view (per-slot atomic reads).
Metrics snapshot();

#if TGC_OBS_ENABLED

namespace detail {

/// One thread's slice of the span registry. Slots are relaxed atomics so the
/// owning thread's increments never race the merging reader; there is no
/// cross-thread write sharing at all (one shard per thread, registered on
/// first touch and kept for the life of the process so totals survive worker
/// exit — the StampedArray/VptWorkspace "own your scratch" pattern applied
/// to accounting). Counter shards live in cost.hpp.
struct Shard {
  struct Hist {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  };
  std::array<Hist, kNumSpans> hists{};
};

Shard& local_shard();
int& span_depth_slot();

}  // namespace detail

/// Records one span duration (used by ~Span; exposed for tests).
void record_span(SpanId id, std::uint64_t ns);

/// Nesting depth of live spans on the calling thread (0 outside any span).
inline int span_depth() { return detail::span_depth_slot(); }

/// RAII scoped timer. Captures the enabled flag at construction so a span
/// never half-records across a runtime toggle; compiled out entirely (via
/// the stub below and TGC_OBS_SPAN) under TGC_OBS=OFF.
class Span {
 public:
  explicit Span(SpanId id) : id_(id), live_(enabled()) {
    if (live_) {
      start_ = now_ns();
      ++detail::span_depth_slot();
    }
  }
  ~Span() {
    if (live_) {
      --detail::span_depth_slot();
      record_span(id_, now_ns() - start_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanId id_;
  std::uint64_t start_ = 0;
  bool live_;
};

#else  // !TGC_OBS_ENABLED — every span operation is a deletable no-op.

inline void record_span(SpanId, std::uint64_t) {}
inline int span_depth() { return 0; }

class Span {
 public:
  explicit Span(SpanId) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // TGC_OBS_ENABLED

#define TGC_OBS_CONCAT_INNER(a, b) a##b
#define TGC_OBS_CONCAT(a, b) TGC_OBS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope under `id`.
#if TGC_OBS_ENABLED
#define TGC_OBS_SPAN(id) \
  ::tgc::obs::Span TGC_OBS_CONCAT(tgc_obs_span_, __LINE__) { id }
#else
#define TGC_OBS_SPAN(id) static_cast<void>(0)
#endif

}  // namespace tgc::obs
