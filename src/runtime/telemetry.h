// Per-worker counter/timer registry: the always-available observability
// substrate under engine, scheduler, pool and graph instrumentation.
//
// The hot path is strictly per-worker: every worker owns one
// cache-line-padded slot and only ever writes its own counters with
// relaxed atomic adds, so recording never takes a lock and never
// bounces a line between cores. Readers aggregate after the run (the
// dispatch join is the happens-before edge), snapshotting the slots
// into a plain TelemetrySnapshot that the caller owns.
//
// Gating is two-level:
//   * compile time — configure with -DNDIRECT_TELEMETRY=OFF and every
//     recording call collapses to a no-op (kTelemetryCompiled = false);
//   * run time — the NDIRECT_TELEMETRY env var (default on) or
//     set_telemetry_enabled(false) turns collection off without a
//     rebuild; the engine then skips the timer reads entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/aligned_buffer.h"

namespace ndirect {

/// Named per-worker counters. The *_ns entries are phase-time
/// accumulators (nanoseconds a worker spent inside that phase); the
/// rest are event counts.
enum class Counter : int {
  kTilesClaimed = 0,   ///< macro-tiles this worker executed
  kLocalSteals,        ///< distance-0 steals (pure stealer -> alias seed)
  kNeighbourSteals,    ///< pass-1 steals (same PTn row of the grid)
  kGlobalSteals,       ///< pass-2 steals (Manhattan-distance scan)
  kPackNs,             ///< input-window packing time
  kTransformNs,        ///< on-the-fly filter transform time
  kMicrokernelNs,      ///< micro-kernel time
  kEpilogueNs,         ///< unfused epilogue passes (reserved: the
                       ///< Ndirect store epilogue is folded into the
                       ///< micro-kernel and costs no separate phase)
  kGenericFallback,    ///< micro-kernel calls that fell back to the
                       ///< runtime-loop generic kernel (a block, S or
                       ///< stride outside the registry — the tuning-gap
                       ///< signal; 0 when every tile ran a registry
                       ///< kernel). The int8 engine counts one per
                       ///< window tile.
  // Hardware (PMU) counters, filled from per-thread perf_event_open
  // group deltas (runtime/perf_counters.h) when NDIRECT_PMU is on and
  // the host allows it; all zero otherwise. The first five mirror
  // PmuEvent order and are per-task deltas attributed to the worker
  // that executed the task.
  kPmuCycles,          ///< CPU cycles (user space)
  kPmuInstructions,    ///< retired instructions
  kPmuL1DMisses,       ///< L1D read misses
  kPmuLLCMisses,       ///< last-level-cache misses (≈ DRAM lines)
  kPmuStalledCycles,   ///< backend-stall cycles
  // Phase attribution (NDIRECT_PMU=2 only): L1D misses split between
  // the explicit pack phase and everything else (micro-kernel, fused
  // pack, filter transform) so "is packing hidden?" is measurable.
  kPmuPackL1DMisses,   ///< L1D misses inside pack_window calls
  kPmuMicroL1DMisses,  ///< L1D misses in the compute/fused remainder
};
inline constexpr int kCounterCount = 16;

/// Stable snake_case name used in JSON exports and reports.
const char* counter_name(Counter c);

#if defined(NDIRECT_TELEMETRY_DISABLED)
inline constexpr bool kTelemetryCompiled = false;
#else
inline constexpr bool kTelemetryCompiled = true;
#endif

/// Runtime master switch. Initialized once from the NDIRECT_TELEMETRY
/// env var (default on); tests and embedders may override in-process.
/// Always false when compiled out.
bool telemetry_enabled();
void set_telemetry_enabled(bool on);

/// Steady-clock nanoseconds; the time base for all phase counters (and
/// the same clock the trace session stamps events with).
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Post-run aggregate: one plain row per worker plus the run's wall
/// time. Copyable/serializable; what NdirectOptions::telemetry returns
/// and what ConvReport and the bench JSON rows consume.
struct TelemetrySnapshot {
  struct Worker {
    std::uint64_t v[kCounterCount] = {};

    std::uint64_t value(Counter c) const {
      return v[static_cast<int>(c)];
    }
    /// Seconds this worker spent in instrumented phases.
    double busy_seconds() const;
    std::uint64_t steals() const {
      return value(Counter::kLocalSteals) +
             value(Counter::kNeighbourSteals) +
             value(Counter::kGlobalSteals);
    }
  };

  /// Any hardware-counter data present? (False when the PMU backend is
  /// null or NDIRECT_PMU=0 — the fields then serialize as zeros.)
  bool has_pmu() const {
    return total(Counter::kPmuCycles) > 0 ||
           total(Counter::kPmuInstructions) > 0;
  }

  std::vector<Worker> workers;
  double wall_seconds = 0;

  bool empty() const { return workers.empty(); }
  std::uint64_t total(Counter c) const;
  /// Summed phase time in seconds (for the *_ns counters).
  double phase_seconds(Counter c) const;
  /// Share of this phase in the total instrumented phase time [0,1].
  double phase_fraction(Counter c) const;
  /// Worker busy time over the run's wall time [0,1] (0 if no wall).
  double busy_fraction(int worker) const;

  /// Accumulate `other` into this snapshot (counters add per worker
  /// row, wall times add). Grows the worker list as needed; used to
  /// fold the per-conv snapshots of a graph run into one row.
  void merge(const TelemetrySnapshot& other);

  /// {"workers":N,"wall_seconds":...,"counters":{...},
  ///  "phase_fractions":{...},"busy_fraction":{...},"per_worker":[...]}
  /// Every string field is JSON-escaped; the output round-trips
  /// through a strict parser (python3 -m json.tool in CI).
  std::string to_json() const;

  /// Re-export this snapshot's totals into the process-wide metrics
  /// registry (runtime/metrics.h): one monotonic counter
  /// `ndirect_engine_<counter_name>` per engine counter, incremented
  /// by this snapshot's value. Call with per-run deltas only (the
  /// engine's per-run snapshot, not an accumulating sink) — the
  /// registry adds, it does not overwrite. No-op for an all-zero
  /// snapshot; a handful of relaxed atomic adds otherwise.
  void publish_metrics() const;
};

/// The live registry a run writes into: `workers` cache-line-padded
/// slots of relaxed atomics. add() is wait-free and contention-free as
/// long as each worker sticks to its own slot (the engine's contract).
class WorkerTelemetry {
 public:
  /// `workers` may be 0: a disabled registry where add() still accepts
  /// (and drops) writes, so call sites need no null checks.
  explicit WorkerTelemetry(int workers);

  void add(int worker, Counter c, std::uint64_t delta) {
    if constexpr (!kTelemetryCompiled) {
      (void)worker, (void)c, (void)delta;
      return;
    }
    if (worker < 0 || static_cast<std::size_t>(worker) >= slots_.size())
      return;
    slots_[static_cast<std::size_t>(worker)]
        .v[static_cast<int>(c)]
        .fetch_add(delta, std::memory_order_relaxed);
  }

  int workers() const { return static_cast<int>(slots_.size()); }
  std::uint64_t value(int worker, Counter c) const;
  std::uint64_t total(Counter c) const;
  void reset();

  /// Aggregate the slots into a plain snapshot. Call after the run's
  /// join (not linearizable against concurrent add()).
  TelemetrySnapshot snapshot(double wall_seconds) const;

 private:
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<std::uint64_t> v[kCounterCount] = {};
  };
  std::vector<Slot> slots_;
};

}  // namespace ndirect
