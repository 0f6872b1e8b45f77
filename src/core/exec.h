// The execution core every convolution engine runs on.
//
// Section 6 of the paper gives one loop nest and one PTn x PTk thread
// mapping for a direct convolution. run_tiles() is the scheduling half
// of that loop nest, shared by the fp32 direct, int8 and depthwise
// engines. The driver owns everything except the arithmetic:
//   * pool selection and dispatch;
//   * the TileScheduler over the engine's rows x cols tile grid, seeded
//     from a PTn x PTk mapping, plus pure-stealer workers;
//   * each worker's scratch buffers and its ScratchDepth nesting level;
//   * per-worker telemetry slots and PMU deltas, the `ndirect.run` and
//     `tile` trace spans, the SchedulerStats output, the post-run
//     snapshot, publish_metrics() and the PhaseTimer view.
// An engine supplies only its grid and a tile body
// `body(worker, row, col)` that computes one disjoint output block. The
// body is instantiated twice: with a collecting worker when a sink,
// PhaseTimer or trace will consume the run, and with a non-collecting
// one otherwise, whose timed() sections compile to plain calls — a run
// nobody observes does no timer reads at all.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/threading.h"
#include "runtime/aligned_buffer.h"
#include "runtime/perf_counters.h"
#include "runtime/scratch.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "runtime/timer.h"
#include "runtime/work_queue.h"

namespace ndirect {

/// The tile grid of one run and the worker grid its tiles are seeded
/// over.
struct TileGrid {
  int rows = 1;
  int cols = 1;
  ThreadMapping seed{1, 1};  ///< PTn x PTk: worker (tn, tk) starts on
                             ///< row block tn x column block tk
  int stealers = 0;          ///< workers beyond the seed grid; they own
                             ///< no tiles and only steal
  int workers() const { return seed.total() + stealers; }
};

/// A rows x 1 grid seeded as one contiguous row block per thread, with
/// never more workers than rows. Engines whose tiles carry the whole
/// reduction and every output channel use it.
TileGrid row_grid(std::int64_t rows, int threads);

/// The pool a run dispatches on: `pool`, or ThreadPool::global().
inline ThreadPool& exec_pool(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::global();
}

struct ExecOptions {
  ThreadPool* pool = nullptr;  ///< nullptr = ThreadPool::global()
  /// Exhausted workers steal (nearest neighbour in the seed grid first).
  /// Off, every worker drains exactly its seed block: the paper's
  /// static Eq. 5/6 mapping.
  bool stealing = true;
  /// Take scratch from the OS thread's persistent arena; off, each
  /// worker heap-allocates it per run.
  bool persistent_scratch = true;
  /// Floats per scratch slot each worker holds. Acquired before the
  /// worker's first claim, so every worker warms its arena even when
  /// stealing hands it no tile this run. 0 = slot unused (nullptr).
  std::array<std::size_t, kScratchSlotCount> scratch{};
  TelemetrySnapshot* telemetry = nullptr;  ///< per-run sink
  PhaseTimer* phase_timer = nullptr;       ///< aggregated phase view
  SchedulerStats* sched_stats = nullptr;   ///< scheduler stats sink
};

/// What every run reports, observed or not.
struct ExecResult {
  std::uint64_t tiles = 0;
  std::uint64_t generic_fallback = 0;  ///< TileWorker::count_generic sum
};

namespace detail {

/// Per-run state of run_tiles (the non-template half of the driver).
class TileRun {
 public:
  TileRun(const TileGrid& grid, const ExecOptions& opts);

  bool collect() const { return collect_; }
  bool tracing() const { return tracing_; }
  int pmu() const { return pmu_; }
  const ExecOptions& options() const { return opts_; }

  bool claim(int worker, int* row, int* col) {
    return sched_.claim(worker, row, col);
  }
  /// Dispatch one task per worker inside the `ndirect.run` span.
  void dispatch(const std::function<void(std::size_t)>& task);
  /// Fold one finished worker's counters (kCounterCount values, or
  /// nullptr when the run does not collect) into the run.
  void flush_worker(int worker, const std::uint64_t* counters,
                    std::uint64_t generic);
  /// Trace clock, and the finished tile's span on it.
  std::uint64_t trace_now() const;
  void tile_span(std::uint64_t t0, int row, int col) const;
  /// Fill the sinks after the dispatch join.
  ExecResult finish();

 private:
  ExecOptions opts_;
  int workers_;
  bool tracing_;
  bool collect_;
  int pmu_;
  WorkerTelemetry tel_;
  TileScheduler sched_;
  std::atomic<std::uint64_t> generic_{0};
  WallTimer timer_;
};

}  // namespace detail

/// One worker of a run, handed to every tile body it executes. Holds
/// the worker's scratch buffers and, when kCollect, its phase-time
/// accumulators (flushed to its telemetry slot once, after its last
/// tile, so the tile loop makes no shared writes).
template <bool Collect>
class TileWorker {
 public:
  static constexpr bool kCollect = Collect;

  TileWorker(detail::TileRun& run, int id);
  ~TileWorker();
  TileWorker(const TileWorker&) = delete;
  TileWorker& operator=(const TileWorker&) = delete;

  int id() const { return id_; }

  /// This worker's buffer for `slot` (ExecOptions::scratch floats).
  float* scratch(ScratchSlot slot) const {
    return buf_[static_cast<int>(slot)];
  }

  /// Run f(), charging its duration to the `phase` counter (a *_ns
  /// Counter) when collecting.
  template <class F>
  void timed(Counter phase, F&& f) {
    if constexpr (Collect) {
      const std::uint64_t t0 = monotonic_ns();
      f();
      acc_[static_cast<int>(phase)] += monotonic_ns() - t0;
    } else {
      f();
    }
  }

  /// timed(kPackNs, f) that, under NDIRECT_PMU=2, also attributes the
  /// L1D misses inside f() to the pack phase. The counter reads sit
  /// outside the timer window so the nanosecond split stays clean.
  template <class F>
  void timed_pack(F&& f) {
    if constexpr (Collect) {
      const bool sample = pmu_ == 2 && pc_ != nullptr;
      const std::uint64_t l1d0 =
          sample ? pc_->read().value(PmuEvent::kL1DMisses) : 0;
      timed(Counter::kPackNs, f);
      if (sample) {
        const std::uint64_t l1d1 = pc_->read().value(PmuEvent::kL1DMisses);
        if (l1d1 > l1d0) pack_l1d_ += l1d1 - l1d0;
      }
    } else {
      f();
    }
  }

  /// Record n micro-kernel invocations that fell back to a generic
  /// kernel. Counted whether or not the run collects (ExecResult).
  void count_generic(std::uint64_t n = 1) { generic_ += n; }

 private:
  detail::TileRun& run_;
  int id_;
  std::uint64_t generic_ = 0;
  float* buf_[kScratchSlotCount] = {};
  AlignedBuffer<float> local_[kScratchSlotCount];  ///< non-arena scratch
  ScratchDepth depth_;
  // Collect-only state.
  std::uint64_t acc_[kCounterCount] = {};
  int pmu_ = 0;
  PmuThreadCounters* pc_ = nullptr;
  PmuSample pmu_t0_;
  std::uint64_t pack_l1d_ = 0;
};

extern template class TileWorker<true>;
extern template class TileWorker<false>;

/// Execute every tile of `grid` once: body(worker, row, col), where
/// worker is a TileWorker<true> or TileWorker<false>. Tiles must write
/// disjoint outputs and carry their whole reduction, so which worker
/// runs a tile, and in what order, cannot change the result.
template <class Body>
ExecResult run_tiles(const TileGrid& grid, const ExecOptions& opts,
                     Body&& body) {
  detail::TileRun run(grid, opts);
  const auto task = [&]<bool kCollect>(std::size_t tid) {
    TileWorker<kCollect> w(run, static_cast<int>(tid));
    int row = 0, col = 0;
    while (run.claim(w.id(), &row, &col)) {
      if constexpr (kCollect) {
        const std::uint64_t t0 = run.tracing() ? run.trace_now() : 0;
        body(w, row, col);
        if (run.tracing()) run.tile_span(t0, row, col);
      } else {
        body(w, row, col);
      }
    }
  };
  if (run.collect()) {
    run.dispatch([&](std::size_t t) { task.template operator()<true>(t); });
  } else {
    run.dispatch([&](std::size_t t) { task.template operator()<false>(t); });
  }
  return run.finish();
}

}  // namespace ndirect
