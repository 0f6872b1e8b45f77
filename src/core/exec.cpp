#include "core/exec.h"

#include <algorithm>

#include "runtime/trace.h"

namespace ndirect {

TileGrid row_grid(std::int64_t rows, int threads) {
  TileGrid g;
  g.rows = static_cast<int>(rows);
  g.seed = {static_cast<int>(std::clamp<std::int64_t>(threads, 1,
                                                      std::max<std::int64_t>(
                                                          rows, 1))),
            1};
  return g;
}

namespace detail {

TileRun::TileRun(const TileGrid& grid, const ExecOptions& opts)
    : opts_(opts),
      workers_(grid.workers()),
      tracing_(trace_on()),
      // Collection stays off unless someone will consume it.
      collect_(telemetry_enabled() &&
               (opts.telemetry != nullptr || opts.phase_timer != nullptr ||
                tracing_)),
      // Hardware counters ride the collect flag and degrade to off on
      // hosts where perf_event_open is unavailable.
      pmu_(collect_ && pmu_mode() > 0 && pmu_available() ? pmu_mode() : 0),
      tel_(collect_ ? workers_ : 0),
      sched_(grid.rows, grid.cols, grid.seed.ptn, grid.seed.ptk, workers_,
             opts.stealing) {}

void TileRun::dispatch(const std::function<void(std::size_t)>& task) {
  timer_.restart();
  if (tracing_)
    TraceSession::global().begin("ndirect.run", "workers", workers_);
  exec_pool(opts_.pool).run(static_cast<std::size_t>(workers_), task);
  if (tracing_) TraceSession::global().end("ndirect.run");
}

void TileRun::flush_worker(int worker, const std::uint64_t* counters,
                           std::uint64_t generic) {
  if (generic > 0) generic_.fetch_add(generic, std::memory_order_relaxed);
  if (counters == nullptr) return;
  for (int c = 0; c < kCounterCount; ++c)
    if (counters[c] > 0) tel_.add(worker, static_cast<Counter>(c), counters[c]);
}

std::uint64_t TileRun::trace_now() const {
  return TraceSession::global().now_ns();
}

void TileRun::tile_span(std::uint64_t t0, int row, int col) const {
  TraceSession& tr = TraceSession::global();
  tr.complete("tile", t0, tr.now_ns() - t0, "row", row, "k", col);
}

ExecResult TileRun::finish() {
  const ExecResult result{sched_.tiles(),
                          generic_.load(std::memory_order_relaxed)};
  if (opts_.sched_stats != nullptr) *opts_.sched_stats = sched_.stats();
  if (!collect_) {
    // Disabled collection must not leave a stale previous snapshot.
    if (opts_.telemetry != nullptr) *opts_.telemetry = TelemetrySnapshot{};
    return result;
  }
  TelemetrySnapshot snap = tel_.snapshot(timer_.seconds());
  // Claim/steal attribution comes straight from the scheduler's
  // per-worker counters (written by each worker's own claims, read after
  // the dispatch join).
  for (int w = 0; w < workers_; ++w) {
    TelemetrySnapshot::Worker& row = snap.workers[static_cast<std::size_t>(w)];
    row.v[static_cast<int>(Counter::kTilesClaimed)] = sched_.worker_executed(w);
    row.v[static_cast<int>(Counter::kLocalSteals)] =
        sched_.worker_steals(w, StealClass::kLocal);
    row.v[static_cast<int>(Counter::kNeighbourSteals)] =
        sched_.worker_steals(w, StealClass::kNeighbour);
    row.v[static_cast<int>(Counter::kGlobalSteals)] =
        sched_.worker_steals(w, StealClass::kGlobal);
  }
  if (opts_.phase_timer != nullptr) {
    // The historical phase names, one add() per phase per run, and only
    // for phases that actually ran — a run whose windows are all read in
    // place (1x1 stride-1) reports no "packing".
    const double transform = snap.phase_seconds(Counter::kTransformNs);
    const double packing = snap.phase_seconds(Counter::kPackNs);
    const double micro = snap.phase_seconds(Counter::kMicrokernelNs);
    if (transform > 0) opts_.phase_timer->add("transform", transform);
    if (packing > 0) opts_.phase_timer->add("packing", packing);
    if (micro > 0) opts_.phase_timer->add("micro-kernel", micro);
  }
  // Live metrics plane: fold this run's deltas into the process-wide
  // registry so scrapers see engine activity without a per-run sink.
  snap.publish_metrics();
  if (opts_.telemetry != nullptr) *opts_.telemetry = std::move(snap);
  return result;
}

}  // namespace detail

template <bool Collect>
TileWorker<Collect>::TileWorker(detail::TileRun& run, int id)
    : run_(run), id_(id) {
  if constexpr (Collect) {
    // One group read at task start and end gives this worker's
    // hardware-counter deltas: the task runs on exactly one OS thread,
    // whose thread-local group scopes the counts to it.
    pmu_ = run.pmu();
    if (pmu_ > 0) {
      PmuThreadCounters& counters = this_thread_pmu();
      if (counters.open()) {
        pc_ = &counters;
        pmu_t0_ = counters.read();
      }
    }
  }
  // The arena namespace is this task's nesting level: if this OS thread
  // is already inside another convolution (a task that itself dispatched
  // on the pool), the outer invocation's buffers live in a lower
  // namespace and cannot be clobbered here.
  const ExecOptions& opts = run.options();
  for (int s = 0; s < kScratchSlotCount; ++s) {
    const std::size_t n = opts.scratch[static_cast<std::size_t>(s)];
    if (n == 0) continue;
    if (opts.persistent_scratch) {
      buf_[s] = this_thread_scratch().floats(depth_.level(),
                                             static_cast<ScratchSlot>(s), n);
    } else {
      local_[s].reset(n);
      buf_[s] = local_[s].data();
    }
  }
}

template <bool Collect>
TileWorker<Collect>::~TileWorker() {
  if constexpr (!Collect) {
    run_.flush_worker(id_, nullptr, generic_);
    return;
  } else {
    acc_[static_cast<int>(Counter::kGenericFallback)] += generic_;
    const PmuSample d =
        pc_ != nullptr ? pmu_delta(pmu_t0_, pc_->read()) : PmuSample{};
    if (d.valid) {
      acc_[static_cast<int>(Counter::kPmuCycles)] = d.value(PmuEvent::kCycles);
      acc_[static_cast<int>(Counter::kPmuInstructions)] =
          d.value(PmuEvent::kInstructions);
      acc_[static_cast<int>(Counter::kPmuL1DMisses)] =
          d.value(PmuEvent::kL1DMisses);
      acc_[static_cast<int>(Counter::kPmuLLCMisses)] =
          d.value(PmuEvent::kLLCMisses);
      acc_[static_cast<int>(Counter::kPmuStalledCycles)] =
          d.value(PmuEvent::kStalledCycles);
      if (pmu_ == 2) {
        // The pack samples and the task delta come from the same group,
        // so pack <= task holds up to multiplex rounding; clamp so
        // micro = task - pack never underflows.
        const std::uint64_t task_l1d = d.value(PmuEvent::kL1DMisses);
        const std::uint64_t pack_part = std::min(pack_l1d_, task_l1d);
        acc_[static_cast<int>(Counter::kPmuPackL1DMisses)] = pack_part;
        acc_[static_cast<int>(Counter::kPmuMicroL1DMisses)] =
            task_l1d - pack_part;
      }
      if (run_.tracing()) {
        TraceSession::global().counter(
            "pmu", "l1d_misses",
            static_cast<std::int64_t>(d.value(PmuEvent::kL1DMisses)),
            "llc_misses",
            static_cast<std::int64_t>(d.value(PmuEvent::kLLCMisses)));
      }
    }
    run_.flush_worker(id_, acc_, generic_);
  }
}

template class TileWorker<true>;
template class TileWorker<false>;

}  // namespace ndirect
