// Serving-layer observability: registry instruments for the request
// path and a rolling-window SLO watchdog (DESIGN.md §16).
//
// ServeInstruments resolves every instrument the server's hot paths
// touch once, at server construction — submit/shed/complete then cost
// a handful of relaxed atomic ops against process-wide cells in
// runtime/metrics.h (scraped via NDIRECT_METRICS_FILE, SIGUSR2, or
// Server::metrics_text()). The `server` label keeps multiple tenants
// (one serve::Server per model) apart in one exposition; the batch-
// size-labelled histogram families make coalescing behaviour visible
// per size, not just on average.
//
// SloMonitor is the watchdog: it folds every request outcome into a
// ring of one-second slices (timestamps come from the server's Clock,
// so the whole thing is deterministic under VirtualClock) and answers
// goodput / p99 / shed-rate queries over rolling 1 s / 10 s / 60 s
// windows. evaluate() judges the windows against a configurable SLO
// and emits rule-based diagnoses in the ConvReport/ServeReport
// tradition — each one names the breach and the most likely cause the
// recorded evidence supports.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "serve/request_queue.h"

namespace ndirect::serve {

/// Handles into the global MetricsRegistry for one server instance,
/// resolved once (cold) so hot paths never touch the registry lock.
/// All cells are process-lifetime; copying the struct copies handles.
struct ServeInstruments {
  /// `server_name` becomes the {server="..."} label on every
  /// instrument; `max_batch` sizes the per-batch-size families.
  ServeInstruments(const std::string& server_name, int max_batch);

  CounterCell* submitted = nullptr;
  CounterCell* admitted = nullptr;
  CounterCell* served = nullptr;
  CounterCell* deadline_missed = nullptr;  ///< served but late
  CounterCell* failed = nullptr;
  CounterCell* batches = nullptr;
  /// One counter per ShedReason, indexed by static_cast<int>(reason).
  CounterCell* shed[3] = {};
  GaugeCell* queue_depth = nullptr;

  /// All durations in nanoseconds of the server's Clock.
  HistogramCell* queue_wait_ns = nullptr;
  HistogramCell* execute_ns = nullptr;  ///< batch forward wall time
  HistogramCell* e2e_ns = nullptr;      ///< arrival -> result delivered
  /// Slack clamped at zero: late requests land in bucket 0, and the
  /// companion deadline_missed counter carries the miss count.
  HistogramCell* deadline_slack_ns = nullptr;

  /// Per-batch-size families, indexed by batch size (entry 0 unused).
  std::vector<HistogramCell*> e2e_by_batch;
  std::vector<HistogramCell*> execute_by_batch;
};

/// The served/shed/latency SLO the watchdog judges windows against.
/// Zero-valued members disable their rule.
struct SloConfig {
  std::uint64_t target_p99_ns = 0;   ///< e2e p99 ceiling (0 = off)
  double min_goodput_fraction = 0;   ///< on-time / finished floor
  double max_shed_fraction = 1.0;    ///< shed / finished ceiling
};

/// Aggregate over one rolling window.
struct SloWindowStats {
  int window_s = 0;
  std::uint64_t served = 0;
  std::uint64_t on_time = 0;
  std::uint64_t shed = 0;
  std::uint64_t shed_by_reason[3] = {};
  std::uint64_t p99_ns = 0;  ///< e2e, 0 when nothing served

  std::uint64_t finished() const { return served + shed; }
  /// On-time fraction of everything that finished in the window.
  double goodput_fraction() const {
    return finished() > 0 ? static_cast<double>(on_time) /
                                static_cast<double>(finished())
                          : 1.0;
  }
  double shed_fraction() const {
    return finished() > 0 ? static_cast<double>(shed) /
                                static_cast<double>(finished())
                          : 0.0;
  }
};

/// Evidence the server hands evaluate() so breach diagnoses can name
/// a cause, not just a symptom.
struct SloEvidence {
  double model_ratio = 0;   ///< measured / predicted batch ns (0 = n/a)
  double model_scale = 0;   ///< EWMA calibration factor (0 = n/a)
  std::uint64_t graph_builds = 0;  ///< graph-pool cold builds since start
};

class SloMonitor {
 public:
  explicit SloMonitor(SloConfig config = {});

  /// Fold one served request finishing at `now_ns` with end-to-end
  /// latency `e2e_ns` into the window ring.
  void record_served(std::uint64_t now_ns, std::uint64_t e2e_ns,
                     bool on_time);
  /// Fold one shed request at `now_ns`.
  void record_shed(std::uint64_t now_ns, ShedReason reason);

  /// Rolling aggregate of the `window_s` seconds ending at `now_ns`
  /// (inclusive of the current second). window_s is clamped to the
  /// ring depth (64 s).
  SloWindowStats window(std::uint64_t now_ns, int window_s) const;

  /// Judge the 1 s / 10 s / 60 s windows against the SLO. Returns one
  /// diagnosis string per breached rule (deduplicated to the widest
  /// breached window per rule); empty = inside SLO.
  std::vector<std::string> evaluate(std::uint64_t now_ns,
                                    const SloEvidence& evidence) const;

  const SloConfig& config() const { return config_; }

  static constexpr int kRingSeconds = 64;
  static constexpr int kWindowsS[3] = {1, 10, 60};

 private:
  struct Slice {
    std::uint64_t second = ~std::uint64_t{0};  ///< absolute, stale guard
    std::uint64_t served = 0;
    std::uint64_t on_time = 0;
    std::uint64_t shed_by_reason[3] = {};
    HistogramSnapshot e2e;  ///< plain buckets, guarded by mu_
  };

  Slice& slice_at(std::uint64_t now_ns);  ///< requires mu_

  SloConfig config_;
  mutable std::mutex mu_;
  std::vector<Slice> ring_;
};

}  // namespace ndirect::serve
