// Predicted-vs-measured report for a serving run: the ConvReport
// analogue one level up the stack.
//
// A ConvReport judges one convolution against the roofline; a
// ServeReport judges the serving layer's *decisions* against reality:
// how well the latency model that sized batches and admitted requests
// tracked the measured batch wall times (per batch size and overall),
// how much coalescing actually happened, and where requests were lost
// (admission, expiry, shutdown, failures). The diagnoses flag the
// actionable mismatches — a model ratio far from 1 means admission is
// lying, a mean batch near 1 under load means batching never kicks in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"

namespace ndirect::serve {

struct ServeReport {
  // Request accounting (from ServerStatsSnapshot).
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t shed_admission = 0;
  std::uint64_t shed_expired = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t failed = 0;
  std::uint64_t deadline_misses = 0;
  double goodput_fraction = 0;  ///< served on time / submitted

  // Batching outcome.
  std::uint64_t batches = 0;
  double mean_batch = 0;

  /// Per-batch-size model accuracy, ascending by batch size.
  struct BatchRow {
    int batch_size = 0;
    std::uint64_t count = 0;          ///< batches launched at this size
    double mean_predicted_ms = 0;
    double mean_measured_ms = 0;
    double model_ratio = 0;  ///< measured / predicted (0 if no data)
  };
  std::vector<BatchRow> rows;

  double model_ratio = 0;  ///< overall measured / predicted ns sums
  double model_scale = 0;  ///< calibration scale (1 = untouched;
                           ///< 0 when the model has no scale)

  /// End-to-end latency percentiles from the server's registry
  /// histogram (exact to within one log-bucket width); all zero when
  /// the server runs with observe=false or served nothing.
  double e2e_p50_ms = 0;
  double e2e_p95_ms = 0;
  double e2e_p99_ms = 0;

  /// The SLO watchdog's rolling windows (1 s / 10 s / 60 s ending at
  /// the report's build time, on the server's Clock).
  std::vector<SloWindowStats> slo_windows;

  /// Human-readable mismatches ("model underpredicts 3.2x", "no
  /// coalescing under load") plus any active SLO-breach diagnoses
  /// from the watchdog; empty when serving matched the model and SLO.
  std::vector<std::string> diagnoses;

  std::string to_text() const;
  std::string to_json() const;
};

/// Build the report from a server's accumulated stats and batch
/// records. Safe to call while the server is live (snapshots under the
/// server's locks), though numbers are most meaningful after the
/// traffic of interest has drained.
ServeReport build_serve_report(const Server& server);

/// One SloWindowStats as a JSON object — shared by
/// ServeReport::to_json and the admin plane's /slo endpoint so both
/// surfaces expose identical window documents.
std::string slo_window_json(const SloWindowStats& w);

}  // namespace ndirect::serve
