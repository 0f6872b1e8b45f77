// Shared harness utilities for the figure/table benchmarks.
//
// Every bench prints two sections:
//   [measured]  numbers measured on this host (reduced problem sizes by
//               default; set NDIRECT_BENCH_FULL=1 for paper-scale runs),
//   [modelled]  the analytical model evaluated on the paper's Table 3
//               platforms at paper-scale, which reproduces the published
//               figures' shape.
// Measurement methodology follows Section 7.4: LIBXSMM-style is timed on
// pre-transformed tensors (transform excluded), XNNPACK-style on its
// native NHWC with the operator pre-built, nDirect *includes* its
// on-the-fly filter transform, im2col+GEMM includes the im2col stage.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "platform/perf_model.h"
#include "platform/workloads.h"
#include "runtime/env.h"
#include "runtime/telemetry.h"
#include "tensor/tensor.h"

namespace ndirect::bench {

/// Problem scaling for host measurements.
struct BenchConfig {
  bool full = false;      ///< NDIRECT_BENCH_FULL=1
  int batch = 1;          ///< measured batch size
  int spatial_divisor = 2;  ///< H/W divided by this in quick mode
  double min_seconds = 0.1;  ///< per measurement
  int threads = 0;        ///< 0 = all hardware threads

  static BenchConfig from_env();
};

/// Scale a Table 4 layer for host measurement per the config (batch and
/// spatial size shrink in quick mode; kernel/channels keep the paper's
/// values so the kernels exercise the same code paths).
ConvParams scale_layer(const ConvParams& paper, const BenchConfig& cfg);

/// Time `fn` until `min_seconds` elapsed (after one warm-up call);
/// returns GFLOPS for the given per-call flop count.
double time_gflops(const std::function<void()>& fn, double flops,
                   double min_seconds);

/// Measure one method on the host for a layer, with each method's
/// native-layout setup excluded per Section 7.4. AnsorTuned uses the
/// schedule tuner with a small budget (larger when cfg.full).
double measure_method_gflops(ConvMethod method, const ConvParams& p,
                             const BenchConfig& cfg);

/// Fixed-width table printing.
void print_header(const std::string& title);
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);
std::string fmt(double v, int decimals = 1);

/// Geometric mean of positive values.
double geomean(const std::vector<double>& values);

/// Filesystem-safe identity of the measuring host — the sanitized CPU
/// model, the logical core count and the fp32 kernels' lane count
/// (e.g. "intel-xeon-8375c-4c-f32x16"). bench_compare.py keys its
/// committed baselines by this string, so two different machines, or
/// two kernel widths, never gate against each other's numbers.
std::string host_key();

/// The "host" object stamped into every BENCH_*.json: cpu model, core
/// count, fp32 kernel lanes, the measured pack/compute alpha, and the
/// git SHA + compiler + flags the binary was built from.
std::string host_metadata_json();

/// Machine-readable result sink shared by the benches: collect keyed
/// values in insertion order, then write() emits BENCH_<name>.json —
/// into $NDIRECT_BENCH_DIR when set (created if missing), else the
/// working directory — so drivers and dashboards can diff runs without
/// scraping the human tables. Every file leads with the host_metadata
/// object, which is what lets bench_compare.py match baselines to the
/// machine that produced them.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void add(const std::string& key, double v);
  void add(const std::string& key, std::uint64_t v);
  void add(const std::string& key, const std::string& v);  ///< quoted
  /// Pre-formatted JSON value (nested object / array), inserted verbatim.
  void add_raw(const std::string& key, const std::string& json);
  /// Telemetry snapshot as a nested object (counters, phase fractions,
  /// busy stats). Skipped when the snapshot is empty — telemetry is
  /// optional in the bench schema, and a disabled build contributes no
  /// row rather than a row of zeros.
  void add_telemetry(const std::string& key, const TelemetrySnapshot& t);

  /// Write BENCH_<name>.json; prints the path on success.
  bool write() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace ndirect::bench
