// Predicted-vs-measured report for one convolution run: the
// observability product on top of the telemetry layer.
//
// A TelemetrySnapshot says what happened (per-worker tiles, steals,
// phase time, wall time); the analytical side of this repo says what
// *should* have happened (Eq. 5/6 thread-mapping FAI, the perf-model
// roofline on a PlatformSpec). ConvReport joins the two so "the model
// said PT = 4 x 2, reality says the PTk lanes starve" is a one-line
// diagnosis instead of a debugging session.
//
// Note on layering: this header lives with the core engine types it
// describes, but its implementation needs platform/specs +
// platform/perf_model, so report.cpp is compiled into the
// ndirect_platform library (which links ndirect_core publicly) — link
// ndirect_platform to use build_conv_report().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ndirect.h"
#include "platform/perf_model.h"
#include "platform/specs.h"
#include "runtime/telemetry.h"

namespace ndirect {

struct ConvReport {
  std::string platform;     ///< spec the prediction was evaluated on
  ConvParams params{};
  /// Datatype the prediction was evaluated for (the measured side is
  /// whatever engine filled the telemetry; GFLOPS are always
  /// fp32-equivalent so dtypes share one roofline).
  ConvDtype dtype = ConvDtype::kF32;
  ThreadMapping mapping{};  ///< the planned PTn x PTk grid
  int stealers = 0;         ///< pure stealers beyond the grid
  double alpha = 0;         ///< pack/compute cost ratio the plan used

  // Throughput: measured from telemetry wall time, predicted from the
  // roofline model on the platform spec.
  double wall_seconds = 0;
  double measured_gflops = 0;
  double predicted_gflops = 0;
  double peak_gflops = 0;       ///< platform peak (all cores)
  double roofline_compute = 0;  ///< compute-side roofline term
  double roofline_memory = 0;   ///< bandwidth-side roofline term
  double model_ratio = 0;       ///< measured / predicted (0 if no wall)

  // Thread-mapping model (Eq. 5/6) evaluated on the executed problem.
  double mapping_fai = 0;  ///< per-thread FAI of the planned PTn
  double best_fai = 0;     ///< best FAI over all PTn in [1, workers]
  double ptn_star = 0;     ///< Eq. 6 continuous optimum PTn*

  // Kernel resolution (Section 5): which micro-kernel class the conv's
  // (block, S, stride) resolved to — "unrolled" (policy registry) or
  // "generic" (runtime loops) — with the resolver's
  // reason when it fell short of unrolled, plus the telemetry count of
  // tile calls that used the generic runtime-loop kernel.
  std::string kernel_class;
  std::string kernel_reason;
  std::uint64_t generic_fallback = 0;
  /// fp32 lanes of the micro-kernels the engine ran (kKernelLanes): a
  /// report from a 16-lane build is not comparable with a 4-lane one.
  int kernel_lanes = 0;

  // Scheduler outcome.
  std::uint64_t tiles = 0;
  std::uint64_t steals = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t neighbour_steals = 0;
  std::uint64_t global_steals = 0;

  // Hardware-counter (PMU) section, aggregated from the Counter::kPmu*
  // telemetry rows. has_pmu is false — and every field below zero —
  // when NDIRECT_PMU=0 or perf_event_open is unavailable on the host,
  // so reports stay identical modulo zeros either way.
  bool has_pmu = false;
  std::uint64_t pmu_cycles = 0;
  std::uint64_t pmu_instructions = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t stalled_cycles = 0;
  double ipc = 0;             ///< instructions per cycle
  double stall_fraction = 0;  ///< backend-stall cycles / cycles
  double l1d_mpki = 0;        ///< L1D misses per kilo-instruction
  /// Measured arithmetic intensity: flops / (LLC misses x 64B line) —
  /// directly comparable to predicted_ai (the model's flops over
  /// essential DRAM traffic). 0 when LLC misses were not counted.
  double measured_ai = 0;
  double predicted_ai = 0;
  // NDIRECT_PMU=2 only: the pack-vs-compute L1D split.
  std::uint64_t pack_l1d_misses = 0;
  std::uint64_t micro_l1d_misses = 0;

  struct Worker {
    int id = 0;
    std::uint64_t tiles = 0;
    std::uint64_t steals = 0;
    double busy_seconds = 0;
    double busy_fraction = 0;  ///< busy / wall, in [0,1]
    std::uint64_t l1d_misses = 0;  ///< PMU, 0 when has_pmu is false
    std::uint64_t llc_misses = 0;
  };
  std::vector<Worker> workers;
  double busy_min = 0, busy_max = 0, busy_mean = 0;

  /// Human-readable diagnoses ("worker 5 starves", "measured is 0.4x
  /// the model"); empty when the run matches the model.
  std::vector<std::string> diagnoses;

  std::string to_text() const;
  std::string to_json() const;
};

/// Build the report for `conv` from the snapshot one of its runs filled
/// (NdirectOptions::telemetry / ConvOp::set_telemetry). `spec` selects
/// the platform the prediction is evaluated on; nullptr means the
/// probed host_platform() (first call measures peak and bandwidth with
/// microbenchmarks — pass a spec in tests).
ConvReport build_conv_report(const NdirectConv& conv,
                             const TelemetrySnapshot& telemetry,
                             const PlatformSpec* spec = nullptr,
                             ConvDtype dtype = ConvDtype::kF32);

}  // namespace ndirect
