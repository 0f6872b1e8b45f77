// Hardware platform descriptors (Table 3 of the paper) plus the probed
// host machine.
//
// The paper evaluates on four ARMv8 machines we do not have. Their
// specifications (cores, peak FP32 throughput, bandwidth, cache sizes)
// enter this reproduction in two ways:
//   * the tiling/thread-mapping models consume their CacheInfo, so plan
//     construction for "Phytium 2000+" etc. is exactly what nDirect
//     would compute on the real machine;
//   * the analytical performance model (perf_model.h) predicts per-layer
//     throughput per method per platform, which regenerates the *shape*
//     of Figs. 1b/4/8/9 alongside host-measured numbers.
#pragma once

#include <string>
#include <vector>

#include "runtime/cpu_info.h"

namespace ndirect {

struct PlatformSpec {
  std::string name;
  int cores = 1;
  double freq_ghz = 1.0;
  double peak_gflops = 1.0;     ///< FP32, all cores
  double bandwidth_gibs = 1.0;  ///< max memory bandwidth
  CacheInfo cache;
  int smt_per_core = 1;  ///< hardware threads per core when SMT enabled
  /// fp32 lanes of the direct-conv kernels the spec runs: 4 for the
  /// paper's 128-bit NEON machines, kKernelLanes for the probed host.
  int fp32_lanes = 4;

  double peak_per_core() const { return peak_gflops / cores; }
};

/// The four evaluation platforms, verbatim from Table 3.
std::vector<PlatformSpec> table3_platforms();

/// Lookup by name ("Phytium 2000+", "KP920", "ThunderX2", "RPi 4").
const PlatformSpec& platform_by_name(const std::string& name);

/// The machine this process runs on: probed topology/caches, peak
/// measured with an FMA-throughput microbenchmark, bandwidth measured
/// with a streaming read. Cached after the first call.
const PlatformSpec& host_platform();

/// Single-core FP32 peak measured by issuing independent vector FMAs
/// at the fp32 kernels' width (kKernelLanes, simd/vec.h).
double measure_peak_gflops_single_core();

/// Sequential-read bandwidth in GiB/s over a buffer of `bytes`.
double measure_stream_bandwidth_gibs(std::size_t bytes = 64u << 20);

}  // namespace ndirect
