// Analytical per-layer performance model.
//
// The paper's headline figures (1b, 4, 8, 9) were measured on four ARM
// machines this reproduction does not have. We reproduce their *shape*
// with a roofline-style model evaluated on the Table 3 specs:
//
//   GFLOPS = min( e_kernel * u_parallel * min(threads, cores) * PEAK_core,
//                 F / (bytes / BW) )
//
//   * e_kernel: single-core efficiency of the method's micro-kernel,
//     derived from its register-tile FAI (Eq. 4 and its GEMM analogue;
//     nDirect's block at the spec's fp32 lane count)
//     through a saturating curve e = FAI / (FAI + kappa). kappa is the
//     platform's "balance point" (flops a core can issue in the time one
//     L1 float arrives); stride-2 halves the usable FAI exactly as
//     Section 8.1 describes. SMT oversubscription lowers the effective
//     kappa (latency hiding).
//   * u_parallel: fraction of threads with work, from each method's
//     parallelization strategy — nDirect's PTn x PTk grid covers
//     (N*P) x ceil(K/Vk), ACL only K, etc. — times a load-balance term.
//   * memory bound: DRAM traffic per method (im2col materializes and
//     re-reads the column matrix; the indirect algorithm re-touches
//     input rows R*S times; ACL's K-only split makes every thread scan
//     the whole input; blocked methods stream everything once).
//
// The model is *calibrated*, not fitted: the kappa and traffic terms
// come from first principles, and the tests only assert the qualitative
// claims the paper makes (ordering of methods, 70-80% of peak for
// stride-1 3x3 nDirect layers, ACL near 5%, stride-2/1x1 dips, etc.).
#pragma once

#include <string>
#include <vector>

#include "platform/specs.h"
#include "tensor/conv_params.h"

namespace ndirect {

enum class ConvMethod {
  Ndirect,
  Im2colGemm,
  LibxsmmStyle,
  XnnpackStyle,
  AclDirect,
  AclGemm,
  AnsorTuned,
};

const char* method_name(ConvMethod m);

/// All methods, in the order the paper's figure legends list them.
std::vector<ConvMethod> all_methods();

/// Datatype axis of the model (DESIGN.md §14). GFLOPS stay
/// "GFLOPS-equivalent": the nominal fp32 flop count divided by wall
/// time, so dtypes compare directly on one roofline.
enum class ConvDtype {
  kF32,        ///< 4-byte tensors, FMA peak
  kI8Emulated, ///< 1-byte tensors, widening-multiply ladder (~FMA peak)
  kI8Dot,      ///< 1-byte tensors, SDOT / VPDPBUSD at the fp32
               ///< kernels' width: 4x the MACs per instruction
};

const char* conv_dtype_name(ConvDtype d);

struct PerfEstimate {
  double gflops = 0;        ///< predicted throughput
  double pct_peak = 0;      ///< gflops / platform peak (0-100)
  double compute_bound = 0; ///< the compute-side roofline term
  double memory_bound = 0;  ///< the bandwidth-side roofline term
  double e_kernel = 0;      ///< modelled single-core kernel efficiency
  double u_parallel = 0;    ///< modelled thread-utilization factor
  double ai = 0;            ///< flops per essential-DRAM-traffic byte
  double traffic_bytes = 0; ///< the essential traffic behind `ai`
};

/// Predict the throughput of `method` on `spec` for layer `p` using
/// `threads` worker threads (usually spec.cores; more when modelling
/// SMT oversubscription).
PerfEstimate estimate_conv_perf(const PlatformSpec& spec,
                                const ConvParams& p, ConvMethod method,
                                int threads);

/// Dtype-aware overload. Int8 quarters every tensor's DRAM traffic
/// (4x arithmetic intensity — which is exactly what lifts the
/// bandwidth-bound Table 4 layers), scales the register-tile FAI by
/// the same factor, and kI8Dot additionally raises the compute roof
/// 4x (a 4-way dot retires 4x the MACs of the fp32 FMA at the same
/// width). kI8Emulated runs 128-bit on every target: its roof is the
/// fp32 peak scaled to 4 lanes, and its block the 4-lane Eq. 3 one.
PerfEstimate estimate_conv_perf(const PlatformSpec& spec,
                                const ConvParams& p, ConvMethod method,
                                int threads, ConvDtype dtype);

}  // namespace ndirect
