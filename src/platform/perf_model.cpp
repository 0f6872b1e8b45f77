#include "platform/perf_model.h"

#include <algorithm>
#include <cmath>

#include "core/fai.h"
#include "core/microkernel.h"
#include "gemm/blocking.h"

namespace ndirect {

const char* method_name(ConvMethod m) {
  switch (m) {
    case ConvMethod::Ndirect: return "NDIRECT";
    case ConvMethod::Im2colGemm: return "im2col+GEMM";
    case ConvMethod::LibxsmmStyle: return "LIBXSMM";
    case ConvMethod::XnnpackStyle: return "XNNPACK";
    case ConvMethod::AclDirect: return "ACL_DIRECT";
    case ConvMethod::AclGemm: return "ACL_GEMM";
    case ConvMethod::AnsorTuned: return "Ansor";
  }
  return "?";
}

std::vector<ConvMethod> all_methods() {
  return {ConvMethod::Im2colGemm, ConvMethod::XnnpackStyle,
          ConvMethod::LibxsmmStyle, ConvMethod::AnsorTuned,
          ConvMethod::AclGemm, ConvMethod::AclDirect,
          ConvMethod::Ndirect};
}

namespace {

// GEMM-shaped register tile FAI: 2*MR*NR flops per (MR + NR) loads.
double gemm_tile_fai(int mr, int nr) {
  return 2.0 * mr * nr / (mr + nr);
}

// GEMM-family kernels stream their packed panels from L2/LLC rather
// than holding operands L1-resident the way Algorithm 3's pack buffer
// does; this derates their effective tile FAI.
constexpr double kPanelStreamFactor = 0.6;

// The platform balance point kappa: flops one core can issue while one
// L1-resident float arrives. Wider machines (more FMA pipes per core)
// need higher FAI to saturate; kappa is anchored at 4.0 for an
// 8-flop/cycle core (2x128-bit FMA pipes, the ARMv8 baseline Eq. 4
// targets) and scales with flops/cycle.
double platform_kappa(const PlatformSpec& spec) {
  const double flops_per_cycle =
      spec.freq_ghz > 0 ? spec.peak_per_core() / spec.freq_ghz : 8.0;
  return 4.0 * flops_per_cycle / 8.0;
}

// Stride-aware Eq. 4: with stride `str` the packed input row holds
// (vw-1)*str + S elements for vw outputs (Section 8.1: the registers
// fetch the same data but compute fewer positions), so
//   FAI = 2*S*vw*vk / ((vw-1)*str + S + S*vk).
double direct_tile_fai(int vw, int vk, int S, int str,
                       double load_factor = 1.0) {
  const double loads = ((vw - 1) * str + S) + static_cast<double>(S) * vk;
  return 2.0 * S * vw * vk / (loads * load_factor);
}

// Effective micro-kernel FAI per method. GEMM-family methods compact
// the data before the kernel and pay no kernel-level stride penalty.
// nDirect's block is the one its kernels run at the spec's lane count:
// the engine's own block for this build's width, else the paper's
// Eq. 3 solution.
double method_fai(ConvMethod m, const ConvParams& p, int lanes) {
  switch (m) {
    case ConvMethod::Ndirect: {
      const RegisterBlock rb = lanes == kKernelLanes
                                   ? solve_kernel_block(p.S)
                                   : solve_register_block(p.S, lanes);
      return direct_tile_fai(rb.vw, rb.vk, p.S, p.str);
    }
    case ConvMethod::AnsorTuned:
      // A tuned schedule finds a good (8x8-ish) tile but the generated
      // code lacks Algorithm 3's packed sliding window: every FMA tap
      // re-loads its input vector, doubling the loads per tile step.
      return direct_tile_fai(8, 8, p.S, p.str, /*load_factor=*/2.0);
    case ConvMethod::Im2colGemm:
      return gemm_tile_fai(kGemmMR, kGemmNR) * kPanelStreamFactor;
    case ConvMethod::LibxsmmStyle:
      // The 6x4 BRGEMM tile its 128-bit JIT emits (Section 3.2: "loop
      // tile sizes too small to fully utilize ... FMA units").
      return gemm_tile_fai(6, 4);
    case ConvMethod::XnnpackStyle:
      // 6x8 tile, but operands arrive through the indirection buffer's
      // pointer chase rather than packed panels.
      return gemm_tile_fai(6, 8) * kPanelStreamFactor;
    case ConvMethod::AclDirect:
      // Unblocked inner loop: ~1 useful FMA per 2 loads plus address
      // arithmetic; ACL's direct kernel is known to run near-scalar
      // efficiency on these parts (Section 3.2 measures ~5% of peak).
      return 0.4 / p.str;
    case ConvMethod::AclGemm:
      // Library-generic GEMM: no register tile, so every FMA re-loads
      // and re-stores its C element alongside the B load.
      return 2.0 * 4 / (3 + 1);
  }
  return 1.0;
}

// Essential DRAM traffic in bytes (roofline denominator): what must
// move regardless of transform overheads.
double essential_traffic_bytes(ConvMethod m, const ConvParams& p,
                               int threads) {
  const double in = 4.0 * static_cast<double>(p.input_elems());
  const double flt = 4.0 * static_cast<double>(p.filter_elems());
  const double out = 4.0 * static_cast<double>(p.output_elems());
  switch (m) {
    case ConvMethod::XnnpackStyle:
      // Indirection re-touches each input row once per kernel tap;
      // about half of those touches miss once windows leave the caches.
      return in * (1.0 + 0.5 * (p.R * p.S - 1)) + flt + out;
    case ConvMethod::AclDirect:
      // Every K-thread scans the entire input tensor.
      return in * std::min(threads, p.K) + flt + out;
    default:
      return in + flt + out;  // cache-blocked: everything streams once
  }
}

// Sequential (non-overlapped) transform traffic: the im2col matrix is
// written by the transform and re-read by the GEMM packing, and the
// packed panels are written once more. These phases serialize with the
// compute (Fig. 1a), so they add *time* instead of entering the
// min()-roofline.
double sequential_overhead_bytes(ConvMethod m, const ConvParams& p) {
  if (m != ConvMethod::Im2colGemm && m != ConvMethod::AclGemm) return 0.0;
  const double in = 4.0 * static_cast<double>(p.input_elems());
  const double col = 4.0 * static_cast<double>(p.N) * p.C * p.R * p.S *
                     p.P() * p.Q();
  const bool identity = p.R == 1 && p.S == 1 && p.str == 1 && p.pad == 0;
  // write col + read col back (pack) + write packed panels; the
  // identity case still packs the input once.
  return identity ? 2.0 * in : 3.0 * col;
}

// Thread-utilization: how much of `threads` the method's partitioning
// can keep busy, including the ceil-split load imbalance.
double method_utilization(ConvMethod m, const ConvParams& p, int threads) {
  auto balance = [&](double parallel_work) {
    if (parallel_work <= 0) return 1.0 / threads;
    const double used = std::min<double>(threads, parallel_work);
    const double chunks = std::ceil(parallel_work / used);
    return (parallel_work / (chunks * used)) * (used / threads);
  };
  switch (m) {
    case ConvMethod::AclDirect:
    case ConvMethod::AclGemm:
      return balance(p.K);  // K-only split (Section 3.2)
    case ConvMethod::Im2colGemm:
      // Parallel GEMM over a (K x P*Q) product per image; fine-grained.
      return balance(static_cast<double>(p.N) * p.K * p.P() * p.Q() /
                     (kGemmMR * kGemmNR));
    case ConvMethod::XnnpackStyle:
      return balance(static_cast<double>(p.N) * p.P() * p.Q() / 6.0);
    case ConvMethod::LibxsmmStyle:
      return balance(static_cast<double>(p.N) * (p.K / 4.0) * p.P());
    case ConvMethod::AnsorTuned:
      // Ansor tunes the loop nest but not the Eq. 5/6 thread split;
      // Section 8.2 attributes part of nDirect's win to "better ...
      // parallelization strategies".
      return 0.8 * balance(static_cast<double>(p.N) * p.P() *
                           std::ceil(p.K / 8.0));
    case ConvMethod::Ndirect:
      return balance(static_cast<double>(p.N) * p.P() *
                     std::ceil(p.K / 8.0));
  }
  return 1.0;
}

}  // namespace

const char* conv_dtype_name(ConvDtype d) {
  switch (d) {
    case ConvDtype::kF32: return "f32";
    case ConvDtype::kI8Emulated: return "i8-emulated";
    case ConvDtype::kI8Dot: return "i8-dot";
  }
  return "?";
}

PerfEstimate estimate_conv_perf(const PlatformSpec& spec,
                                const ConvParams& p, ConvMethod method,
                                int threads) {
  return estimate_conv_perf(spec, p, method, threads, ConvDtype::kF32);
}

PerfEstimate estimate_conv_perf(const PlatformSpec& spec,
                                const ConvParams& p, ConvMethod method,
                                int threads, ConvDtype dtype) {
  PerfEstimate est;
  if (threads <= 0) threads = spec.cores;
  // Int8 tensors are a quarter the bytes: 4x the flops per byte both
  // at the register tile (FAI) and at DRAM (traffic); the native dot
  // (SDOT, VPDPBUSD) also quadruples the per-instruction MAC rate.
  const bool int8 = dtype != ConvDtype::kF32;
  const bool emulated = dtype == ConvDtype::kI8Emulated;
  const double fai_scale = int8 ? 4.0 : 1.0;
  const double traffic_scale = int8 ? 0.25 : 1.0;
  // The spec's peak is measured at its fp32 kernels' width. The dot
  // kernels run at that width too (4 lanes on NEON, 16 with VNNI); the
  // emulated ladder is 128-bit (4 fp32 lanes) at every width.
  const double peak_scale = dtype == ConvDtype::kI8Dot ? 4.0
                            : emulated ? 4.0 / spec.fp32_lanes
                                       : 1.0;

  double kappa = platform_kappa(spec);
  // SMT oversubscription hides load latency: each extra hardware thread
  // per core gives the issue slots another independent stream, lowering
  // the effective balance point (with diminishing returns).
  if (threads > spec.cores) {
    const double ways = std::min<double>(
        static_cast<double>(threads) / spec.cores, spec.smt_per_core);
    kappa /= std::sqrt(ways);
  }

  const double fai =
      method_fai(method, p, emulated ? 4 : spec.fp32_lanes) * fai_scale;
  est.e_kernel = fai / (fai + kappa);
  est.u_parallel = method_utilization(method, p, threads);

  // u_parallel is a fraction of `threads`, and threads beyond the cores
  // share their FMA pipes, so the compute bound is the per-core peak
  // times min(threads, cores), not the whole machine's peak.
  const double peak = spec.peak_gflops * peak_scale;
  est.compute_bound = est.e_kernel * est.u_parallel *
                      std::min(threads, spec.cores) * spec.peak_per_core() *
                      peak_scale;

  const double bw_gbps = spec.bandwidth_gibs * 1.073741824;  // GiB -> GB
  const double bytes =
      essential_traffic_bytes(method, p, threads) * traffic_scale;
  // (flops/byte) * (GB/s) = GFLOP/s.
  const double flops = static_cast<double>(p.flops());
  est.memory_bound = flops / bytes * bw_gbps;
  // The model's arithmetic intensity: what a PMU-measured
  // flops/(LLC misses * line) should approach when the cache tiling
  // keeps traffic at the essential minimum (ConvReport compares them).
  est.traffic_bytes = bytes;
  est.ai = bytes > 0 ? flops / bytes : 0.0;

  const double overlapped = std::min(est.compute_bound, est.memory_bound);
  const double t_kernel = flops / (overlapped * 1e9);
  const double t_overhead = sequential_overhead_bytes(method, p) *
                            traffic_scale / (bw_gbps * 1e9);
  est.gflops = flops / (t_kernel + t_overhead) / 1e9;
  est.pct_peak = 100.0 * est.gflops / peak;
  return est;
}

}  // namespace ndirect
