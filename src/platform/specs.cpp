#include "platform/specs.h"

#include <stdexcept>

#include "runtime/aligned_buffer.h"
#include "runtime/timer.h"
#include "simd/vec.h"

namespace ndirect {

std::vector<PlatformSpec> table3_platforms() {
  // Values copied from Table 3. Phytium 2000+ shares its 2 MB L2 within
  // a 4-core cluster and has no L3; KP920/ThunderX2 have private L2.
  std::vector<PlatformSpec> specs(4);

  specs[0].name = "Phytium 2000+";
  specs[0].cores = 64;
  specs[0].freq_ghz = 2.2;
  specs[0].peak_gflops = 1126.4;
  specs[0].bandwidth_gibs = 143.1;
  specs[0].cache = {32 * 1024, 2 * 1024 * 1024, 0, /*l2_shared=*/true};
  specs[0].smt_per_core = 1;

  specs[1].name = "KP920";
  specs[1].cores = 64;
  specs[1].freq_ghz = 2.6;
  specs[1].peak_gflops = 2662.4;
  specs[1].bandwidth_gibs = 190.7;
  specs[1].cache = {64 * 1024, 512 * 1024, 64ull * 1024 * 1024, false};
  specs[1].smt_per_core = 1;

  specs[2].name = "ThunderX2";
  specs[2].cores = 32;
  specs[2].freq_ghz = 2.5;
  specs[2].peak_gflops = 1279.7;
  specs[2].bandwidth_gibs = 158.95;
  specs[2].cache = {32 * 1024, 256 * 1024, 32ull * 1024 * 1024, false};
  specs[2].smt_per_core = 4;  // Section 8.5 runs 4 threads per core

  specs[3].name = "RPi 4";
  specs[3].cores = 4;
  specs[3].freq_ghz = 1.8;
  specs[3].peak_gflops = 56.8;
  specs[3].bandwidth_gibs = 16.8;
  specs[3].cache = {32 * 1024, 1024 * 1024, 0, false};
  specs[3].smt_per_core = 1;

  return specs;
}

const PlatformSpec& platform_by_name(const std::string& name) {
  static const std::vector<PlatformSpec> specs = table3_platforms();
  for (const PlatformSpec& s : specs) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown platform: " + name);
}

double measure_peak_gflops_single_core() {
  // 12 independent FMA chains at the fp32 kernels' width keep every
  // pipeline busy regardless of FMA latency and, with the two operands,
  // fit in 16 registers; operands chosen so values stay finite.
  using V = vec<kKernelLanes>;
  constexpr int kChains = 12;
  V acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = V::dup(1.0f + 0.001f * i);
  const V a = V::dup(0.999999f);
  const V b = V::dup(1e-7f);

  const std::int64_t iters = 4'000'000;
  WallTimer t;
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < kChains; ++i) acc[i] = V::fma(acc[i], a, b);
  }
  const double secs = t.seconds();
  float sink = 0;
  for (int i = 0; i < kChains; ++i)
    sink += vreduce_add(acc[i].template quarter<0>());
  // Defeat dead-code elimination.
  volatile float guard = sink;
  (void)guard;

  const double flops =
      2.0 * kKernelLanes * kChains * static_cast<double>(iters);
  return flops / secs / 1e9;
}

namespace {

// One read pass over buf[0, n): 8 independent vector sums, so the loop
// is bound by the loads, not by an add chain's latency.
float sum_stream(const float* buf, std::size_t n) {
  using V = vec<kKernelLanes>;
  constexpr int kAcc = 8;
  constexpr std::size_t kStep = std::size_t{kAcc} * kKernelLanes;
  const V one = V::dup(1.0f);
  V acc[kAcc];
  for (V& a : acc) a = V::zero();
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    for (int j = 0; j < kAcc; ++j) {
      acc[j] = V::fma(acc[j], V::load(buf + i + j * kKernelLanes), one);
    }
  }
  float total = 0;
  for (; i < n; ++i) total += buf[i];
  for (const V& a : acc) total += vreduce_add(a.template quarter<0>());
  return total;
}

}  // namespace

double measure_stream_bandwidth_gibs(std::size_t bytes) {
  const std::size_t n = bytes / sizeof(float);
  AlignedBuffer<float> buf(n);
  for (std::size_t i = 0; i < n; ++i) buf[i] = 1.0f;
  // Warm-up pass, then timed passes.
  volatile float sink = sum_stream(buf.data(), n);
  WallTimer t;
  const int reps = 3;
  for (int rep = 0; rep < reps; ++rep) sink = sink + sum_stream(buf.data(), n);
  const double secs = t.seconds();
  (void)sink;
  const double gib =
      static_cast<double>(n) * sizeof(float) * reps / (1024.0 * 1024 * 1024);
  return gib / secs;
}

const PlatformSpec& host_platform() {
  static const PlatformSpec spec = [] {
    const CpuInfo info = probe_host_cpu();
    PlatformSpec s;
    s.name = "host";
    s.cores = info.logical_cores;
    s.cache = info.cache;
    s.freq_ghz = 0;  // unknown; not needed by the models
    const double per_core = measure_peak_gflops_single_core();
    s.peak_gflops = per_core * info.logical_cores;
    s.fp32_lanes = kKernelLanes;
    s.bandwidth_gibs = measure_stream_bandwidth_gibs(16u << 20);
    s.smt_per_core = 1;
    return s;
  }();
  return spec;
}

}  // namespace ndirect
