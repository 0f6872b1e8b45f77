// Per-call fixed overhead of the inference path.
//
// The end-to-end benches measure throughput on layers big enough that
// the kernel dominates; this bench measures everything *around* the
// kernel — the costs a small late-stage layer (ResNet-50 conv5_x at
// N=1 runs in microseconds) cannot amortize:
//
//   1. thread-pool round-trip: latency of run() with empty tasks, for
//      the spin-then-park dispatch vs. the park-immediately fallback
//      (NDIRECT_POOL_SPIN=0, the seed's mutex+condvar behaviour),
//   2. single-layer conv latency (p50/p95) in the seed configuration
//      (per-call heap allocation of pack/ftile, on-the-fly filter
//      transform every call, parked pool) vs. the inference-opt
//      configuration (persistent scratch arena, cached packed filter,
//      spinning pool),
//   3. proof that steady-state opt-mode calls run zero filter
//      transforms and zero arena growths.
//
// Results go to stdout and to BENCH_dispatch.json in the working
// directory.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/filter_transform.h"
#include "core/ndirect.h"
#include "runtime/scratch.h"
#include "runtime/thread_pool.h"
#include "runtime/timer.h"
#include "tensor/rng.h"

#include "bench_util.h"

using namespace ndirect;
using namespace ndirect::bench;

namespace {

struct Percentiles {
  double p50 = 0, p95 = 0;
};

Percentiles percentiles(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Percentiles r;
  if (samples.empty()) return r;
  r.p50 = samples[samples.size() / 2];
  r.p95 = samples[static_cast<std::size_t>(
      static_cast<double>(samples.size() - 1) * 0.95)];
  return r;
}

/// Latency distribution of `fn` in microseconds.
Percentiles time_calls(const std::function<void()>& fn, int reps) {
  fn();  // warm-up
  std::vector<double> us(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    fn();
    us[static_cast<std::size_t>(i)] = t.seconds() * 1e6;
  }
  return percentiles(us);
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  print_header("Dispatch: per-call fixed overhead");

  // ------------------------------------------------------------------
  // 1. Pool round-trip latency (empty work): spin vs. park dispatch.
  // ------------------------------------------------------------------
  const std::size_t pool_threads = 4;
  const int rt_reps = cfg.full ? 20000 : 3000;
  ThreadPool spin_pool(pool_threads);  // spin budget from env/default
  ThreadPool park_pool(pool_threads, 0);  // park immediately (seed-like)
  auto noop = [](std::size_t) {};
  const Percentiles rt_spin = time_calls(
      [&] { spin_pool.run(pool_threads, noop); }, rt_reps);
  const Percentiles rt_park = time_calls(
      [&] { park_pool.run(pool_threads, noop); }, rt_reps);

  std::printf("\n[measured] empty-work pool round-trip, %zu threads "
              "(%d reps):\n", pool_threads, rt_reps);
  const std::vector<int> w = {26, 12, 12};
  print_row({"dispatch", "p50 (us)", "p95 (us)"}, w);
  print_row({"spin-then-park", fmt(rt_spin.p50, 2), fmt(rt_spin.p95, 2)},
            w);
  print_row({"park (seed-like)", fmt(rt_park.p50, 2), fmt(rt_park.p95, 2)},
            w);

  // ------------------------------------------------------------------
  // 2. Small-layer conv latency: seed vs. inference-opt configuration.
  //    ResNet-50 conv5_x (7x7 spatial), N=1 — the paper's hardest case
  //    for fixed costs. Channels shrink 4x in quick mode.
  // ------------------------------------------------------------------
  const int chan = cfg.full ? 512 : 128;
  const ConvParams layer{.N = 1, .C = chan, .H = 7, .W = 7, .K = chan,
                         .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor input = make_input_nchw(layer.N, layer.C, layer.H, layer.W);
  Tensor filter = make_filter_kcrs(layer.K, layer.C, layer.R, layer.S);
  Tensor out = make_output_nchw(layer.N, layer.K, layer.P(), layer.Q());
  fill_random(input, 11);
  fill_random(filter, 12);

  NdirectOptions seed_opts;
  seed_opts.persistent_scratch = false;  // heap-alloc pack/ftile per call
  seed_opts.pool = &park_pool;
  const NdirectConv seed_conv(layer, seed_opts);  // KCRS: transform per call

  NdirectOptions opt_opts;
  opt_opts.pool = &spin_pool;
  const NdirectConv opt_conv(layer, opt_opts);
  const Tensor packed = opt_conv.pack_filter(filter.data());  // pack once

  const int conv_reps = cfg.full ? 3000 : 500;
  const Percentiles lat_seed = time_calls(
      [&] { seed_conv.run_into(input.data(), filter.data(), out.data()); },
      conv_reps);
  const Percentiles lat_opt = time_calls(
      [&] { opt_conv.run_into(input.data(), packed, out.data()); },
      conv_reps);

  std::printf("\n[measured] conv5_x-style layer %s, N=1 (%d reps):\n",
              layer.to_string().c_str(), conv_reps);
  print_row({"configuration", "p50 (us)", "p95 (us)"}, w);
  print_row({"seed (alloc+transform+park)", fmt(lat_seed.p50, 1),
             fmt(lat_seed.p95, 1)}, w);
  print_row({"inference-opt", fmt(lat_opt.p50, 1), fmt(lat_opt.p95, 1)},
            w);

  // Fixed-overhead estimate: the optimized configuration's kernel work
  // is identical (same plan, same micro-kernels), so the latency delta
  // IS the per-call fixed cost removed; the dispatch round-trip delta
  // bounds the pool's share of it.
  const double overhead_removed_us = lat_seed.p50 - lat_opt.p50;
  const double overhead_ratio =
      lat_opt.p50 > 0 ? lat_seed.p50 / lat_opt.p50 : 0;
  std::printf("\nper-call cost removed: %.1f us (p50 ratio %.2fx)\n",
              overhead_removed_us, overhead_ratio);

  // ------------------------------------------------------------------
  // 3. Steady-state hygiene: no transforms, no arena growth.
  // ------------------------------------------------------------------
  const std::uint64_t t0 = transform_filter_tile_calls();
  const std::uint64_t g0 = scratch_grow_events();
  for (int i = 0; i < 100; ++i)
    opt_conv.run_into(input.data(), packed, out.data());
  const std::uint64_t transforms = transform_filter_tile_calls() - t0;
  const std::uint64_t grows = scratch_grow_events() - g0;
  std::printf("steady-state (100 calls): filter transforms = %llu, "
              "arena growths = %llu%s\n",
              static_cast<unsigned long long>(transforms),
              static_cast<unsigned long long>(grows),
              transforms == 0 && grows == 0 ? "  [zero-overhead OK]"
                                            : "  [UNEXPECTED]");

  // ------------------------------------------------------------------
  // JSON record for the driver / tracking dashboards.
  // ------------------------------------------------------------------
  auto pcts = [](const Percentiles& p) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"p50\": %.3f, \"p95\": %.3f}",
                  p.p50, p.p95);
    return std::string(buf);
  };
  JsonReport report("dispatch");
  report.add("pool_threads", static_cast<std::uint64_t>(pool_threads));
  report.add_raw("round_trip_spin_us", pcts(rt_spin));
  report.add_raw("round_trip_park_us", pcts(rt_park));
  report.add("layer", layer.to_string());
  report.add_raw("conv_seed_us", pcts(lat_seed));
  report.add_raw("conv_opt_us", pcts(lat_opt));
  report.add("fixed_overhead_removed_us", overhead_removed_us);
  report.add("p50_ratio", overhead_ratio);
  report.add("steady_state_transforms", transforms);
  report.add("steady_state_arena_growths", grows);
  report.write();
  return 0;
}
