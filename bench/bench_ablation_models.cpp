// Ablations of the analytical design choices DESIGN.md calls out:
//   (1) the Eq. 3/4 register block vs every other feasible block,
//   (2) the Eq. 1/2 cache tiling vs shrunken/inflated tilings,
//   (3) on-the-fly filter transform vs ahead-of-time,
//   (4) the Eq. 5/6 thread split vs K-only and rows-only splits.
#include <cstdio>

#include "bench_util.h"
#include "core/alpha.h"
#include "core/fai.h"
#include "core/microkernel.h"
#include "core/ndirect.h"
#include "runtime/cpu_info.h"
#include "tensor/rng.h"

using namespace ndirect;
using namespace ndirect::bench;

namespace {

double run_with(const ConvParams& p, const NdirectOptions& opts,
                const Tensor& input, const Tensor& filter,
                double min_seconds) {
  const NdirectConv conv(p, opts);
  return time_gflops([&] { (void)conv.run(input, filter); },
                     static_cast<double>(p.flops()), min_seconds);
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  const ConvLayer proto = table4_layer(10, 1);  // 3x3 stride-1 ResNet
  const ConvParams p = scale_layer(proto.params, cfg);
  Tensor input = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor filter = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(input, 1);
  fill_random(filter, 2);

  print_header("Ablation 1: register block (Eq. 3/4) — layer 10 host");
  const std::vector<int> w = {10, 10, 12, 14};
  print_row({"vw", "vk", "model FAI", "GFLOPS"}, w);
  // The blocks the registry instantiates at this build's lane count.
  const RegisterBlock solved = solve_kernel_block(p.S);
  for (const RegisterBlock& rb : microkernel_blocks()) {
    if (!kernel_block_feasible(rb.vw, rb.vk, p.S, kKernelLanes, kKernelRegs))
      continue;
    // Every other block runs with the tiles Eq. 1/2 solve for it; the
    // solved block runs the planner's own plan.
    const bool chosen = rb.vw == solved.vw && rb.vk == solved.vk;
    NdirectOptions opts;
    opts.threads = cfg.threads;
    if (!chosen) opts.force_rb = rb;
    const double g = run_with(p, opts, input, filter, cfg.min_seconds);
    print_row({std::to_string(rb.vw), std::to_string(rb.vk),
               fmt(fai_microkernel(rb.vw, rb.vk, p.S), 2),
               fmt(g, 2) + (chosen ? " <- solved" : "")},
              w);
  }

  print_header("Ablation 2: cache tiling (Eq. 1/2)");
  const NdirectConv planned(p);
  const TilingPlan t0 = planned.plan().tiling;
  std::printf("solved tiling: tc=%d tk=%d th=%d\n", t0.tc, t0.tk, t0.th);
  const std::vector<int> w2 = {8, 8, 8, 14};
  print_row({"tc", "tk", "th", "GFLOPS"}, w2);
  const int vk = planned.plan().rb.vk;
  const TilingPlan candidates[] = {
      t0,
      {std::max(1, t0.tc / 4), t0.tk, t0.th},
      {std::min(p.C, t0.tc * 4), t0.tk, t0.th},
      {t0.tc, vk, t0.th},
      {t0.tc, t0.tk, 1},
      {1, vk, 1},
  };
  for (const TilingPlan& t : candidates) {
    NdirectOptions opts;
    opts.threads = cfg.threads;
    opts.force_tiling = t;
    const double g = run_with(p, opts, input, filter, cfg.min_seconds);
    const bool chosen = t.tc == t0.tc && t.tk == t0.tk && t.th == t0.th;
    print_row({std::to_string(t.tc), std::to_string(t.tk),
               std::to_string(t.th),
               fmt(g, 2) + (chosen ? " <- solved" : "")},
              w2);
  }

  print_header("Ablation 3: filter transform on-the-fly vs ahead-of-time");
  for (const bool aot : {false, true}) {
    NdirectOptions opts;
    opts.threads = cfg.threads;
    opts.aot_filter = aot;
    const double g = run_with(p, opts, input, filter, cfg.min_seconds);
    std::printf("  %-13s %8.2f GFLOPS\n",
                aot ? "ahead-of-time" : "on-the-fly", g);
  }

  print_header("Ablation 4: thread split (Eq. 5/6) vs naive splits");
  const int threads = cfg.threads > 0
                          ? cfg.threads
                          : static_cast<int>(ThreadPool::global().size());
  // Use a batch large enough to give PTn something to split.
  ConvParams pp = p;
  pp.N = std::max(p.N, threads);
  Tensor in2 = make_input_nchw(pp.N, pp.C, pp.H, pp.W);
  fill_random(in2, 3);
  const ThreadMapping solved_map =
      solve_thread_mapping(pp, host_alpha(), threads);
  const ThreadMapping maps[] = {
      solved_map,
      {1, threads},  // K-only (the ACL strategy)
      {threads, 1},  // rows-only
  };
  const char* names[] = {"Eq.5/6 split", "K-only", "rows-only"};
  for (int i = 0; i < 3; ++i) {
    if (maps[i].ptk > pp.K) continue;
    NdirectOptions opts;
    opts.threads = threads;
    opts.force_mapping = maps[i];
    const double g = run_with(pp, opts, in2, filter, cfg.min_seconds);
    std::printf("  %-13s (PTn=%2d, PTk=%2d) %8.2f GFLOPS\n", names[i],
                maps[i].ptn, maps[i].ptk, g);
  }
  std::printf("\n(On a single-core host the thread-split rows collapse "
              "to the same execution; run with more cores to see the "
              "Eq. 5/6 advantage.)\n");
  return 0;
}
