// Fig. 5: how much time an overlap of packing and compute could hide, on
// the five VGG layers (Table 4 ids 24-28). The paper fuses the
// input-window packing into the first kv iteration's FMAs (§5.3) and
// times that against sequential packing. This engine packs each window
// once, ahead of its kv loop (DESIGN.md, deviation 8), so the bench
// reports the bound instead: the pack phase's share of pack +
// micro-kernel time, kPackNs / (kPackNs + kMicrokernelNs), read from the
// runs' TelemetrySnapshot. No overlap can hide more than that share.
#include <cstdio>

#include "bench_util.h"
#include "core/ndirect.h"
#include "platform/specs.h"
#include "tensor/rng.h"

using namespace ndirect;
using namespace ndirect::bench;

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  print_header("Fig. 5 [measured]: pack phase share of phase time "
               "(VGG layers)");
  std::printf("host, batch=%d, spatial/%d, threads=%d\n", cfg.batch,
              cfg.spatial_divisor, cfg.threads);
  if (!kTelemetryCompiled || !telemetry_enabled()) {
    std::printf("telemetry is off: no phase split to report\n");
    return 0;
  }
  const std::vector<int> w = {6, 10, 10, 10, 11};
  print_row({"layer", "GFLOPS", "pack ms", "micro ms", "pack share"}, w);

  for (int id = 24; id <= 28; ++id) {
    const ConvLayer layer = table4_layer(id, 1);
    const ConvParams p = scale_layer(layer.params, cfg);
    Tensor input = make_input_nchw(p.N, p.C, p.H, p.W);
    Tensor filter = make_filter_kcrs(p.K, p.C, p.R, p.S);
    fill_random(input, 1);
    fill_random(filter, 2);

    // The phase split is summed over every timed run.
    TelemetrySnapshot run, total;
    NdirectOptions opts;
    opts.threads = cfg.threads;
    opts.telemetry = &run;
    const NdirectConv conv(p, opts);
    int runs = 0;
    const double gflops = time_gflops(
        [&] {
          (void)conv.run(input, filter);
          total.merge(run);
          ++runs;
        },
        static_cast<double>(p.flops()), cfg.min_seconds);
    const double pack = total.phase_seconds(Counter::kPackNs);
    const double micro = total.phase_seconds(Counter::kMicrokernelNs);
    const double share = pack + micro > 0 ? pack / (pack + micro) : 0.0;
    print_row({std::to_string(id), fmt(gflops, 2),
               fmt(1e3 * pack / runs, 3), fmt(1e3 * micro / runs, 3),
               fmt(100 * share, 1) + "%"},
              w);
  }
  std::printf(
      "\npaper shape check: the paper's fused packing can hide at most "
      "the pack share of each layer's phase time (EXPERIMENTS.md, "
      "Fig. 5, records what the deleted fused kernels won).\n");
  return 0;
}
