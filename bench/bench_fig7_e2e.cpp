// Fig. 7: end-to-end inference of ResNet-50/101 and VGG-16/19,
// normalized to the Ansor baseline (paper: Phytium 2000+ with N=64 and
// ThunderX2 with N=32).
//
// [modelled]: per-layer conv times from the analytical model summed over
// the real conv stack of each network, plus an elementwise-traffic term;
// Ansor gets the operator-fusion discount on the elementwise term (the
// mechanism Section 8.3 credits for its ThunderX2 win).
// [measured]: the graph executor on this host with the conv backend
// swapped (ndirect / im2col+GEMM / tuned schedules); the tuned backend
// additionally gets BatchNorm folding, our fusion-pass equivalent.
#include <cstdio>
#include <map>
#include <string>

#include "autotune/tuner.h"

#include "bench_util.h"
#include "core/filter_transform.h"
#include "nn/models.h"
#include "nn/optimize.h"
#include "platform/specs.h"
#include "runtime/timer.h"
#include "tensor/rng.h"

using namespace ndirect;
using namespace ndirect::bench;

namespace {

// Modelled end-to-end seconds for one batch on a paper platform.
double modelled_e2e_seconds(const std::string& model_name,
                            const PlatformSpec& spec, ConvMethod method) {
  ModelOptions opts;
  opts.backend = ConvBackend::Naive;  // graph is only inspected
  auto net = build_model(model_name, spec.cores, opts);

  double conv_seconds = 0;
  double elem_bytes = 0;
  for (ConvOp* conv : net->conv_ops()) {
    const ConvParams& p = conv->params();
    const double gflops =
        estimate_conv_perf(spec, p, method, spec.cores).gflops;
    conv_seconds += static_cast<double>(p.flops()) / (gflops * 1e9);
    // Library-path glue around each conv — BN (read+write), ReLU
    // (read+write), residual adds, framework buffer traffic: ~10
    // activation passes of its output tensor at inference batch sizes.
    elem_bytes += 10.0 * 4.0 * static_cast<double>(p.output_elems());
  }
  const double bw = spec.bandwidth_gibs * 1.073741824 * 1e9;
  double elem_seconds = elem_bytes / bw;
  if (method == ConvMethod::AnsorTuned) {
    elem_seconds *= 0.15;  // operator fusion removes the elementwise trips
  }
  return conv_seconds + elem_seconds;
}

void modelled_panel(const char* platform_name) {
  const PlatformSpec& spec = platform_by_name(platform_name);
  std::printf("\n[modelled] %s (N=%d), speedup normalized to Ansor:\n",
              platform_name, spec.cores);
  const std::vector<int> w = {12, 16, 8, 18};
  print_row({"model", "MXNet+NDIRECT", "Ansor", "MXNet+OpenBLAS"}, w);
  for (const char* model :
       {"ResNet-50", "ResNet-101", "VGG-16", "VGG-19"}) {
    const double t_nd =
        modelled_e2e_seconds(model, spec, ConvMethod::Ndirect);
    const double t_ansor =
        modelled_e2e_seconds(model, spec, ConvMethod::AnsorTuned);
    const double t_blas =
        modelled_e2e_seconds(model, spec, ConvMethod::Im2colGemm);
    print_row({model, fmt(t_ansor / t_nd, 2) + "x", "1.00x",
               fmt(t_ansor / t_blas, 2) + "x"},
              w);
  }
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();

  print_header("Fig. 7: end-to-end inference");
  modelled_panel("Phytium 2000+");
  modelled_panel("ThunderX2");
  std::printf(
      "\npaper: 1.19x-1.45x over Ansor on Phytium 2000+, 0.88x-0.98x on "
      "ThunderX2 (Ansor's whole-graph tuning + fusion, which the model "
      "only partially captures via the elementwise term).\n");

  // Measured: reduced models unless NDIRECT_BENCH_FULL=1.
  ModelOptions mopts;
  mopts.channel_divisor = cfg.full ? 1 : 8;
  mopts.image_size = cfg.full ? 224 : 64;
  std::printf(
      "\n[measured] host: batch=%d, channels/%d, image %dx%d, "
      "normalized to the tuned backend\n",
      cfg.batch, mopts.channel_divisor, mopts.image_size,
      mopts.image_size);
  const std::vector<int> w = {12, 16, 8, 18, 12};
  print_row({"model", "MXNet+NDIRECT", "Ansor", "MXNet+OpenBLAS",
             "(tuned ms)"},
            w);
  for (const char* model :
       {"ResNet-50", "ResNet-101", "VGG-16", "VGG-19"}) {
    Tensor input =
        make_input_nchw(cfg.batch, 3, mopts.image_size, mopts.image_size);
    fill_random(input, 3);

    auto time_backend = [&](ConvBackend backend, bool fold) {
      ModelOptions o = mopts;
      o.backend = backend;
      auto net = build_model(model, cfg.batch, o);
      if (fold) fold_batchnorm(*net);
      if (backend == ConvBackend::Tuned) {
        // Tune each distinct conv shape once (tuning time excluded,
        // matching the paper's treatment of Ansor's search overhead).
        std::map<std::string, Schedule> tuned;
        for (ConvOp* conv : net->conv_ops()) {
          const std::string key = conv->params().to_string();
          auto it = tuned.find(key);
          if (it == tuned.end()) {
            TuneOptions topts;
            topts.generations = cfg.full ? 6 : 2;
            topts.population = cfg.full ? 24 : 8;
            topts.measure_top = cfg.full ? 3 : 1;
            topts.measure_seconds = 0.01;
            topts.threads = cfg.threads;
            it = tuned.emplace(key, tune_conv(conv->params(), topts).best)
                     .first;
          }
          conv->set_schedule(it->second);
        }
      }
      (void)net->run(input);  // warm-up
      WallTimer t;
      int reps = 0;
      do {
        (void)net->run(input);
        ++reps;
      } while (t.seconds() < cfg.min_seconds);
      return t.seconds() / reps;
    };

    const double t_nd = time_backend(ConvBackend::Ndirect, false);
    const double t_tuned = time_backend(ConvBackend::Tuned, true);
    const double t_gemm = time_backend(ConvBackend::Im2colGemm, false);
    print_row({model, fmt(t_tuned / t_nd, 2) + "x", "1.00x",
               fmt(t_tuned / t_gemm, 2) + "x", fmt(t_tuned * 1e3, 1)},
              w);
  }

  // ------------------------------------------------------------------
  // Graph passes on the inference path: ResNet-50 forward with BN, ReLU
  // and the residual adds as separate passes vs. BN folded into the conv
  // weights and ReLU and residual add fused into the conv store
  // epilogue. Both arms run on weights each ConvOp packed once, so the
  // ratio is the two passes' gain alone.
  // ------------------------------------------------------------------
  {
    Tensor input =
        make_input_nchw(cfg.batch, 3, mopts.image_size, mopts.image_size);
    fill_random(input, 5);
    ModelOptions o = mopts;
    o.backend = ConvBackend::Ndirect;

    auto time_net = [&](Graph& net) {
      (void)net.run(input);  // warm-up (packs filters, grows arenas)
      WallTimer t;
      int reps = 0;
      do {
        (void)net.run(input);
        ++reps;
      } while (t.seconds() < cfg.min_seconds);
      return t.seconds() / reps;
    };

    auto before_net = build_model("ResNet-50", cfg.batch, o);
    const double t_before = time_net(*before_net);

    auto after_net = build_model("ResNet-50", cfg.batch, o);
    fold_batchnorm(*after_net);
    fuse_conv_relu(*after_net);
    const double t_after = time_net(*after_net);

    // Steady state must run no filter transforms at all.
    const std::uint64_t tf0 = transform_filter_tile_calls();
    (void)after_net->run(input);
    const std::uint64_t transforms = transform_filter_tile_calls() - tf0;

    std::printf(
        "\n[measured] ResNet-50 BN fold + ReLU/residual fusion: "
        "%.1f ms -> %.1f ms (%.2fx); steady-state filter transforms "
        "per forward: %llu\n",
        t_before * 1e3, t_after * 1e3,
        t_after > 0 ? t_before / t_after : 0.0,
        static_cast<unsigned long long>(transforms));
  }
  return 0;
}
