// Tour of two APIs beyond the paper's core loop nest: store-time
// fusion epilogues, and the Eq. 3/4 register-block solver re-derived
// for other vector widths (Sections 3.3 and 10.1).
//
//   $ ./examples/advanced_features
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/ndirect.h"
#include "tensor/rng.h"

using namespace ndirect;

int main() {
  // ------------------------------------------------------------------
  // 1. Fused epilogue: conv + bias + ReLU in one pass.
  // ------------------------------------------------------------------
  {
    const ConvParams p{.N = 1, .C = 32, .H = 28, .W = 28, .K = 64,
                       .R = 3, .S = 3, .str = 1, .pad = 1};
    Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
    Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
    fill_random(in, 1);
    fill_random(f, 2);
    std::vector<float> bias(64, 0.1f);
    const NdirectConv conv(p);
    const Tensor out = conv.run(in, f, {.bias = bias.data(), .relu = true});
    float min_v = out[0];
    for (std::size_t i = 0; i < out.size(); ++i) {
      min_v = std::min(min_v, out[i]);
    }
    std::printf("[epilogue]  conv+bias+ReLU fused at store time; "
                "min output = %.3f (>= 0)\n",
                min_v);
  }

  // ------------------------------------------------------------------
  // 2. Re-derived register blocks for other ISAs (§10.1).
  // ------------------------------------------------------------------
  for (const auto& [name, lanes] :
       {std::pair<const char*, int>{"NEON FP32", 4},
        {"SVE-256", 8},
        {"SVE-512", 16}}) {
    const RegisterBlock b = solve_register_block(3, lanes, 32);
    std::printf("[isa]       %-10s -> Vw=%2d Vk=%2d (FAI %.1f)\n", name,
                b.vw, b.vk, fai_microkernel(b.vw, b.vk, 3));
  }
  return 0;
}
