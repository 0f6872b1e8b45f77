// Tour of the extension APIs beyond the paper's core contribution:
// store-time fusion epilogues, depthwise-separable / grouped / 3D
// convolution (Section 10.2), and the FP64 / FP16 datatype paths
// (Section 3.3).
//
//   $ ./examples/advanced_features
#include <cstdio>
#include <random>
#include <vector>

#include "core/conv3d.h"
#include "core/conv_fp16.h"
#include "core/conv_fp64.h"
#include "core/depthwise.h"
#include "core/grouped.h"
#include "core/ndirect.h"
#include "tensor/compare.h"
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
  // 2. Depthwise-separable block (MobileNet building block, §10.2).
  // ------------------------------------------------------------------
  {
    const DepthwiseParams dw{.N = 1, .C = 32, .H = 28, .W = 28,
                             .R = 3, .S = 3, .str = 1, .pad = 1};
    Tensor in = make_input_nchw(1, 32, 28, 28);
    Tensor dwf = make_filter_kcrs(32, 1, 3, 3);
    Tensor pwf = make_filter_kcrs(64, 32, 1, 1);
    fill_random(in, 3);
    fill_random(dwf, 4);
    fill_random(pwf, 5);
    const Tensor out = separable_conv_nchw(in, dwf, pwf, dw, /*K=*/64);
    std::printf("[separable] dw3x3 + pw1x1 -> output %s\n",
                out.shape_string().c_str());
  }

  // ------------------------------------------------------------------
  // 3. Grouped convolution (ResNeXt-style, 4 groups).
  // ------------------------------------------------------------------
  {
    const ConvParams p{.N = 1, .C = 32, .H = 14, .W = 14, .K = 32,
                       .R = 3, .S = 3, .str = 1, .pad = 1};
    Tensor in = make_input_nchw(1, 32, 14, 14);
    Tensor f = make_filter_kcrs(32, 8, 3, 3);  // C/groups = 8
    fill_random(in, 6);
    fill_random(f, 7);
    const Tensor out = grouped_conv_nchw(in, f, p, /*groups=*/4);
    const Tensor ref = grouped_conv_reference(in, f, p, 4);
    std::printf("[grouped]   4 groups, verified: %s\n",
                allclose(out, ref) ? "ok" : "MISMATCH");
  }

  // ------------------------------------------------------------------
  // 4. 3D convolution (video/volumetric, §10.2).
  // ------------------------------------------------------------------
  {
    const Conv3dParams p{.N = 1, .C = 4, .D = 8, .H = 16, .W = 16,
                         .K = 8, .T = 3, .R = 3, .S = 3, .str = 1,
                         .pad = 1, .pad_d = 1};
    Tensor in({1, 4, 8, 16, 16}, Layout::Linear);
    Tensor f({8, 4, 3, 3, 3}, Layout::Linear);
    fill_random(in, 8);
    fill_random(f, 9);
    const Tensor out = conv3d_ndirect(in, f, p);
    std::printf("[conv3d]    [1,4,8,16,16] * [8,4,3,3,3] -> %s "
                "(%.2f GFLOP)\n",
                out.shape_string().c_str(),
                static_cast<double>(p.flops()) / 1e9);
  }

  // ------------------------------------------------------------------
  // 5. Datatypes (§3.3): FP64 exactness, FP16 footprint.
  // ------------------------------------------------------------------
  {
    const ConvParams p{.N = 1, .C = 16, .H = 14, .W = 14, .K = 16,
                       .R = 3, .S = 3, .str = 1, .pad = 1};
    std::mt19937_64 rng(10);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);

    std::vector<double> din(static_cast<std::size_t>(p.input_elems()));
    std::vector<double> dflt(static_cast<std::size_t>(p.filter_elems()));
    std::vector<double> dout(static_cast<std::size_t>(p.output_elems()));
    for (double& v : din) v = dist(rng);
    for (double& v : dflt) v = dist(rng);
    ndirect_conv_fp64(din.data(), dflt.data(), dout.data(), p);
    std::printf("[fp64]      double-precision conv: out[0] = %.15f\n",
                dout[0]);

    std::vector<fp16_t> hin(din.size()), hflt(dflt.size()),
        hout(dout.size());
    for (std::size_t i = 0; i < din.size(); ++i) {
      hin[i] = fp32_to_fp16(static_cast<float>(din[i]));
    }
    for (std::size_t i = 0; i < dflt.size(); ++i) {
      hflt[i] = fp32_to_fp16(static_cast<float>(dflt[i]));
    }
    ndirect_conv_fp16(hin.data(), hflt.data(), hout.data(), p);
    std::printf("[fp16]      half-storage conv: out[0] = %.5f "
                "(fp64 says %.5f), tensors at half the bytes\n",
                fp16_to_fp32(hout[0]), dout[0]);
  }

  // ------------------------------------------------------------------
  // 6. Re-derived register blocks for other ISAs (§10.1).
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
