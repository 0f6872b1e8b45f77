// Tests for the store-time epilogue (bias + ReLU fusion) and the
// conv+ReLU graph fusion pass.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/naive_conv.h"
#include "conv_shapes.h"
#include "core/ndirect.h"
#include "nn/models.h"
#include "nn/optimize.h"
#include "tensor/compare.h"
#include "tensor/rng.h"
#include "tensor/transforms.h"

namespace ndirect {
namespace {

Tensor reference_with_epilogue(const Tensor& input, const Tensor& filter,
                               const ConvParams& p,
                               const std::vector<float>& bias, bool relu) {
  Tensor ref = naive_conv_nchw(input, filter, p);
  const std::int64_t hw = std::int64_t{p.P()} * p.Q();
  for (int n = 0; n < p.N; ++n) {
    for (int k = 0; k < p.K; ++k) {
      float* plane =
          ref.data() + (std::int64_t{n} * p.K + k) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        float v = plane[i];
        if (!bias.empty()) v += bias[static_cast<std::size_t>(k)];
        if (relu) v = std::max(v, 0.0f);
        plane[i] = v;
      }
    }
  }
  return ref;
}

std::vector<float> make_bias(int K) {
  std::vector<float> bias(static_cast<std::size_t>(K));
  for (int k = 0; k < K; ++k) {
    bias[static_cast<std::size_t>(k)] =
        0.25f * static_cast<float>(k % 7 - 3);
  }
  return bias;
}

class EpilogueSweep : public ::testing::TestWithParam<ConvParams> {};

TEST_P(EpilogueSweep, BiasAndReluMatchReference) {
  const ConvParams p = GetParam();
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 81);
  fill_random(f, 82);
  const std::vector<float> bias = make_bias(p.K);
  const Tensor ref = reference_with_epilogue(in, f, p, bias, true);

  const NdirectConv conv(p);
  ConvEpilogue epi;
  epi.bias = bias.data();
  epi.relu = true;
  const Tensor out = conv.run(in, f, epi);
  EXPECT_TRUE(allclose(out, ref))
      << compare_tensors(out, ref).to_string();
}

INSTANTIATE_TEST_SUITE_P(Shapes, EpilogueSweep,
                         ::testing::ValuesIn(correctness_conv_shapes()));

TEST(Epilogue, BiasOnly) {
  const ConvParams p{.N = 1, .C = 8, .H = 10, .W = 10, .K = 12,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 83);
  fill_random(f, 84);
  const std::vector<float> bias = make_bias(p.K);
  const Tensor ref = reference_with_epilogue(in, f, p, bias, false);
  const NdirectConv conv(p);
  const Tensor out = conv.run(in, f, {bias.data(), false});
  EXPECT_TRUE(allclose(out, ref));
  // Some values must actually be negative (ReLU genuinely off).
  bool any_negative = false;
  for (std::size_t i = 0; i < out.size(); ++i) any_negative |= out[i] < 0;
  EXPECT_TRUE(any_negative);
}

TEST(Epilogue, ReluOnlyClampsEverything) {
  const ConvParams p{.N = 1, .C = 8, .H = 10, .W = 10, .K = 12,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 85);
  fill_random(f, 86);
  const NdirectConv conv(p);
  const Tensor out = conv.run(in, f, {nullptr, true});
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_GE(out[i], 0.0f);
  const Tensor ref =
      reference_with_epilogue(in, f, p, {}, /*relu=*/true);
  EXPECT_TRUE(allclose(out, ref));
}

TEST(Epilogue, AppliedOnlyAfterFinalCTile) {
  // Force tiny Tc so several C tiles accumulate; the ReLU must clamp
  // the *final* sum, not intermediate partials (which would corrupt
  // later accumulation).
  const ConvParams p{.N = 1, .C = 24, .H = 8, .W = 8, .K = 8,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 87);
  fill_random(f, 88);
  NdirectOptions opts;
  opts.force_rb = {8, 4};
  opts.force_tiling = {3, 4, 2};  // 8 C tiles
  const NdirectConv conv(p, opts);
  const Tensor out = conv.run(in, f, {nullptr, true});
  const Tensor ref = reference_with_epilogue(in, f, p, {}, true);
  EXPECT_TRUE(allclose(out, ref))
      << compare_tensors(out, ref).to_string();
}

TEST(Epilogue, NhwcPathSupportsEpilogue) {
  const ConvParams p{.N = 1, .C = 8, .H = 9, .W = 9, .K = 16,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 89);
  fill_random(f, 90);
  const std::vector<float> bias = make_bias(p.K);
  const Tensor ref = reference_with_epilogue(in, f, p, bias, true);
  const NdirectConv conv(p);
  const Tensor out_nhwc =
      conv.run_nhwc(nchw_to_nhwc(in), f, {bias.data(), true});
  EXPECT_TRUE(allclose(nhwc_to_nchw(out_nhwc), ref));
}

// ----------------------------------------------------------------------
// Graph-level conv+ReLU fusion
// ----------------------------------------------------------------------

TEST(FuseConvRelu, PreservesVggOutputs) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_vgg16(1, opts);
  Tensor in = make_input_nchw(1, 3, 32, 32);
  fill_random(in, 91);
  const Tensor before = net->run(in);
  const int fused = fuse_conv_relu(*net);
  EXPECT_EQ(fused, 13);  // every VGG-16 conv is followed by ReLU
  const Tensor after = net->run(in);
  EXPECT_TRUE(allclose(before, after, 1e-3, 1e-3));
}

TEST(FuseConvRelu, WalksThroughFoldedBatchNorm) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  Tensor in = make_input_nchw(1, 3, 32, 32);
  fill_random(in, 92);
  const Tensor before = net->run(in);
  ASSERT_EQ(fold_batchnorm(*net), 53);
  // conv->bn->relu chains fuse; the post-residual ReLUs (fed by Add) do
  // not. ResNet-50: stem + 2 per bottleneck = 1 + 2*16 = 33.
  EXPECT_EQ(fuse_conv_relu(*net), 33);
  const Tensor after = net->run(in);
  EXPECT_TRUE(allclose(before, after, 1e-3, 1e-3))
      << compare_tensors(before, after).to_string();
}

TEST(FuseConvRelu, FusionIsBackendInvariant) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  opts.backend = ConvBackend::Ndirect;
  auto net = build_vgg16(1, opts);
  fuse_conv_relu(*net);
  Tensor in = make_input_nchw(1, 3, 32, 32);
  fill_random(in, 93);
  const Tensor nd = net->run(in);
  for (ConvOp* conv : net->conv_ops()) {
    conv->set_backend(ConvBackend::Im2colGemm);
  }
  const Tensor gemm = net->run(in);
  EXPECT_TRUE(allclose(nd, gemm, 1e-3, 1e-3));
}

TEST(FuseConvRelu, FusedOutputNodeKeepsTheOutput) {
  // conv -> relu, the ReLU being the graph's output: the fused conv
  // becomes the output node.
  Graph g(1, 4, 8, 8);
  const ConvParams p{.N = 1, .C = 4, .H = 8, .W = 8, .K = 6,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const NodeId c = g.add(
      std::make_unique<ConvOp>(p, ConvBackend::Ndirect, 2, true), {0});
  g.add(std::make_unique<ReluOp>(), {c});
  Tensor in = make_input_nchw(1, 4, 8, 8);
  fill_random(in, 94);
  const Tensor before = g.run(in);
  ASSERT_EQ(fuse_conv_relu(g), 1);
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_EQ(g.output_shape(), (TensorShape{1, 6, 8, 8}));
  const Tensor after = g.run(in);
  EXPECT_TRUE(allclose(before, after))
      << compare_tensors(before, after).to_string();
}

TEST(FuseConvRelu, DoesNotFuseResidualRelu) {
  // A relu fed by an Add must stay a ReLU op.
  Graph g(1, 4, 8, 8);
  const ConvParams p{.N = 1, .C = 4, .H = 8, .W = 8, .K = 4,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  NodeId c1 = g.add(std::make_unique<ConvOp>(p, ConvBackend::Ndirect, 1,
                                             false),
                    {0});
  NodeId add = g.add(std::make_unique<AddOp>(), {c1, c1});
  g.add(std::make_unique<ReluOp>(), {add});
  EXPECT_EQ(fuse_conv_relu(g), 0);
}

}  // namespace
}  // namespace ndirect
