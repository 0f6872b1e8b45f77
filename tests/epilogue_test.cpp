// Tests for the store-time epilogue (bias, residual and ReLU fusion)
// and the graph passes that fill it in: conv+ReLU, residual add+ReLU,
// and BatchNorm + ReLU into depthwise convs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "baselines/naive_conv.h"
#include "conv_shapes.h"
#include "core/depthwise.h"
#include "core/microkernel.h"
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
  opts.force_rb = {8, kKernelLanes};  // a registry block at every width
  opts.force_tiling = {3, kKernelLanes, 2};  // 8 C tiles
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
  // conv->bn->relu chains fuse their ReLU (stem + 2 per bottleneck =
  // 1 + 2*16 = 33 nodes), and every bottleneck's add and the ReLU after
  // it fuse into one of the add's convs (2*16 = 32 nodes).
  EXPECT_EQ(fuse_conv_relu(*net), 65);
  EXPECT_EQ(net->node_count(), 58);
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
  // An add of a node with itself has no residual to hand the conv: the
  // add and the ReLU it feeds stay.
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


// ----------------------------------------------------------------------
// Residual epilogue: fused == conv + AddOp + ReluOp, bit for bit
// ----------------------------------------------------------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Tensor random_tensor(std::vector<std::int64_t> dims, Layout layout,
                     std::uint64_t seed) {
  Tensor t(std::move(dims), layout);
  fill_random(t, seed);
  return t;
}

/// The unfused chain: the conv with its bias, then AddOp, then ReluOp.
Tensor add_then_relu(const Tensor& conv_out, const Tensor& residual) {
  const Tensor sum = AddOp().forward({&conv_out, &residual});
  return ReluOp().forward({&sum});
}

struct ResidualCase {
  const char* name;
  ConvParams p;
  NdirectOptions opts;
};

std::vector<ResidualCase> residual_cases() {
  // Q = 13 and K = 12 against an 8 x max(8, lanes) block: a registry
  // block at every width (8x8 at 4 lanes, 8x16 at 16), ragged in both.
  constexpr int kVk = std::max(8, kKernelLanes);
  NdirectOptions ragged;
  ragged.force_rb = {8, kVk};
  NdirectOptions c_tiles = ragged;  // 4 C tiles: the accumulate path
  c_tiles.force_tiling = {3, kVk, 2};
  return {
      {"interior", {.N = 2, .C = 6, .H = 16, .W = 16, .K = 16, .R = 3,
                    .S = 3, .str = 1, .pad = 1}, ragged},
      {"ragged_k_and_w", {.N = 1, .C = 5, .H = 9, .W = 13, .K = 12, .R = 3,
                          .S = 3, .str = 1, .pad = 1}, ragged},
      {"c_tiles", {.N = 1, .C = 12, .H = 7, .W = 13, .K = 12, .R = 3,
                   .S = 3, .str = 1, .pad = 1}, c_tiles},
      {"flattened_1x1", {.N = 2, .C = 16, .H = 7, .W = 7, .K = 20, .R = 1,
                         .S = 1, .str = 1, .pad = 0}, {}},
      {"strided_1x1", {.N = 1, .C = 8, .H = 14, .W = 14, .K = 24, .R = 1,
                       .S = 1, .str = 2, .pad = 0}, {}},
  };
}

TEST(ResidualEpilogue, FusedEqualsConvAddReluBitwiseNchwAndNhwc) {
  std::uint64_t seed = 200;
  for (const ResidualCase& c : residual_cases()) {
    const ConvParams& p = c.p;
    // The forced blocks are registry blocks at every width, so no tile of
    // a fused run falls back to the generic kernel.
    TelemetrySnapshot snap;  // the last run's counters
    NdirectOptions opts = c.opts;
    opts.telemetry = &snap;
    const NdirectConv conv(p, opts);
    const Tensor in = random_tensor({p.N, p.C, p.H, p.W}, Layout::NCHW, ++seed);
    const Tensor f = random_tensor({p.K, p.C, p.R, p.S}, Layout::KCRS, ++seed);
    const Tensor res =
        random_tensor({p.N, p.K, p.P(), p.Q()}, Layout::NCHW, ++seed);
    const Tensor res_nhwc = nchw_to_nhwc(res);
    const std::vector<float> bias = make_bias(p.K);
    const Tensor packed = conv.pack_filter(f.data());
    for (const bool with_bias : {false, true}) {
      const float* b = with_bias ? bias.data() : nullptr;
      const std::string what = std::string(c.name) +
                               (with_bias ? " bias" : " no-bias");
      // NCHW, on the KCRS filter and on the packed one.
      const Tensor want = add_then_relu(conv.run(in, f, {b, false}), res);
      EXPECT_TRUE(same_bits(conv.run(in, f, {b, true, res.data()}), want))
          << what << " nchw";
      EXPECT_EQ(snap.total(Counter::kGenericFallback), 0u)
          << what << " nchw";
      EXPECT_TRUE(
          same_bits(conv.run(in, packed, {b, true, res.data()}), want))
          << what << " nchw packed";
      // NHWC: the residual has the output's NHWC layout.
      const Tensor in_nhwc = nchw_to_nhwc(in);
      const Tensor want_nhwc =
          add_then_relu(conv.run_nhwc(in_nhwc, f, {b, false}), res_nhwc);
      EXPECT_TRUE(same_bits(
          conv.run_nhwc(in_nhwc, f, {b, true, res_nhwc.data()}), want_nhwc))
          << what << " nhwc";
      EXPECT_EQ(snap.total(Counter::kGenericFallback), 0u)
          << what << " nhwc";
      // Residual without ReLU: conv + AddOp alone.
      const Tensor conv_out = conv.run(in, f, {b, false});
      EXPECT_TRUE(same_bits(conv.run(in, f, {b, false, res.data()}),
                            AddOp().forward({&conv_out, &res})))
          << what << " no relu";
    }
  }
}

TEST(ResidualEpilogue, EveryBackendAndTheInt8PathMatchTheUnfusedOps) {
  // ConvOp with a residual input and a fused ReLU against the same op
  // without them followed by AddOp and ReluOp: the Ndirect store, the
  // int8 dequantizing store and the other backends' post-pass all run
  // bias, residual, ReLU in that order.
  const ConvParams p{.N = 2, .C = 6, .H = 9, .W = 11, .K = 10,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const Tensor x = random_tensor({p.N, p.C, p.H, p.W}, Layout::NCHW, 301);
  const Tensor res =
      random_tensor({p.N, p.K, p.P(), p.Q()}, Layout::NCHW, 302);
  for (const ConvBackend backend :
       {ConvBackend::Ndirect, ConvBackend::Im2colGemm, ConvBackend::Tuned,
        ConvBackend::Naive}) {
    for (const bool int8 : {false, true}) {
      if (int8 && backend != ConvBackend::Ndirect) continue;
      ConvOp fused(p, backend, 303, /*bias=*/true);
      ConvOp plain(p, backend, 303, /*bias=*/true);
      fused.set_fused_relu(true);
      fused.set_quantized(int8);
      plain.set_quantized(int8);
      const Tensor got = fused.forward({&x, &res});
      const Tensor want = add_then_relu(plain.forward({&x}), res);
      EXPECT_TRUE(same_bits(got, want))
          << conv_backend_name(backend) << (int8 ? " int8" : " fp32");
    }
  }
  // The residual must have the output's shape.
  ConvOp op(p, ConvBackend::Ndirect, 303, true);
  const TensorShape in_shape{p.N, p.C, p.H, p.W};
  EXPECT_THROW(op.infer({in_shape, in_shape}), std::invalid_argument);
  EXPECT_EQ(op.infer({in_shape, {p.N, p.K, p.P(), p.Q()}}),
            (TensorShape{p.N, p.K, p.P(), p.Q()}));
}

TEST(ResidualEpilogue, Int8ResidualNeedsTheF32Output) {
  const ConvParams p{.N = 1, .C = 4, .H = 6, .W = 6, .K = 4,
                     .R = 1, .S = 1, .str = 1, .pad = 0};
  const Int8Conv conv(p);
  std::vector<std::uint8_t> in(static_cast<std::size_t>(p.input_elems()), 3);
  std::vector<std::int8_t> f(static_cast<std::size_t>(p.K * p.C), 1);
  std::vector<float> res(static_cast<std::size_t>(p.output_elems()), 1.0f);
  std::vector<std::int32_t> out(res.size());
  Int8Epilogue ep;
  ep.residual = res.data();
  Int8Output dst;
  dst.i32 = out.data();
  EXPECT_THROW(conv.run(in.data(), 0, f.data(), ep, dst),
               std::invalid_argument);
}

// ----------------------------------------------------------------------
// Graph-level residual fusion
// ----------------------------------------------------------------------

ConvParams conv3x3(int C, int K) {
  return ConvParams{.N = 1, .C = C, .H = 8, .W = 8, .K = K,
                    .R = 3, .S = 3, .str = 1, .pad = 1};
}

std::unique_ptr<ConvOp> make_conv(const ConvParams& p, std::uint64_t seed,
                                  bool bias = true) {
  return std::make_unique<ConvOp>(p, ConvBackend::Ndirect, seed, bias);
}

Tensor graph_input(const Graph& g, std::uint64_t seed) {
  const TensorShape& s = g.shape_of(0);
  return random_tensor({s.N, s.C, s.H, s.W}, Layout::NCHW, seed);
}

TEST(FuseResidual, AddAsTheGraphOutput) {
  // conv(x) + x with no ReLU, the add being the output: the conv takes
  // x as its residual and becomes the output.
  Graph g(1, 4, 8, 8);
  const NodeId c = g.add(make_conv(conv3x3(4, 4), 11), {0});
  g.add(std::make_unique<AddOp>(), {c, 0});
  const Tensor in = graph_input(g, 12);
  const Tensor before = g.run(in);
  ASSERT_EQ(fuse_conv_relu(g), 1);
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_EQ(g.inputs_of(c), (std::vector<NodeId>{0, 0}));
  EXPECT_FALSE(dynamic_cast<ConvOp*>(g.op_of(c))->fused_relu());
  EXPECT_TRUE(same_bits(g.run(in), before));
}

TEST(FuseResidual, ConvWithTwoConsumersKeepsItsAdd) {
  // The add's later input also feeds a ReLU: it cannot take the
  // residual, and the earlier conv may not (its residual would come from
  // a later node). Nothing fuses.
  Graph g(1, 4, 8, 8);
  const NodeId a = g.add(make_conv(conv3x3(4, 4), 13), {0});
  const NodeId b = g.add(make_conv(conv3x3(4, 4), 14), {0});
  const NodeId r = g.add(std::make_unique<ReluOp>(), {b});
  const NodeId sum = g.add(std::make_unique<AddOp>(), {a, b});
  g.add(std::make_unique<ConcatOp>(), {r, sum});
  EXPECT_EQ(fuse_conv_relu(g), 0);
  EXPECT_EQ(g.node_count(), 6);
}

TEST(FuseResidual, ProjectionBlockFusesIntoTheLaterConv) {
  // ResNet projection block: the expanding conv (id 1) and the shortcut
  // conv (id 2) meet in add -> relu. The shortcut conv has the larger
  // id, so it takes the expanding conv's output as its residual and
  // every input id stays below its consumer's.
  Graph g(1, 4, 8, 8);
  const NodeId expand = g.add(make_conv(conv3x3(4, 8), 15, false), {0});
  ConvParams proj{.N = 1, .C = 4, .H = 8, .W = 8, .K = 8,
                  .R = 1, .S = 1, .str = 1, .pad = 0};
  const NodeId shortcut = g.add(make_conv(proj, 16), {0});
  const NodeId sum = g.add(std::make_unique<AddOp>(), {expand, shortcut});
  g.add(std::make_unique<ReluOp>(), {sum});
  const Tensor in = graph_input(g, 17);
  const Tensor before = g.run(in);
  ASSERT_EQ(fuse_conv_relu(g), 2);
  ASSERT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.inputs_of(expand), std::vector<NodeId>{0});
  EXPECT_EQ(g.inputs_of(shortcut), (std::vector<NodeId>{0, expand}));
  EXPECT_EQ(g.consumers_of(expand), std::vector<NodeId>{shortcut});
  EXPECT_TRUE(dynamic_cast<ConvOp*>(g.op_of(shortcut))->fused_relu());
  EXPECT_TRUE(same_bits(g.run(in), before));
  // A conv that already has a residual takes no BatchNorm.
  g.add(std::make_unique<BatchNormOp>(8, 18), {shortcut});
  EXPECT_EQ(fold_batchnorm(g), 0);
}

TEST(FuseResidual, ResNet50CollapsesTo58NodesBitwise) {
  // fold + fuse on ResNet-50/8: every bottleneck's add and ReLU fuse
  // (16 convs gain a residual, 4 of them projection shortcuts), and the
  // fused graph computes bitwise what the folded, unfused one did, in
  // fp32 and through the int8 dequantizing store alike.
  ModelOptions opts;
  opts.channel_divisor = 8;
  opts.image_size = 32;
  auto unfused = build_resnet50(1, opts);
  auto fused = build_resnet50(1, opts);
  ASSERT_EQ(fold_batchnorm(*unfused), 53);
  ASSERT_EQ(fold_batchnorm(*fused), 53);
  ASSERT_EQ(fuse_conv_relu(*fused), 65);
  ASSERT_EQ(fused->node_count(), 58);
  int residual_convs = 0;
  for (NodeId id = 1; id < fused->node_count(); ++id) {
    const std::string name = fused->op_of(id)->name();
    EXPECT_TRUE(name != "add" && name != "relu" && name != "batchnorm")
        << name;
    for (NodeId in : fused->inputs_of(id)) EXPECT_LT(in, id);
    residual_convs += fused->inputs_of(id).size() == 2;
  }
  EXPECT_EQ(residual_convs, 16);
  const Tensor in = graph_input(*fused, 19);
  EXPECT_TRUE(same_bits(fused->run(in), unfused->run(in))) << "fp32";
  quantize_convs(*unfused);
  quantize_convs(*fused);
  EXPECT_TRUE(same_bits(fused->run(in), unfused->run(in))) << "int8";
}

TEST(FuseResidual, FusedResNetBatchedEqualsSoloAndConcurrentEqualsSequential) {
  ModelOptions opts;
  opts.channel_divisor = 8;
  opts.image_size = 32;
  constexpr int kBatch = 3;
  auto solo = build_resnet50(1, opts);
  auto batched = build_resnet50(kBatch, opts);
  for (Graph* g : {solo.get(), batched.get()}) {
    fold_batchnorm(*g);
    fuse_conv_relu(*g);
  }
  ThreadPool pool(3);
  batched->set_conv_pool(&pool);
  batched->plan_concurrency();
  const Tensor in = graph_input(*batched, 20);
  GraphRunOptions seq;
  seq.runners = 1;
  const Tensor want = batched->run(in, seq);
  EXPECT_TRUE(same_bits(batched->run(in), want)) << "concurrent";
  const std::size_t per_in = in.size() / kBatch;
  const std::size_t per_out = want.size() / kBatch;
  for (int i = 0; i < kBatch; ++i) {
    Tensor img({1, 3, 32, 32}, Layout::NCHW);
    std::memcpy(img.data(), in.data() + i * per_in, per_in * sizeof(float));
    const Tensor one = solo->run(img);
    ASSERT_EQ(one.size(), per_out);
    EXPECT_EQ(std::memcmp(one.data(), want.data() + i * per_out,
                          per_out * sizeof(float)),
              0)
        << "slice " << i;
  }
}

// ----------------------------------------------------------------------
// Depthwise: BatchNorm folded, ReLU fused
// ----------------------------------------------------------------------

/// Folded dw -> bn -> relu against the unfolded chain, element by
/// element, within the fp32 rounding bound of both evaluations:
/// (R*S + 3) * 2u * (|s| * sum|x*w| + |t|) for BN scale s and shift t.
void expect_folded_depthwise_within_bound(const DepthwiseParams& p,
                                          int threads) {
  Graph g(p.N, p.C, p.H, p.W);
  const NodeId dw = g.add(std::make_unique<DepthwiseConvOp>(p, 31), {0});
  const NodeId bn = g.add(std::make_unique<BatchNormOp>(p.C, 32), {dw});
  g.add(std::make_unique<ReluOp>(), {bn});
  const auto& bn_op = *dynamic_cast<BatchNormOp*>(g.op_of(bn));
  const std::vector<float> scale = bn_op.scale(), shift = bn_op.shift();
  auto& dw_op = *dynamic_cast<DepthwiseConvOp*>(g.op_of(dw));
  const Tensor filter = dw_op.filter().clone();
  const Tensor in = graph_input(g, 33);

  ThreadPool pool(threads);
  const Tensor raw = depthwise_conv_nchw(in, filter, p, &pool);
  const Tensor unfolded =
      ReluOp().forward({&static_cast<const Tensor&>(bn_op.forward({&raw}))});

  ASSERT_EQ(fold_batchnorm(g), 1);
  ASSERT_EQ(fuse_conv_relu(g), 1);
  ASSERT_EQ(g.node_count(), 2);
  EXPECT_TRUE(dw_op.fused_relu());
  ASSERT_EQ(dw_op.bias().size(), static_cast<std::size_t>(p.C));
  ConvEpilogue epi;
  epi.bias = dw_op.bias().data();
  epi.relu = true;
  const Tensor folded = depthwise_conv_nchw(in, dw_op.filter(), p, &pool, epi);
  EXPECT_TRUE(same_bits(folded, g.run(in)));

  Tensor abs_in = in.clone(), abs_f = filter.clone();
  for (std::size_t i = 0; i < abs_in.size(); ++i) {
    abs_in[i] = std::fabs(in[i]);
  }
  for (std::size_t i = 0; i < abs_f.size(); ++i) {
    abs_f[i] = std::fabs(filter[i]);
  }
  const Tensor mag = depthwise_conv_reference(abs_in, abs_f, p);
  const double u = std::ldexp(1.0, -24);
  const std::int64_t plane = std::int64_t{p.P()} * p.Q();
  for (std::size_t i = 0; i < folded.size(); ++i) {
    const std::size_t c = static_cast<std::size_t>(
        (static_cast<std::int64_t>(i) / plane) % p.C);
    const double bound = (p.R * p.S + 3) * 2 * u *
                         (std::fabs(scale[c]) * mag[i] + std::fabs(shift[c]));
    ASSERT_LE(std::fabs(double{folded[i]} - unfolded[i]), bound)
        << "element " << i << " H" << p.H << " W" << p.W << " str" << p.str
        << " pad" << p.pad << " threads " << threads;
  }
}

TEST(FoldDepthwise, FoldedChainWithinRoundingBound) {
  for (const int threads : {1, 2, 3}) {
    for (const int str : {1, 2}) {
      for (const int pad : {0, 1}) {
        for (const int W : {9, 13, 17}) {  // ragged against the 8/4 blocks
          const DepthwiseParams p{.N = 2, .C = 5, .H = 11, .W = W, .R = 3,
                                  .S = 3, .str = str, .pad = pad};
          expect_folded_depthwise_within_bound(p, threads);
        }
      }
    }
  }
}

TEST(FoldDepthwise, MobileNetCollapsesTo31Nodes) {
  ModelOptions opts;
  opts.channel_divisor = 8;
  opts.image_size = 32;
  auto net = build_mobilenet(1, opts);
  ASSERT_EQ(net->node_count(), 85);  // 57 after the conv-only passes
  const Tensor in = graph_input(*net, 34);
  const Tensor before = net->run(in);
  EXPECT_EQ(fold_batchnorm(*net), 27);  // 14 convs + 13 depthwise convs
  EXPECT_EQ(fuse_conv_relu(*net), 27);
  EXPECT_EQ(net->node_count(), 31);
  for (NodeId id = 1; id < net->node_count(); ++id) {
    const std::string name = net->op_of(id)->name();
    EXPECT_TRUE(name != "relu" && name != "batchnorm") << name;
  }
  const Tensor after = net->run(in);
  EXPECT_TRUE(allclose(before, after, 1e-4, 1e-6))
      << compare_tensors(before, after).to_string();
}

}  // namespace
}  // namespace ndirect
