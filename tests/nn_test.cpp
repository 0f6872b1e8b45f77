// Tests for the graph executor, the operators, the model builders and
// the BN-folding optimization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "core/filter_transform.h"
#include "gemm/gemm.h"
#include "nn/models.h"
#include "nn/optimize.h"
#include "tensor/compare.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

Tensor random_input(int N, int C, int H, int W, std::uint64_t seed) {
  Tensor t = make_input_nchw(N, C, H, W);
  fill_random(t, seed);
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// One recorded run of `g`, its node rows summed into ns per op name.
std::map<std::string, std::uint64_t> op_ns(Graph& g, const Tensor& input,
                                           Tensor* out = nullptr) {
  GraphRunStats stats;
  GraphRunOptions opts;
  opts.stats = &stats;
  Tensor y = g.run(input, opts);
  if (out != nullptr) *out = std::move(y);
  std::map<std::string, std::uint64_t> ns;
  for (const NodeRun& row : stats.nodes) {
    ns[g.op_of(row.id)->name()] += row.end_ns - row.start_ns;
  }
  return ns;
}

ConvParams small_conv(int C, int K) {
  return ConvParams{.N = 1, .C = C, .H = 8, .W = 8, .K = K,
                    .R = 3, .S = 3, .str = 1, .pad = 1};
}

// ----------------------------------------------------------------------
// Individual ops
// ----------------------------------------------------------------------

TEST(Ops, ReluClampsNegatives) {
  Graph g(1, 2, 2, 2);
  g.add(std::make_unique<ReluOp>(), {0});
  Tensor in = make_input_nchw(1, 2, 2, 2);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(i) - 4.0f;
  }
  const Tensor out = g.run(in);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::max(0.0f, in[i]));
  }
}

TEST(Ops, BatchNormAppliesPerChannelAffine) {
  BatchNormOp bn(3, 7);
  Tensor in = random_input(2, 3, 4, 4, 1);
  const Tensor out = bn.forward({&in});
  for (int n = 0; n < 2; ++n)
    for (int c = 0; c < 3; ++c)
      for (int h = 0; h < 4; ++h)
        for (int w = 0; w < 4; ++w) {
          const float expect =
              bn.scale()[static_cast<std::size_t>(c)] * in.at4(n, c, h, w) +
              bn.shift()[static_cast<std::size_t>(c)];
          ASSERT_NEAR(out.at4(n, c, h, w), expect, 1e-6);
        }
}

TEST(Ops, MaxPoolKnownAnswer) {
  MaxPoolOp pool(2, 2, 0);
  Tensor in = make_input_nchw(1, 1, 4, 4);
  for (std::size_t i = 0; i < 16; ++i) in[i] = static_cast<float>(i);
  const Tensor out = pool.forward({&in});
  ASSERT_EQ(out.element_count(), 4);
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(out[1], 7.0f);
  EXPECT_EQ(out[2], 13.0f);
  EXPECT_EQ(out[3], 15.0f);
}

TEST(Ops, MaxPoolPaddingNeverWins) {
  // All-negative input with padding: zeros must NOT leak into the max.
  MaxPoolOp pool(3, 2, 1);
  Tensor in = make_input_nchw(1, 1, 4, 4);
  in.fill(-5.0f);
  const Tensor out = pool.forward({&in});
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], -5.0f);
}

// The per-tap loop MaxPoolOp ran before its interior was vectorized:
// the bitwise oracle for the split border/interior path.
Tensor maxpool_loop_oracle(const Tensor& x, int kernel, int stride, int pad) {
  const int N = static_cast<int>(x.dim(0)), C = static_cast<int>(x.dim(1));
  const int H = static_cast<int>(x.dim(2)), W = static_cast<int>(x.dim(3));
  const int P = (H + 2 * pad - kernel) / stride + 1;
  const int Q = (W + 2 * pad - kernel) / stride + 1;
  Tensor out({N, C, P, Q}, Layout::NCHW);
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          for (int r = 0; r < kernel; ++r) {
            const int ij = oj * stride + r - pad;
            if (ij < 0 || ij >= H) continue;
            for (int q = 0; q < kernel; ++q) {
              const int ii = oi * stride + q - pad;
              if (ii < 0 || ii >= W) continue;
              best = std::max(best, x.at4(n, c, ij, ii));
            }
          }
          out.at4(n, c, oj, oi) = best;
        }
  return out;
}

TEST(Ops, MaxPoolMatchesTapLoopBitwise) {
  struct Case {
    int kernel, stride, pad, H, W;
  };
  const Case cases[] = {
      {3, 2, 1, 112, 112},  // ResNet-50's stem pool
      {3, 2, 1, 13, 11},    // ragged odd sizes
      {2, 2, 0, 8, 10},     {3, 1, 1, 9, 7},   {3, 1, 0, 5, 17},
      {5, 2, 2, 12, 9},     {2, 1, 1, 6, 6},   {3, 3, 1, 10, 14},
      {3, 2, 2, 4, 5},      // pad > stride: empty-border windows stay -inf
      {1, 1, 0, 3, 5},      {4, 2, 3, 7, 6},   {3, 2, 1, 3, 1},
  };
  std::uint64_t seed = 40;
  for (const Case& k : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "k" << k.kernel << " s" << k.stride << " p" << k.pad
                 << " " << k.H << "x" << k.W);
    Tensor in = random_input(2, 3, k.H, k.W, ++seed);
    // Signed-zero ties and repeats: max is exact, so even the choice
    // between -0 and +0 must follow the tap loop.
    for (std::size_t i = 0; i < in.size(); i += 3) {
      in[i] = (i / 3) % 2 == 0 ? 0.0f : -0.0f;
    }
    for (std::size_t i = 1; i < in.size(); i += 7) in[i] = in[i / 2];
    MaxPoolOp pool(k.kernel, k.stride, k.pad);
    const Tensor got = pool.forward({&in});
    const Tensor want = maxpool_loop_oracle(in, k.kernel, k.stride, k.pad);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0);
    // A NaN tap never wins in the loop, wherever it sits in a window
    // (the first tap of an interior window included).
    for (std::size_t i = 1; i < in.size(); i += 5) {
      in[i] = std::numeric_limits<float>::quiet_NaN();
    }
    const Tensor got_nan = pool.forward({&in});
    const Tensor want_nan =
        maxpool_loop_oracle(in, k.kernel, k.stride, k.pad);
    EXPECT_EQ(std::memcmp(got_nan.data(), want_nan.data(),
                          got_nan.size() * sizeof(float)),
              0);
  }
  // An all-NaN input leaves every window empty: -inf, as in the loop.
  MaxPoolOp pool(3, 2, 1);
  Tensor nan_in = make_input_nchw(1, 1, 6, 6);
  nan_in.fill(std::numeric_limits<float>::quiet_NaN());
  const Tensor out = pool.forward({&nan_in});
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], -std::numeric_limits<float>::infinity());
  }
}

TEST(Ops, GlobalAvgPoolAverages) {
  GlobalAvgPoolOp pool;
  Tensor in = make_input_nchw(1, 2, 3, 3);
  for (std::size_t i = 0; i < 9; ++i) in[i] = 2.0f;        // channel 0
  for (std::size_t i = 9; i < 18; ++i) in[i] = -4.0f;      // channel 1
  const Tensor out = pool.forward({&in});
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], -4.0f);
}

TEST(Ops, AddIsElementwise) {
  AddOp add;
  Tensor a = random_input(1, 2, 3, 3, 2);
  Tensor b = random_input(1, 2, 3, 3, 3);
  const Tensor out = add.forward({&a, &b});
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], a[i] + b[i]);
  }
}

TEST(Ops, SoftmaxIsANormalizedDistribution) {
  SoftmaxOp sm;
  Tensor in({2, 10, 1, 1}, Layout::NCHW);
  fill_random(in, 4);
  const Tensor out = sm.forward({&in});
  for (int n = 0; n < 2; ++n) {
    double sum = 0;
    for (int i = 0; i < 10; ++i) {
      const float v = out[static_cast<std::size_t>(n * 10 + i)];
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, AddAndReluMatchTheScalarLoopsOnNanAndSignedZeros) {
  // AddOp and ReluOp write a fresh output in one vectorized pass. Fed
  // NaN, -0 and +0 in every lane position (19 elements: whole vectors
  // and a scalar tail), they must reproduce the scalar loops they
  // replaced bit for bit: d += s, and d = std::max(d, 0.0f), which keeps
  // NaN and -0.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float pool[] = {nan, -0.0f, 0.0f, -1.5f, 2.25f, -nan, -inf, inf};
  Tensor a({1, 1, 1, 19}, Layout::NCHW);
  Tensor b({1, 1, 1, 19}, Layout::NCHW);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = pool[i % 8];
    b[i] = pool[(i * 3 + 1) % 8];
  }
  const Tensor a_before = a.clone();

  Tensor add_want = a.clone();
  for (std::size_t i = 0; i < add_want.size(); ++i) add_want[i] += b[i];
  const Tensor add_got = AddOp().forward({&a, &b});
  EXPECT_TRUE(bitwise_equal(add_got, add_want));

  Tensor relu_want = a.clone();
  for (std::size_t i = 0; i < relu_want.size(); ++i) {
    relu_want[i] = std::max(relu_want[i], 0.0f);
  }
  const Tensor relu_got = ReluOp().forward({&a});
  EXPECT_TRUE(bitwise_equal(relu_got, relu_want));
  EXPECT_TRUE(std::isnan(relu_got[0]));
  EXPECT_TRUE(std::signbit(relu_got[1]));  // -0 stays -0

  // Neither op writes its input.
  EXPECT_TRUE(bitwise_equal(a, a_before));
  // Nor does softmax, whose output matches the in-place loop it had.
  Tensor logits({2, 7, 1, 1}, Layout::NCHW);
  fill_random(logits, 5);
  const Tensor logits_before = logits.clone();
  Tensor sm_want = logits.clone();
  for (int n = 0; n < 2; ++n) {
    float* d = sm_want.data() + n * 7;
    float mx = d[0];
    for (int i = 1; i < 7; ++i) mx = std::max(mx, d[i]);
    double sum = 0;
    for (int i = 0; i < 7; ++i) {
      d[i] = std::exp(d[i] - mx);
      sum += d[i];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int i = 0; i < 7; ++i) d[i] *= inv;
  }
  EXPECT_TRUE(bitwise_equal(SoftmaxOp().forward({&logits}), sm_want));
  EXPECT_TRUE(bitwise_equal(logits, logits_before));
}

TEST(Ops, FcMatchesManualDotProduct) {
  FcOp fc(6, 3, 11);
  Tensor in({1, 6, 1, 1}, Layout::NCHW);
  fill_random(in, 5);
  const Tensor out = fc.forward({&in});
  ASSERT_EQ(out.element_count(), 3);
  // Verify against an independently computed y = Wx + b using the op's
  // own deterministic construction (re-run through a second instance).
  FcOp fc2(6, 3, 11);
  const Tensor out2 = fc2.forward({&in});
  EXPECT_TRUE(allclose(out, out2, 0.0, 0.0));
}

TEST(Ops, FcMatchesReferenceGemm) {
  // Odd sizes leave row-block and 4-float tails on every path.
  for (const auto& [in_f, out_f] : {std::pair{2048, 1000}, std::pair{37, 7},
                                    std::pair{3, 5}}) {
    SCOPED_TRACE(::testing::Message() << in_f << " -> " << out_f);
    FcOp fc(in_f, out_f, 21);
    Tensor in({3, in_f, 1, 1}, Layout::NCHW);
    fill_random(in, 6);
    const Tensor out = fc.forward({&in});
    // Y^T(out x N) = W(out x in) * X^T(in x N), then + bias.
    Tensor xt = make_matrix(in_f, 3);
    for (int n = 0; n < 3; ++n)
      for (int i = 0; i < in_f; ++i)
        xt[static_cast<std::size_t>(i) * 3 + n] =
            in[static_cast<std::size_t>(n) * in_f + i];
    Tensor yt = make_matrix(out_f, 3);
    sgemm_reference(out_f, 3, in_f, fc.weights().data(), in_f, xt.data(), 3,
                    yt.data(), 3);
    for (int n = 0; n < 3; ++n)
      for (int o = 0; o < out_f; ++o) {
        const float want = yt[static_cast<std::size_t>(o) * 3 + n] +
                           fc.bias()[static_cast<std::size_t>(o)];
        ASSERT_NEAR(out[static_cast<std::size_t>(n) * out_f + o], want,
                    1e-4 * (1.0 + std::fabs(want)))
            << "n=" << n << " o=" << o;
      }
  }
}

TEST(Ops, FcBatchEqualsSoloBitwise) {
  // Serving batches requests: a sample's logits must not depend on the
  // batch it rides in.
  constexpr int kIn = 517, kOut = 1001, kN = 8;
  FcOp fc(kIn, kOut, 9);
  Tensor batch({kN, kIn, 1, 1}, Layout::NCHW);
  fill_random(batch, 12);
  const Tensor all = fc.forward({&batch});
  for (int n = 0; n < kN; ++n) {
    Tensor one({1, kIn, 1, 1}, Layout::NCHW);
    std::memcpy(one.data(), batch.data() + std::int64_t{n} * kIn,
                sizeof(float) * kIn);
    const Tensor solo = fc.forward({&one});
    EXPECT_EQ(std::memcmp(solo.data(), all.data() + std::int64_t{n} * kOut,
                          sizeof(float) * kOut),
              0)
        << "sample " << n;
  }
}

TEST(Ops, ShapeMismatchesThrow) {
  Graph g(1, 3, 8, 8);
  const ConvParams wrong{.N = 1, .C = 4, .H = 8, .W = 8, .K = 8,
                         .R = 3, .S = 3, .str = 1, .pad = 1};
  EXPECT_THROW(g.add(std::make_unique<ConvOp>(wrong, ConvBackend::Naive,
                                              1, false),
                     {0}),
               std::invalid_argument);
  EXPECT_THROW(g.add(std::make_unique<AddOp>(), {0}),
               std::invalid_argument);  // wrong arity
}

TEST(Ops, ConvRepacksAfterRetainedFilterMutation) {
  // A Tensor& taken from filter() before a forward and mutated in place
  // after it bypasses the dirty flag. The op's content fingerprint must
  // still repack, on the fp32 and on the int8 path: the result matches
  // a fresh op built on the mutated weights, bit for bit.
  const ConvParams p{.N = 1, .C = 8, .H = 10, .W = 10, .K = 12,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const Tensor x = random_input(1, 8, 10, 10, 41);
  for (const bool quantized : {false, true}) {
    SCOPED_TRACE(quantized ? "int8" : "fp32");
    ConvOp op(p, ConvBackend::Ndirect, 42, false);
    op.set_quantized(quantized);
    Tensor& f = op.filter();
    (void)op.forward({&x});  // packs the original weights
    for (std::size_t i = 0; i < f.size(); ++i) f[i] = 0.25f - f[i];
    const Tensor got = op.forward({&x});

    ConvOp fresh(p, ConvBackend::Ndirect, 42, false);
    fresh.set_quantized(quantized);
    std::memcpy(fresh.filter().data(), f.data(), f.size() * sizeof(float));
    EXPECT_TRUE(bitwise_equal(got, fresh.forward({&x})));
  }
}

TEST(Ops, ConvPackedWeightsSurviveEngineReplans) {
  // set_worker_budget, set_pool and set_telemetry re-plan the engine but
  // leave the weights alone, so none of them may repack the filter, and
  // the output stays bitwise the same (any grid gives the same result).
  const ConvParams p{.N = 1, .C = 8, .H = 10, .W = 10, .K = 12,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const Tensor x = random_input(1, 8, 10, 10, 43);
  ConvOp op(p, ConvBackend::Ndirect, 44, true);
  const Tensor warm = op.forward({&x});
  const std::uint64_t transforms = transform_filter_tile_calls();

  ThreadPool pool(2);
  TelemetrySnapshot sink;
  op.set_worker_budget(1, 1);
  op.set_pool(&pool);
  op.set_telemetry(&sink);
  const Tensor after = op.forward({&x});
  EXPECT_EQ(transform_filter_tile_calls(), transforms)
      << "an engine re-plan must not repack the weights";
  EXPECT_TRUE(bitwise_equal(warm, after));
}

// ----------------------------------------------------------------------
// Conv backends agree end-to-end
// ----------------------------------------------------------------------

TEST(ConvBackends, AllBackendsAgreeOnASmallNet) {
  ModelOptions base;
  base.channel_divisor = 16;
  base.image_size = 32;
  base.backend = ConvBackend::Naive;
  auto reference_net = build_resnet50(1, base);
  const Tensor input = random_input(1, 3, 32, 32, 9);
  const Tensor ref = reference_net->run(input);

  for (ConvBackend backend : {ConvBackend::Ndirect, ConvBackend::Im2colGemm,
                              ConvBackend::Tuned}) {
    ModelOptions opts = base;
    opts.backend = backend;
    auto net = build_resnet50(1, opts);
    const Tensor out = net->run(input);
    EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-3))
        << conv_backend_name(backend) << " "
        << compare_tensors(out, ref).to_string();
  }
}

TEST(ConvBackends, BackendSwapInPlaceKeepsWeights) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  opts.backend = ConvBackend::Ndirect;
  auto net = build_vgg16(1, opts);
  const Tensor input = random_input(1, 3, 32, 32, 10);
  const Tensor out_nd = net->run(input);
  for (ConvOp* conv : net->conv_ops()) {
    conv->set_backend(ConvBackend::Im2colGemm);
  }
  const Tensor out_gemm = net->run(input);
  EXPECT_TRUE(allclose(out_nd, out_gemm, 1e-3, 1e-3));
}

// ----------------------------------------------------------------------
// Model builders
// ----------------------------------------------------------------------

TEST(Models, ResNet50TopologyAtFullScale) {
  ModelOptions opts;
  opts.backend = ConvBackend::Naive;  // never run, just built
  auto net = build_resnet50(1, opts);
  // 1 stem + 3*3 + (3+4+6+3 first blocks have 1 extra projection) + ...
  // ResNet-50 has 53 convolutions (49 in blocks + 4 projections counted).
  EXPECT_EQ(net->conv_ops().size(), 53u);
  const TensorShape out = net->output_shape();
  EXPECT_EQ(out.C, 1000);
  EXPECT_EQ(out.H, 1);
  // Conv flops of ResNet-50 at batch 1 are ~3.8 GFLOP x 2 (MACs*2 ~ 7.7e9).
  EXPECT_NEAR(static_cast<double>(net->conv_flops()), 7.7e9, 1.0e9);
}

TEST(Models, ResNet101HasMoreBlocks) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net50 = build_resnet50(1, opts);
  auto net101 = build_resnet101(1, opts);
  EXPECT_EQ(net101->conv_ops().size(), 104u);  // 3+4+23+3 blocks
  EXPECT_GT(net101->node_count(), net50->node_count());
}

TEST(Models, Vgg16And19ConvCounts) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  EXPECT_EQ(build_vgg16(1, opts)->conv_ops().size(), 13u);
  EXPECT_EQ(build_vgg19(1, opts)->conv_ops().size(), 16u);
}

TEST(Models, MobileNetUsesDepthwiseSeparableBlocks) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 64;
  auto net = build_mobilenet(1, opts);
  // 1 stem conv + 13 pointwise convs; the depthwise ops show up in the
  // per-node record.
  EXPECT_EQ(net->conv_ops().size(), 14u);
  Tensor out;
  const auto ns = op_ns(*net, random_input(1, 3, 64, 64, 14), &out);
  EXPECT_GT(ns.at("dwconv"), 0u);
  EXPECT_EQ(net->output_shape().C, 1000);
  // Output is a softmax distribution.
  double sum = 0;
  for (int c = 0; c < 1000; ++c) sum += out[static_cast<std::size_t>(c)];
  EXPECT_NEAR(sum, 1.0, 1e-4);
}

TEST(Models, MobileNetBackendsAgree) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  opts.backend = ConvBackend::Naive;
  auto ref_net = build_mobilenet(1, opts);
  const Tensor input = random_input(1, 3, 32, 32, 15);
  const Tensor ref = ref_net->run(input);
  opts.backend = ConvBackend::Ndirect;
  auto nd_net = build_mobilenet(1, opts);
  const Tensor out = nd_net->run(input);
  EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-3));
}

TEST(Models, BuildByName) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  for (const char* name :
       {"ResNet-50", "ResNet-101", "VGG-16", "VGG-19", "MobileNet"}) {
    auto net = build_model(name, 1, opts);
    EXPECT_EQ(net->output_shape().C, 1000) << name;
  }
  EXPECT_THROW(build_model("AlexNet", 1, opts), std::invalid_argument);
}

TEST(Models, NodeRecordAccountsConvTime) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  const auto ns = op_ns(*net, random_input(1, 3, 32, 32, 11));
  EXPECT_GT(ns.at("conv"), 0u);
  EXPECT_GT(ns.at("relu"), 0u);
  EXPECT_GT(ns.at("batchnorm"), 0u);
}

// ----------------------------------------------------------------------
// Graph editing
// ----------------------------------------------------------------------

TEST(GraphEdit, RemoveRejectsNodesItCannotBypass) {
  Graph g(1, 4, 8, 8);
  const NodeId r = g.add(std::make_unique<ReluOp>(), {0});
  const NodeId sum = g.add(std::make_unique<AddOp>(), {0, r});
  g.add(std::make_unique<MaxPoolOp>(2, 2, 0), {sum});
  EXPECT_THROW(g.remove(0), std::invalid_argument);    // the input
  EXPECT_THROW(g.remove(sum), std::invalid_argument);  // two inputs
  EXPECT_THROW(g.remove(3), std::invalid_argument);    // shape change
  EXPECT_THROW(g.remove(4), std::invalid_argument);    // no such node
  EXPECT_EQ(g.node_count(), 4);
  // The ReLU can go: the add then reads the input twice.
  g.remove(r);
  EXPECT_EQ(g.inputs_of(1), (std::vector<NodeId>{0, 0}));
  EXPECT_EQ(g.consumers_of(0), (std::vector<NodeId>{1, 1}));
  EXPECT_EQ(g.consumers_of(1), std::vector<NodeId>{2});
}

TEST(GraphEdit, TwoInputNodeIsBypassedOnlyThroughTheInputThatAbsorbedIt) {
  // conv(x) + x: the add can go only once the conv took x as its own
  // (residual) input; its consumers then read the conv.
  Graph g(1, 4, 8, 8);
  const NodeId c = g.add(
      std::make_unique<ConvOp>(small_conv(4, 4), ConvBackend::Ndirect, 3,
                               false),
      {0});
  const NodeId sum = g.add(std::make_unique<AddOp>(), {0, c});
  g.add(std::make_unique<ReluOp>(), {sum});
  // The later input does not read the earlier one as an extra input.
  EXPECT_THROW(g.remove(sum), std::invalid_argument);
  // add_input: only an earlier node, only a shape the op accepts.
  EXPECT_THROW(g.add_input(c, c), std::invalid_argument);
  EXPECT_THROW(g.add_input(c, sum), std::invalid_argument);
  EXPECT_THROW(g.add_input(sum, 0), std::invalid_argument);  // 3 inputs
  EXPECT_EQ(g.inputs_of(c), std::vector<NodeId>{0});

  g.add_input(c, 0);
  EXPECT_EQ(g.inputs_of(c), (std::vector<NodeId>{0, 0}));
  EXPECT_EQ(g.consumers_of(0), (std::vector<NodeId>{c, c, sum}));
  g.remove(sum);
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.consumers_of(0), (std::vector<NodeId>{c, c}));
  EXPECT_EQ(g.consumers_of(c), std::vector<NodeId>{2});
  EXPECT_EQ(g.inputs_of(2), std::vector<NodeId>{c});
}

TEST(GraphEdit, GraphWithoutOpsReturnsACopy) {
  Graph g(1, 2, 3, 3);
  const Tensor input = random_input(1, 2, 3, 3, 24);
  const Tensor out = g.run(input);
  EXPECT_TRUE(bitwise_equal(input, out));
  EXPECT_NE(out.data(), input.data());
  // The same holds once the only op is removed again.
  g.add(std::make_unique<ReluOp>(), {0});
  g.remove(1);
  const Tensor again = g.run(input);
  EXPECT_TRUE(bitwise_equal(input, again));
  EXPECT_NE(again.data(), input.data());
}

// ----------------------------------------------------------------------
// BatchNorm folding (the fusion extension)
// ----------------------------------------------------------------------

TEST(FoldBatchNorm, PreservesResNetOutputs) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  const Tensor input = random_input(1, 3, 32, 32, 12);
  const Tensor before = net->run(input);
  const int folded = fold_batchnorm(*net);
  EXPECT_EQ(folded, 53);  // every conv in ResNet-50 is followed by BN
  const Tensor after = net->run(input);
  EXPECT_TRUE(allclose(before, after, 1e-3, 1e-3))
      << compare_tensors(before, after).to_string();
}

TEST(FoldBatchNorm, FoldingSpeedsUpOrMatchesNodeWork) {
  // After folding, the BatchNorm nodes are gone: a recorded run times
  // convs and no batchnorm, and nothing in their place.
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  const int nodes = net->node_count();
  const int folded = fold_batchnorm(*net);
  EXPECT_EQ(net->node_count(), nodes - folded);
  const auto ns = op_ns(*net, random_input(1, 3, 32, 32, 13));
  EXPECT_EQ(ns.count("batchnorm"), 0u);
  EXPECT_GT(ns.at("conv"), 0u);
  for (NodeId id = 1; id < net->node_count(); ++id) {
    EXPECT_STRNE(net->op_of(id)->name(), "batchnorm");
  }
}

TEST(FoldBatchNorm, FoldedOutputNodeKeepsTheOutput) {
  // conv -> bn, the BN being the graph's output: the conv becomes the
  // output node.
  Graph g(1, 4, 8, 8);
  const NodeId c = g.add(
      std::make_unique<ConvOp>(small_conv(4, 6), ConvBackend::Ndirect, 3,
                               true),
      {0});
  g.add(std::make_unique<BatchNormOp>(6, 4), {c});
  const Tensor input = random_input(1, 4, 8, 8, 21);
  const Tensor before = g.run(input);
  ASSERT_EQ(fold_batchnorm(g), 1);
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_TRUE(g.consumers_of(c).empty());
  EXPECT_EQ(g.output_shape(), (TensorShape{1, 6, 8, 8}));
  const Tensor after = g.run(input);
  EXPECT_TRUE(allclose(before, after))
      << compare_tensors(before, after).to_string();
}

TEST(FoldBatchNorm, FoldsBatchNormWithTwoConsumers) {
  // conv -> bn, and the BN feeds both a conv branch and the residual
  // add: both consumers must read the folded conv afterwards.
  Graph g(1, 4, 8, 8);
  const NodeId c = g.add(
      std::make_unique<ConvOp>(small_conv(4, 4), ConvBackend::Ndirect, 5,
                               false),
      {0});
  const NodeId bn = g.add(std::make_unique<BatchNormOp>(4, 6), {c});
  const NodeId branch = g.add(
      std::make_unique<ConvOp>(small_conv(4, 4), ConvBackend::Ndirect, 7,
                               false),
      {bn});
  g.add(std::make_unique<AddOp>(), {bn, branch});
  const Tensor input = random_input(1, 4, 8, 8, 22);
  const Tensor before = g.run(input);
  ASSERT_EQ(fold_batchnorm(g), 1);
  ASSERT_EQ(g.node_count(), 4);
  // Ids after the BN moved down one: the branch conv is 2, the add 3.
  EXPECT_EQ(g.inputs_of(2), std::vector<NodeId>{c});
  EXPECT_EQ(g.inputs_of(3), (std::vector<NodeId>{c, 2}));
  EXPECT_EQ(g.consumers_of(c), (std::vector<NodeId>{2, 3}));
  const Tensor after = g.run(input);
  EXPECT_TRUE(allclose(before, after))
      << compare_tensors(before, after).to_string();
}

TEST(FoldBatchNorm, SkipsConvWithFusedRelu) {
  // relu(s*x+t) is not s*relu(x)+t: a conv whose ReLU is already fused
  // must not absorb a BatchNorm that follows it.
  const Tensor input = random_input(1, 4, 8, 8, 23);
  // Route 1: the fused flag set by hand on conv -> bn.
  {
    Graph g(1, 4, 8, 8);
    auto conv = std::make_unique<ConvOp>(small_conv(4, 6),
                                         ConvBackend::Ndirect, 8, true);
    conv->set_fused_relu(true);
    const NodeId c = g.add(std::move(conv), {0});
    g.add(std::make_unique<BatchNormOp>(6, 9), {c});
    const Tensor before = g.run(input);
    EXPECT_EQ(fold_batchnorm(g), 0);
    EXPECT_EQ(g.node_count(), 3);
    EXPECT_TRUE(bitwise_equal(before, g.run(input)));
  }
  // Route 2: fuse_conv_relu on conv -> relu -> bn removes the ReLU, so
  // the BN's input becomes the fused conv.
  {
    Graph g(1, 4, 8, 8);
    const NodeId c = g.add(
        std::make_unique<ConvOp>(small_conv(4, 6), ConvBackend::Ndirect, 8,
                                 true),
        {0});
    const NodeId r = g.add(std::make_unique<ReluOp>(), {c});
    g.add(std::make_unique<BatchNormOp>(6, 9), {r});
    const Tensor before = g.run(input);
    EXPECT_EQ(fuse_conv_relu(g), 1);
    EXPECT_EQ(fold_batchnorm(g), 0);
    EXPECT_EQ(g.node_count(), 3);
    const Tensor after = g.run(input);
    EXPECT_TRUE(allclose(before, after))
        << compare_tensors(before, after).to_string();
  }
}

TEST(FoldBatchNorm, VggHasNothingToFold) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_vgg16(1, opts);
  EXPECT_EQ(fold_batchnorm(*net), 0);
}

}  // namespace
}  // namespace ndirect
