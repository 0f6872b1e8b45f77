// Tests for the Section 10.2 extensions: depthwise / depthwise-separable
// convolution and 3D convolution.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/conv3d.h"
#include "core/grouped.h"
#include "core/depthwise.h"
#include "core/ndirect.h"
#include "tensor/compare.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

// ----------------------------------------------------------------------
// Depthwise
// ----------------------------------------------------------------------

struct DwCase {
  DepthwiseParams p;
};

std::vector<DepthwiseParams> depthwise_shapes() {
  return {
      {.N = 1, .C = 4, .H = 8, .W = 8, .R = 3, .S = 3, .str = 1, .pad = 1},
      {.N = 2, .C = 3, .H = 9, .W = 11, .R = 3, .S = 3, .str = 1, .pad = 0},
      {.N = 1, .C = 8, .H = 14, .W = 14, .R = 3, .S = 3, .str = 2, .pad = 1},
      {.N = 1, .C = 5, .H = 12, .W = 12, .R = 5, .S = 5, .str = 1, .pad = 2},
      {.N = 1, .C = 2, .H = 7, .W = 31, .R = 3, .S = 3, .str = 1, .pad = 1},
      {.N = 1, .C = 16, .H = 4, .W = 4, .R = 3, .S = 3, .str = 1, .pad = 1},
      // MobileNet-style layers
      {.N = 1, .C = 32, .H = 28, .W = 28, .R = 3, .S = 3, .str = 1, .pad = 1},
      {.N = 1, .C = 32, .H = 28, .W = 28, .R = 3, .S = 3, .str = 2, .pad = 1},
  };
}

class DepthwiseSweep
    : public ::testing::TestWithParam<DepthwiseParams> {};

TEST_P(DepthwiseSweep, MatchesReference) {
  const DepthwiseParams p = GetParam();
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.C, 1, p.R, p.S);
  fill_random(in, 61);
  fill_random(f, 62);
  const Tensor ref = depthwise_conv_reference(in, f, p);
  const Tensor out = depthwise_conv_nchw(in, f, p);
  EXPECT_TRUE(allclose(out, ref))
      << compare_tensors(out, ref).to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DepthwiseSweep, ::testing::ValuesIn(depthwise_shapes()),
    [](const auto& info) {
      const DepthwiseParams& p = info.param;
      return "N" + std::to_string(p.N) + "C" + std::to_string(p.C) + "H" +
             std::to_string(p.H) + "W" + std::to_string(p.W) + "R" +
             std::to_string(p.R) + "s" + std::to_string(p.str) + "p" +
             std::to_string(p.pad);
    });

TEST(Depthwise, IdentityFilterCopiesCenter) {
  // 3x3 filter with a single 1 in the middle = identity (pad 1).
  const DepthwiseParams p{.N = 1, .C = 2, .H = 5, .W = 5,
                          .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(1, 2, 5, 5);
  fill_pattern(in);
  Tensor f = make_filter_kcrs(2, 1, 3, 3);
  f.fill_zero();
  f.at4(0, 0, 1, 1) = 1.0f;
  f.at4(1, 0, 1, 1) = 1.0f;
  const Tensor out = depthwise_conv_nchw(in, f, p);
  EXPECT_TRUE(allclose(out, in, 0.0, 0.0));
}

TEST(Depthwise, ChannelsDoNotMix) {
  // Zeroing one channel's filter zeroes exactly that output channel.
  const DepthwiseParams p{.N = 1, .C = 3, .H = 6, .W = 6,
                          .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(1, 3, 6, 6);
  in.fill(1.0f);
  Tensor f = make_filter_kcrs(3, 1, 3, 3);
  f.fill(1.0f);
  for (int r = 0; r < 3; ++r)
    for (int s = 0; s < 3; ++s) f.at4(1, 0, r, s) = 0.0f;
  const Tensor out = depthwise_conv_nchw(in, f, p);
  for (int h = 0; h < 6; ++h)
    for (int w = 0; w < 6; ++w) {
      EXPECT_EQ(out.at4(0, 1, h, w), 0.0f);
      EXPECT_GT(out.at4(0, 0, h, w), 0.0f);
    }
}

TEST(Depthwise, MultiThreadedMatchesSingle) {
  const DepthwiseParams p{.N = 2, .C = 12, .H = 10, .W = 10,
                          .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.C, 1, p.R, p.S);
  fill_random(in, 63);
  fill_random(f, 64);
  ThreadPool single(1);
  const Tensor a = depthwise_conv_nchw(in, f, p, &single);
  // Ragged worker counts leave exhausted workers stealing planes.
  for (const int threads : {2, 3, 4, 7}) {
    ThreadPool multi(static_cast<std::size_t>(threads));
    const Tensor b = depthwise_conv_nchw(in, f, p, &multi);
    EXPECT_TRUE(allclose(a, b, 0.0, 0.0)) << threads << " threads";
  }
}

TEST(SeparableConv, EqualsDepthwiseThenPointwiseReference) {
  const DepthwiseParams dw{.N = 1, .C = 8, .H = 10, .W = 10,
                           .R = 3, .S = 3, .str = 1, .pad = 1};
  const int K = 12;
  Tensor in = make_input_nchw(dw.N, dw.C, dw.H, dw.W);
  Tensor dwf = make_filter_kcrs(dw.C, 1, dw.R, dw.S);
  Tensor pwf = make_filter_kcrs(K, dw.C, 1, 1);
  fill_random(in, 65);
  fill_random(dwf, 66);
  fill_random(pwf, 67);

  const Tensor out = separable_conv_nchw(in, dwf, pwf, dw, K);

  // Reference: depthwise reference followed by a naive 1x1 convolution.
  const Tensor mid = depthwise_conv_reference(in, dwf, dw);
  const ConvParams pw{.N = dw.N, .C = dw.C, .H = dw.P(), .W = dw.Q(),
                      .K = K, .R = 1, .S = 1, .str = 1, .pad = 0};
  Tensor ref = make_output_nchw(pw.N, K, pw.P(), pw.Q());
  for (int n = 0; n < pw.N; ++n)
    for (int k = 0; k < K; ++k)
      for (int h = 0; h < pw.P(); ++h)
        for (int w = 0; w < pw.Q(); ++w) {
          double sum = 0;
          for (int c = 0; c < pw.C; ++c) {
            sum += static_cast<double>(mid.at4(n, c, h, w)) *
                   static_cast<double>(pwf.at4(k, c, 0, 0));
          }
          ref.at4(n, k, h, w) = static_cast<float>(sum);
        }
  EXPECT_TRUE(allclose(out, ref))
      << compare_tensors(out, ref).to_string();
}

// ----------------------------------------------------------------------
// 3D convolution
// ----------------------------------------------------------------------

std::vector<Conv3dParams> conv3d_shapes() {
  return {
      {.N = 1, .C = 2, .D = 4, .H = 6, .W = 6, .K = 3,
       .T = 3, .R = 3, .S = 3, .str = 1, .pad = 1, .pad_d = 1},
      {.N = 1, .C = 3, .D = 5, .H = 8, .W = 8, .K = 4,
       .T = 3, .R = 3, .S = 3, .str = 1, .pad = 0, .pad_d = 0},
      {.N = 2, .C = 2, .D = 6, .H = 8, .W = 8, .K = 2,
       .T = 3, .R = 3, .S = 3, .str = 2, .pad = 1, .pad_d = 1},
      {.N = 1, .C = 4, .D = 3, .H = 5, .W = 9, .K = 5,
       .T = 1, .R = 1, .S = 1, .str = 1, .pad = 0, .pad_d = 0},
      {.N = 1, .C = 2, .D = 7, .H = 6, .W = 6, .K = 3,
       .T = 5, .R = 3, .S = 3, .str = 1, .pad = 1, .pad_d = 2},
  };
}

class Conv3dSweep : public ::testing::TestWithParam<Conv3dParams> {};

TEST_P(Conv3dSweep, MatchesReference) {
  const Conv3dParams p = GetParam();
  Tensor in({p.N, p.C, p.D, p.H, p.W}, Layout::Linear);
  Tensor f({p.K, p.C, p.T, p.R, p.S}, Layout::Linear);
  fill_random(in, 71);
  fill_random(f, 72);
  const Tensor ref = conv3d_reference(in, f, p);
  const Tensor out = conv3d_ndirect(in, f, p);
  EXPECT_TRUE(allclose(out, ref))
      << compare_tensors(out, ref).to_string();
}

INSTANTIATE_TEST_SUITE_P(Shapes, Conv3dSweep,
                         ::testing::ValuesIn(conv3d_shapes()),
                         [](const auto& info) {
                           return "case" + std::to_string(info.index);
                         });

TEST(Conv3d, DegeneratesTo2dWhenDepthIsOne) {
  // D=1, T=1: conv3d must equal a plain 2D nDirect convolution.
  const Conv3dParams p3{.N = 1, .C = 4, .D = 1, .H = 8, .W = 8, .K = 6,
                        .T = 1, .R = 3, .S = 3, .str = 1, .pad = 1,
                        .pad_d = 0};
  Tensor in3({1, 4, 1, 8, 8}, Layout::Linear);
  Tensor f3({6, 4, 1, 3, 3}, Layout::Linear);
  fill_random(in3, 73);
  fill_random(f3, 74);
  const Tensor out3 = conv3d_ndirect(in3, f3, p3);

  const ConvParams p2{.N = 1, .C = 4, .H = 8, .W = 8, .K = 6,
                      .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in2 = make_input_nchw(1, 4, 8, 8);
  Tensor f2 = make_filter_kcrs(6, 4, 3, 3);
  std::memcpy(in2.data(), in3.data(), sizeof(float) * in2.size());
  std::memcpy(f2.data(), f3.data(), sizeof(float) * f2.size());
  const Tensor out2 = ndirect_conv(in2, f2, p2);

  ASSERT_EQ(out3.size(), out2.size());
  for (std::size_t i = 0; i < out2.size(); ++i) {
    ASSERT_NEAR(out3[i], out2[i], 1e-4);
  }
}

TEST(Conv3d, FlopCountConsistent) {
  const Conv3dParams p{.N = 2, .C = 3, .D = 4, .H = 5, .W = 6, .K = 7,
                       .T = 3, .R = 3, .S = 3, .str = 1, .pad = 1,
                       .pad_d = 1};
  EXPECT_EQ(p.flops(),
            2LL * 2 * 7 * p.Dout() * p.P() * p.Q() * 3 * 3 * 3 * 3);
  EXPECT_EQ(p.Dout(), 4);
}

// ----------------------------------------------------------------------
// Grouped convolution
// ----------------------------------------------------------------------

struct GroupedCase {
  ConvParams p;
  int groups;
};

std::vector<GroupedCase> grouped_shapes() {
  return {
      {{.N = 1, .C = 8, .H = 8, .W = 8, .K = 8, .R = 3, .S = 3, .str = 1, .pad = 1}, 2},
      {{.N = 2, .C = 12, .H = 10, .W = 10, .K = 24, .R = 3, .S = 3, .str = 1, .pad = 1}, 4},
      {{.N = 1, .C = 16, .H = 14, .W = 14, .K = 32, .R = 1, .S = 1, .str = 1, .pad = 0}, 8},
      {{.N = 1, .C = 18, .H = 9, .W = 9, .K = 6, .R = 3, .S = 3, .str = 2, .pad = 1}, 3},
      // ResNeXt-style: 32 groups
      {{.N = 1, .C = 64, .H = 7, .W = 7, .K = 64, .R = 3, .S = 3, .str = 1, .pad = 1}, 32},
  };
}

class GroupedSweep : public ::testing::TestWithParam<GroupedCase> {};

TEST_P(GroupedSweep, MatchesReference) {
  const auto& [p, groups] = GetParam();
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C / groups, p.R, p.S);
  fill_random(in, 201);
  fill_random(f, 202);
  const Tensor ref = grouped_conv_reference(in, f, p, groups);
  const Tensor out = grouped_conv_nchw(in, f, p, groups);
  EXPECT_TRUE(allclose(out, ref))
      << compare_tensors(out, ref).to_string();
}

INSTANTIATE_TEST_SUITE_P(Shapes, GroupedSweep,
                         ::testing::ValuesIn(grouped_shapes()),
                         [](const auto& info) {
                           return "g" + std::to_string(info.param.groups) +
                                  "_case" + std::to_string(info.index);
                         });

TEST(GroupedConv, OneGroupEqualsStandardConv) {
  const ConvParams p{.N = 1, .C = 8, .H = 10, .W = 10, .K = 12,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, 203);
  fill_random(f, 204);
  const Tensor grouped = grouped_conv_nchw(in, f, p, 1);
  const Tensor standard = ndirect_conv(in, f, p);
  EXPECT_TRUE(allclose(grouped, standard, 0.0, 0.0));
}

TEST(GroupedConv, FullGroupsEqualsDepthwise) {
  // groups == C == K degenerates to depthwise convolution.
  const DepthwiseParams dw{.N = 1, .C = 6, .H = 9, .W = 9,
                           .R = 3, .S = 3, .str = 1, .pad = 1};
  const ConvParams p{.N = 1, .C = 6, .H = 9, .W = 9, .K = 6,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(1, 6, 9, 9);
  Tensor f = make_filter_kcrs(6, 1, 3, 3);
  fill_random(in, 205);
  fill_random(f, 206);
  const Tensor grouped = grouped_conv_nchw(in, f, p, 6);
  const Tensor depthwise = depthwise_conv_nchw(in, f, dw);
  EXPECT_TRUE(allclose(grouped, depthwise));
}

TEST(GroupedConv, MalformedGroupsThrow) {
  const ConvParams p{.N = 1, .C = 8, .H = 8, .W = 8, .K = 8,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(1, 8, 8, 8);
  Tensor f4 = make_filter_kcrs(8, 4, 3, 3);
  in.fill_zero();
  f4.fill_zero();
  // 3 does not divide C=8.
  EXPECT_THROW((void)grouped_conv_nchw(in, f4, p, 3),
               std::invalid_argument);
  // Filter C-dim mismatch for groups=4 (needs C/groups = 2).
  EXPECT_THROW((void)grouped_conv_nchw(in, f4, p, 4),
               std::invalid_argument);
  // groups=2 with matching [8, 4, 3, 3] filter is fine.
  EXPECT_NO_THROW((void)grouped_conv_nchw(in, f4, p, 2));
}

TEST(Depthwise, MalformedInputThrows) {
  const DepthwiseParams p{.N = 1, .C = 4, .H = 8, .W = 8,
                          .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(1, 4, 8, 8);
  Tensor f = make_filter_kcrs(4, 1, 3, 3);
  in.fill_zero();
  f.fill_zero();
  // Input one channel short: the kernel would read past the tensor.
  Tensor short_in = make_input_nchw(1, 3, 8, 8);
  short_in.fill_zero();
  EXPECT_THROW((void)depthwise_conv_nchw(short_in, f, p),
               std::invalid_argument);
  // Spatially smaller input than the params claim.
  Tensor small_in = make_input_nchw(1, 4, 6, 8);
  small_in.fill_zero();
  EXPECT_THROW((void)depthwise_conv_nchw(small_in, f, p),
               std::invalid_argument);
  // Filter not [C, 1, R, S].
  Tensor wide_f = make_filter_kcrs(4, 2, 3, 3);
  wide_f.fill_zero();
  EXPECT_THROW((void)depthwise_conv_nchw(in, wide_f, p),
               std::invalid_argument);
  // Invalid parameters (kernel larger than the padded input).
  DepthwiseParams bad = p;
  bad.R = 11;
  EXPECT_THROW((void)depthwise_conv_nchw(in, f, bad),
               std::invalid_argument);
  EXPECT_NO_THROW((void)depthwise_conv_nchw(in, f, p));
}

TEST(SeparableConv, MalformedPointwiseFilterThrows) {
  const DepthwiseParams dw{.N = 1, .C = 4, .H = 6, .W = 6,
                           .R = 3, .S = 3, .str = 1, .pad = 1};
  Tensor in = make_input_nchw(1, 4, 6, 6);
  Tensor dwf = make_filter_kcrs(4, 1, 3, 3);
  Tensor pwf = make_filter_kcrs(8, 4, 1, 1);
  in.fill_zero();
  dwf.fill_zero();
  pwf.fill_zero();
  // K disagrees with the pointwise filter.
  EXPECT_THROW((void)separable_conv_nchw(in, dwf, pwf, dw, 6),
               std::invalid_argument);
  // Pointwise filter with the wrong channel count.
  Tensor pw_c = make_filter_kcrs(8, 5, 1, 1);
  pw_c.fill_zero();
  EXPECT_THROW((void)separable_conv_nchw(in, dwf, pw_c, dw, 8),
               std::invalid_argument);
  // Not a 1x1 filter.
  Tensor pw_3x3 = make_filter_kcrs(8, 4, 3, 3);
  pw_3x3.fill_zero();
  EXPECT_THROW((void)separable_conv_nchw(in, dwf, pw_3x3, dw, 8),
               std::invalid_argument);
  EXPECT_NO_THROW((void)separable_conv_nchw(in, dwf, pwf, dw, 8));
}

TEST(Conv3d, MalformedShapesThrow) {
  const Conv3dParams p{.N = 1, .C = 2, .D = 3, .H = 5, .W = 5, .K = 2,
                       .T = 3, .R = 3, .S = 3, .str = 1, .pad = 1,
                       .pad_d = 1};
  Tensor in({1, 2, 3, 5, 5}, Layout::Linear);
  Tensor f({2, 2, 3, 3, 3}, Layout::Linear);
  in.fill_zero();
  f.fill_zero();
  Tensor short_in({1, 2, 2, 5, 5}, Layout::Linear);
  short_in.fill_zero();
  EXPECT_THROW((void)conv3d_ndirect(short_in, f, p),
               std::invalid_argument);
  Tensor rank4 = make_input_nchw(1, 2, 5, 5);
  rank4.fill_zero();
  EXPECT_THROW((void)conv3d_ndirect(rank4, f, p), std::invalid_argument);
  Tensor thin_f({2, 2, 1, 3, 3}, Layout::Linear);
  thin_f.fill_zero();
  EXPECT_THROW((void)conv3d_ndirect(in, thin_f, p), std::invalid_argument);
  Conv3dParams bad = p;
  bad.str = 0;
  EXPECT_THROW((void)conv3d_ndirect(in, f, bad), std::invalid_argument);
  EXPECT_NO_THROW((void)conv3d_ndirect(in, f, p));
}

TEST(GroupedConv, OutputIsIndependentOfThreadCount) {
  // Enough (image, group) pairs to take the one-tile-per-pair path at
  // every pool size; the ragged 3- and 7-worker seeds leave exhausted
  // workers stealing pairs. Pairs write disjoint outputs, so the result
  // must be bitwise identical to the single-thread run.
  const ConvParams p{.N = 2, .C = 24, .H = 9, .W = 11, .K = 30,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const int groups = 6;
  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C / groups, p.R, p.S);
  fill_random(in, 207);
  fill_random(f, 208);
  ThreadPool single(1);
  NdirectOptions opts;
  opts.pool = &single;
  const Tensor want = grouped_conv_nchw(in, f, p, groups, opts);
  for (const int threads : {2, 3, 7}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    opts.pool = &pool;
    for (int rep = 0; rep < 3; ++rep) {
      const Tensor got = grouped_conv_nchw(in, f, p, groups, opts);
      ASSERT_TRUE(allclose(got, want, 0.0, 0.0))
          << threads << " threads, rep " << rep;
    }
  }
}

}  // namespace
}  // namespace ndirect
