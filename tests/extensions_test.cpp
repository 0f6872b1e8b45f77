// Tests for the Section 10.2 extension: depthwise convolution.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/depthwise.h"
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

}  // namespace
}  // namespace ndirect
