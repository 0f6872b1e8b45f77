// Tests for the Section 10.2 extension: depthwise convolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/depthwise.h"
#include "simd/vec128.h"
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

// ----------------------------------------------------------------------
// Bitwise tap-loop oracle
// ----------------------------------------------------------------------

// Each output's in-range taps accumulated in (r, s) order, one FMA per
// tap with the build's vfma rounding, then the store epilogue in
// finish_row's order: + bias, + residual, ReLU.
Tensor depthwise_tap_loop(const Tensor& in, const Tensor& f,
                          const DepthwiseParams& p, const ConvEpilogue& epi) {
  const int P = p.P(), Q = p.Q();
  Tensor out = make_output_nchw(p.N, p.C, P, Q);
  std::int64_t idx = 0;
  for (int n = 0; n < p.N; ++n)
    for (int c = 0; c < p.C; ++c)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi, ++idx) {
          vec128f acc = vzero();
          for (int r = 0; r < p.R; ++r) {
            const int ij = p.str * oj + r - p.pad;
            if (ij < 0 || ij >= p.H) continue;
            for (int s = 0; s < p.S; ++s) {
              const int ii = p.str * oi + s - p.pad;
              if (ii < 0 || ii >= p.W) continue;
              acc = vfma(acc, vdup(in.at4(n, c, ij, ii)),
                         vdup(f.at4(c, 0, r, s)));
            }
          }
          float v = vget_lane<0>(acc);
          if (epi.bias != nullptr) v += epi.bias[c];
          if (epi.residual != nullptr) v += epi.residual[idx];
          if (epi.relu) v = std::max(v, 0.0f);
          out[static_cast<std::size_t>(idx)] = v;
        }
  return out;
}

// Bit-for-bit equal, except that any NaN matches any NaN (which NaN an
// FMA propagates is the ISA's choice).
::testing::AssertionResult same_bits(const Tensor& got, const Tensor& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool both_nan = std::isnan(got[i]) && std::isnan(want[i]);
    if (!both_nan && std::bit_cast<std::uint32_t>(got[i]) !=
                         std::bit_cast<std::uint32_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::string dw_name(const DepthwiseParams& p) {
  return "N" + std::to_string(p.N) + " C" + std::to_string(p.C) + " " +
         std::to_string(p.H) + "x" + std::to_string(p.W) + " R" +
         std::to_string(p.R) + "S" + std::to_string(p.S) + " str" +
         std::to_string(p.str) + " pad" + std::to_string(p.pad);
}

TEST(DepthwiseOracle, EdgeShapesMatchTapLoopBitwise) {
  std::vector<DepthwiseParams> shapes = {
      // 1x1 spatial
      {.N = 1, .C = 3, .H = 1, .W = 1, .R = 1, .S = 1, .str = 1, .pad = 0},
      {.N = 1, .C = 3, .H = 1, .W = 1, .R = 3, .S = 3, .str = 1, .pad = 1},
      // pad >= kernel: whole output rows and columns see only padding
      {.N = 1, .C = 2, .H = 5, .W = 6, .R = 3, .S = 3, .str = 1, .pad = 3},
      {.N = 1, .C = 2, .H = 4, .W = 3, .R = 2, .S = 2, .str = 2, .pad = 4},
      // stride > kernel, and stride 3
      {.N = 1, .C = 3, .H = 9, .W = 10, .R = 1, .S = 1, .str = 2, .pad = 0},
      {.N = 1, .C = 2, .H = 13, .W = 14, .R = 3, .S = 3, .str = 4, .pad = 1},
      {.N = 1, .C = 3, .H = 11, .W = 16, .R = 3, .S = 3, .str = 3, .pad = 1},
      // 5x5 and 7x7 filters, a non-square one
      {.N = 1, .C = 2, .H = 12, .W = 17, .R = 5, .S = 5, .str = 1, .pad = 2},
      {.N = 1, .C = 2, .H = 15, .W = 19, .R = 5, .S = 5, .str = 2, .pad = 2},
      {.N = 1, .C = 2, .H = 14, .W = 33, .R = 7, .S = 7, .str = 1, .pad = 3},
      {.N = 1, .C = 2, .H = 16, .W = 15, .R = 7, .S = 7, .str = 2, .pad = 3},
      {.N = 1, .C = 2, .H = 9, .W = 21, .R = 1, .S = 5, .str = 2, .pad = 2},
      // N = 2, and MobileNet's 3x3 at both strides
      {.N = 2, .C = 4, .H = 14, .W = 14, .R = 3, .S = 3, .str = 1, .pad = 1},
      {.N = 2, .C = 4, .H = 14, .W = 14, .R = 3, .S = 3, .str = 2, .pad = 1},
      {.N = 1, .C = 3, .H = 7, .W = 7, .R = 3, .S = 3, .str = 2, .pad = 0},
  };
  // Output widths ragged against both 4 and 16 lanes.
  for (const int w : {1, 15, 17, 33}) {
    shapes.push_back(
        {.N = 1, .C = 3, .H = 6, .W = w, .R = 3, .S = 3, .str = 1, .pad = 1});
    shapes.push_back({.N = 1, .C = 3, .H = 7, .W = 2 * w, .R = 3, .S = 3,
                      .str = 2, .pad = 1});
  }
  std::uint64_t seed = 700;
  for (const DepthwiseParams& p : shapes) {
    SCOPED_TRACE(dw_name(p));
    ASSERT_TRUE(p.valid());
    Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
    Tensor f = make_filter_kcrs(p.C, 1, p.R, p.S);
    fill_random(in, ++seed);
    fill_random(f, ++seed);
    std::vector<float> bias(static_cast<std::size_t>(p.C));
    for (int c = 0; c < p.C; ++c) bias[static_cast<std::size_t>(c)] = 0.25f - 0.1f * c;
    Tensor residual = make_output_nchw(p.N, p.C, p.P(), p.Q());
    fill_random(residual, ++seed);
    ConvEpilogue fused;
    fused.bias = bias.data();
    fused.residual = residual.data();
    fused.relu = true;
    Tensor nan_in = in.clone();
    for (std::size_t i = 0; i < nan_in.size(); i += 5) {
      nan_in[i] = std::numeric_limits<float>::quiet_NaN();
    }
    for (const int threads : {1, 2, 3, 7}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ThreadPool pool(static_cast<std::size_t>(threads));
      for (const ConvEpilogue& epi : {ConvEpilogue{}, fused}) {
        EXPECT_TRUE(same_bits(depthwise_conv_nchw(in, f, p, &pool, epi),
                              depthwise_tap_loop(in, f, p, epi)));
        EXPECT_TRUE(same_bits(depthwise_conv_nchw(nan_in, f, p, &pool, epi),
                              depthwise_tap_loop(nan_in, f, p, epi)));
      }
    }
  }
}

}  // namespace
}  // namespace ndirect
