// Int8 path tests (DESIGN.md §14): overflow contract, exact-integer
// parity across SDOT/emulated/scalar backends, requantize epilogue
// edge cases, zero-point compensation, nn-graph integration, and the
// quantized ResNet-50 drift bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "autotune/tuner.h"
#include "conv_shapes.h"
#include "core/quantized.h"
#include "core/quantized_microkernel.h"
#include "nn/models.h"
#include "nn/optimize.h"
#include "platform/workloads.h"
#include "runtime/cpu_info.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

std::vector<std::uint8_t> random_u8(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(0, 255);
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = static_cast<std::uint8_t>(dist(rng));
  return v;
}

std::vector<std::int8_t> random_s8(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> dist(-127, 127);
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = static_cast<std::int8_t>(dist(rng));
  return v;
}

std::vector<float> random_f32(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

// fp32 reference convolution (double accumulation).
std::vector<float> naive_conv_f32(const std::vector<float>& input,
                                  const std::vector<float>& filter,
                                  const ConvParams& p) {
  const int P = p.P(), Q = p.Q();
  std::vector<float> out(static_cast<std::size_t>(p.output_elems()));
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          double sum = 0;
          for (int c = 0; c < p.C; ++c)
            for (int r = 0; r < p.R; ++r) {
              const int ij = p.str * oj + r - p.pad;
              if (ij < 0 || ij >= p.H) continue;
              for (int s = 0; s < p.S; ++s) {
                const int ii = p.str * oi + s - p.pad;
                if (ii < 0 || ii >= p.W) continue;
                sum += static_cast<double>(
                           input[static_cast<std::size_t>(
                               ((std::int64_t{n} * p.C + c) * p.H + ij) *
                                   p.W +
                               ii)]) *
                       filter[static_cast<std::size_t>(
                           ((std::int64_t{k} * p.C + c) * p.R + r) * p.S +
                           s)];
              }
            }
          out[static_cast<std::size_t>(
              ((std::int64_t{n} * p.K + k) * P + oj) * Q + oi)] =
              static_cast<float>(sum);
        }
  return out;
}

std::vector<std::int32_t> run_raw(const ConvParams& p,
                                  const std::vector<std::uint8_t>& in,
                                  int zp,
                                  const std::vector<std::int8_t>& flt,
                                  const Int8ConvOptions& opt,
                                  Int8RunStats* stats = nullptr) {
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(p.output_elems()));
  Int8Output dst;
  dst.i32 = out.data();
  const Int8Conv conv(p, opt);
  conv.run(in.data(), zp, flt.data(), Int8Epilogue{}, dst, stats);
  return out;
}

// ----------------------------------------------------------------------
// choose_qmax_int8: the 2^31 overflow contract
// ----------------------------------------------------------------------

TEST(ChooseQmaxInt8, SmallReductionsGetFullRange) {
  EXPECT_EQ(choose_qmax_int8(1), 127);
  EXPECT_EQ(choose_qmax_int8(512 * 3 * 3), 127);  // largest ResNet CRS
  EXPECT_EQ(choose_qmax_int8(0), 127);            // degenerate input
}

TEST(ChooseQmaxInt8, ExactOverflowBoundary) {
  // |u - zp| reaches 255, so the bound is len * 255 * q <= 2^31 - 1:
  // 66311 * 255 * 127 = 2147481735 fits, 66312 * 255 * 127 does not.
  EXPECT_EQ(choose_qmax_int8(66311), 127);
  EXPECT_EQ(choose_qmax_int8(66312), 126);
  const std::int64_t len = 66312;
  const std::int64_t q = choose_qmax_int8(len);
  EXPECT_LE(len * 255 * q, std::numeric_limits<std::int32_t>::max());
  EXPECT_GT(len * 255 * (q + 1), std::numeric_limits<std::int32_t>::max());
}

TEST(ChooseQmaxInt8, NeverOverflowsForAnyLength) {
  for (const std::int64_t len :
       {std::int64_t{1}, std::int64_t{1000}, std::int64_t{66311},
        std::int64_t{66312}, std::int64_t{100000}, std::int64_t{133145},
        std::int64_t{1} << 20, std::int64_t{1} << 31,
        std::int64_t{1} << 40}) {
    const std::int64_t q = choose_qmax_int8(len);
    ASSERT_GE(q, 1);
    ASSERT_LE(q, 127);
    if (len < (std::int64_t{1} << 23)) {
      EXPECT_LE(len * 255 * q, std::numeric_limits<std::int32_t>::max())
          << "len=" << len;
    }
  }
}

// ----------------------------------------------------------------------
// Exact integer correctness and backend parity
// ----------------------------------------------------------------------

TEST(Int8Conv, RawInt32MatchesNaiveBitwise) {
  const int zps[] = {0, 7, 128, 255};
  int i = 0;
  for (const ConvParams& p : correctness_conv_shapes()) {
    const auto in = random_u8(
        static_cast<std::size_t>(p.input_elems()), 11 + i);
    const auto flt = random_s8(
        static_cast<std::size_t>(p.filter_elems()), 23 + i);
    const int zp = zps[i++ % 4];
    const auto got = run_raw(p, in, zp, flt, {});
    std::vector<std::int32_t> want(got.size());
    naive_conv_int8(in.data(), zp, flt.data(), want.data(), p);
    ASSERT_EQ(got, want) << p << " zp=" << zp;
  }
}

TEST(Int8Conv, BackendsAreBitwiseIdentical) {
  // The exhaustive parity sweep: every correctness shape (ragged W/K
  // tails, strides, pads) through the scalar generic, the emulated
  // vec128 kernels, and — on a dot-product host — the SDOT kernels.
  std::vector<Int8Backend> backends = {Int8Backend::kScalar,
                                       Int8Backend::kEmulated};
  if (int8_preferred_backend() == Int8Backend::kDot) {
    backends.push_back(Int8Backend::kDot);
  }
  int i = 0;
  for (const ConvParams& p : correctness_conv_shapes()) {
    const auto in = random_u8(
        static_cast<std::size_t>(p.input_elems()), 101 + i);
    const auto flt = random_s8(
        static_cast<std::size_t>(p.filter_elems()), 202 + i);
    const int zp = 37 + (i++ % 100);
    std::vector<std::vector<std::int32_t>> outs;
    for (const Int8Backend b : backends) {
      Int8ConvOptions opt;
      opt.backend = b;
      outs.push_back(run_raw(p, in, zp, flt, opt));
    }
    for (std::size_t j = 1; j < outs.size(); ++j) {
      ASSERT_EQ(outs[0], outs[j])
          << p << " backend " << int8_backend_name(backends[j]);
    }
  }
}

TEST(Int8Conv, ForcedBlocksStayExact) {
  // Non-default register blocks (the auto-tuner's search moves) must
  // not change results.
  const ConvParams p{.N = 1, .C = 7, .H = 9, .W = 11, .K = 13, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in =
      random_u8(static_cast<std::size_t>(p.input_elems()), 5);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 6);
  std::vector<std::int32_t> want(
      static_cast<std::size_t>(p.output_elems()));
  naive_conv_int8(in.data(), 100, flt.data(), want.data(), p);
  const Int8Backend preferred = int8_preferred_backend();
  for (const RegisterBlock rb : int8_microkernel_blocks(preferred)) {
    if (!int8_block_feasible(rb.vw, rb.vk, p.S, preferred)) continue;
    Int8ConvOptions opt;
    opt.force_block = rb;
    ASSERT_EQ(run_raw(p, in, 100, flt, opt), want)
        << "vw=" << rb.vw << " vk=" << rb.vk;
  }
}

bool host_runs_vnni() {
  return NDIRECT_INT8_DOT_VNNI && probe_host_cpu().avx512vnni &&
         int8_preferred_backend() == Int8Backend::kDot;
}

// Runs `p` on `backend` in one output mode: 0 = i32, 1 = s8 requantize
// (int32 bias, ReLU at the output zero point), 2 = f32 dequantize (bias,
// residual, ReLU). Returns the output bytes.
std::vector<unsigned char> run_mode(const ConvParams& p,
                                    const std::vector<std::uint8_t>& in,
                                    int zp,
                                    const std::vector<std::int8_t>& flt,
                                    Int8Backend backend, int mode,
                                    Int8RunStats* stats) {
  const auto K = static_cast<std::size_t>(p.K);
  const auto outs = static_cast<std::size_t>(p.output_elems());
  std::vector<float> scale(K), bias(K);
  std::vector<std::int32_t> bias_i32(K);
  for (std::size_t k = 0; k < K; ++k) {
    scale[k] = 1.0f / static_cast<float>(700 + 37 * k);
    bias[k] = 0.25f * static_cast<float>(k % 5) - 0.5f;
    bias_i32[k] = static_cast<std::int32_t>(k * 113) - 900;
  }
  const std::vector<float> residual = random_f32(outs, 4242);
  Int8Epilogue ep;
  Int8Output dst;
  std::vector<std::int32_t> o32(outs);
  std::vector<std::int8_t> o8(outs);
  std::vector<float> of(outs);
  if (mode == 0) {
    dst.i32 = o32.data();
  } else if (mode == 1) {
    ep.requant_scale = scale.data();
    ep.bias_i32 = bias_i32.data();
    ep.out_zero_point = -3;
    ep.relu = true;
    dst.s8 = o8.data();
  } else {
    ep.dequant_scale = scale.data();
    ep.bias = bias.data();
    ep.residual = residual.data();
    ep.relu = true;
    dst.f32 = of.data();
  }
  Int8ConvOptions opt;
  opt.backend = backend;
  Int8Conv(p, opt).run(in.data(), zp, flt.data(), ep, dst, stats);
  const auto bytes = [](const auto& v) {
    const auto* b = reinterpret_cast<const unsigned char*>(v.data());
    return std::vector<unsigned char>(b, b + v.size() * sizeof(v[0]));
  };
  return mode == 0 ? bytes(o32) : mode == 1 ? bytes(o8) : bytes(of);
}

TEST(Int8Conv, VnniBackendIsBitwiseIdenticalInEveryMode) {
  // The raw-u8 VNNI kernels (16 lanes, compensation -zp * sum(w)) must
  // agree bit for bit with the XOR-packed scalar and emulated kernels
  // in i32, s8 and f32 modes over the whole correctness sweep.
  if (!host_runs_vnni()) GTEST_SKIP() << "needs a VNNI build and host";
  int i = 0;
  for (const ConvParams& p : correctness_conv_shapes()) {
    const auto in = random_u8(
        static_cast<std::size_t>(p.input_elems()), 303 + i);
    const auto flt = random_s8(
        static_cast<std::size_t>(p.filter_elems()), 404 + i);
    const int zp = (i * 53) % 256;
    ++i;
    for (int mode = 0; mode < 3; ++mode) {
      Int8RunStats dot_stats;
      const auto dot =
          run_mode(p, in, zp, flt, Int8Backend::kDot, mode, &dot_stats);
      EXPECT_EQ(dot_stats.backend, Int8Backend::kDot) << p;
      EXPECT_EQ(dot_stats.generic_fallback, 0u) << p;
      EXPECT_EQ(dot_stats.vk % 16, 0) << p;
      for (const Int8Backend b :
           {Int8Backend::kScalar, Int8Backend::kEmulated}) {
        ASSERT_EQ(run_mode(p, in, zp, flt, b, mode, nullptr), dot)
            << p << " zp=" << zp << " mode " << mode << " vs "
            << int8_backend_name(b);
      }
    }
  }
}

TEST(Int8Conv, VnniForcedBlocksStayExact) {
  // Every 16-lane block of the VNNI grid, at every S and both strides.
  if (!host_runs_vnni()) GTEST_SKIP() << "needs a VNNI build and host";
  for (const int S : {1, 3, 5, 7}) {
    for (const int str : {1, 2}) {
      const ConvParams p{.N = 1, .C = 9, .H = S + 3, .W = 53, .K = 35,
                         .R = S, .S = S, .str = str, .pad = S / 2};
      const auto in =
          random_u8(static_cast<std::size_t>(p.input_elems()), 50 + S);
      const auto flt =
          random_s8(static_cast<std::size_t>(p.filter_elems()), 60 + S);
      std::vector<std::int32_t> want(
          static_cast<std::size_t>(p.output_elems()));
      naive_conv_int8(in.data(), 201, flt.data(), want.data(), p);
      for (const RegisterBlock rb :
           int8_microkernel_blocks(Int8Backend::kDot)) {
        if (!int8_block_feasible(rb.vw, rb.vk, S, Int8Backend::kDot)) {
          continue;
        }
        Int8ConvOptions opt;
        opt.backend = Int8Backend::kDot;
        opt.force_block = rb;
        Int8RunStats stats;
        ASSERT_EQ(run_raw(p, in, 201, flt, opt, &stats), want)
            << p << " vw=" << rb.vw << " vk=" << rb.vk;
        EXPECT_EQ(stats.backend, Int8Backend::kDot);
      }
    }
  }
}

TEST(Int8Conv, CompensationWrapsExactlyAtTheQmaxBoundary) {
  // The longest reduction choose_qmax_int8 still gives q = 127. Its true
  // result reaches +-255 * 127 * 66311 = +-2147481735, within 1912 of
  // the int32 limit; every backend's accumulation and compensation
  // (raw u8 on VNNI, the XOR form elsewhere, both modulo 2^32) must
  // land on it exactly (and, under UBSan, without a signed overflow).
  const std::int64_t len = 66311;
  ASSERT_EQ(choose_qmax_int8(len), 127);
  const ConvParams p{.N = 1, .C = static_cast<int>(len), .H = 1, .W = 5,
                     .K = 18, .R = 1, .S = 1, .str = 1, .pad = 0};
  std::vector<Int8Backend> backends = {Int8Backend::kScalar,
                                       Int8Backend::kEmulated};
  if (int8_preferred_backend() == Int8Backend::kDot) {
    backends.push_back(Int8Backend::kDot);
  }
  struct Case {
    std::uint8_t u;
    int zp;
  };
  for (const Case c : {Case{0, 127}, Case{255, 128}, Case{255, 255},
                       Case{255, 0}, Case{0, 255}}) {
    const std::vector<std::uint8_t> in(
        static_cast<std::size_t>(p.input_elems()), c.u);
    std::vector<std::int8_t> flt(static_cast<std::size_t>(p.filter_elems()));
    for (int k = 0; k < p.K; ++k) {
      std::fill_n(flt.begin() + k * len, len,
                  static_cast<std::int8_t>(k % 2 == 0 ? 127 : -127));
    }
    for (const Int8Backend b : backends) {
      Int8ConvOptions opt;
      opt.backend = b;
      const auto got = run_raw(p, in, c.zp, flt, opt);
      for (int k = 0; k < p.K; ++k) {
        const std::int64_t want =
            (std::int64_t{c.u} - c.zp) * (k % 2 == 0 ? 127 : -127) * len;
        ASSERT_LE(std::abs(want), std::numeric_limits<std::int32_t>::max());
        for (int q = 0; q < p.W; ++q) {
          ASSERT_EQ(got[static_cast<std::size_t>(k * p.W + q)], want)
              << "u=" << int{c.u} << " zp=" << c.zp << " k=" << k
              << " backend " << int8_backend_name(b);
        }
      }
      // The s8 store adds the compensation in scalar code.
      EXPECT_EQ(run_mode(p, in, c.zp, flt, b, 1, nullptr),
                run_mode(p, in, c.zp, flt, Int8Backend::kScalar, 1, nullptr));
    }
  }
}

TEST(Int8Conv, ReductionPastTheOldQmaxBoundaryStaysExact) {
  // 100000 taps lie between the len * 255 * q boundary (66311) and the
  // former len * q^2 one (133144), which still admitted q = 127 here:
  // 255 * 127 * 100000 = 3.24e9 wraps int32. The derived q keeps the
  // extreme true sums, u - zp = +-255 on every tap, exact.
  const std::int64_t len = 100000;
  const std::int64_t q = choose_qmax_int8(len);
  ASSERT_LE(len * 127 * 127, std::numeric_limits<std::int32_t>::max());
  ASSERT_GT(len * 255 * 127, std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(q, 84);
  const ConvParams p{.N = 1, .C = static_cast<int>(len), .H = 1, .W = 5,
                     .K = 18, .R = 1, .S = 1, .str = 1, .pad = 0};
  std::vector<Int8Backend> backends = {Int8Backend::kScalar,
                                       Int8Backend::kEmulated};
  if (int8_preferred_backend() == Int8Backend::kDot) {
    backends.push_back(Int8Backend::kDot);
  }
  std::vector<std::int8_t> flt(static_cast<std::size_t>(p.filter_elems()));
  for (int k = 0; k < p.K; ++k) {
    std::fill_n(flt.begin() + k * len, len,
                static_cast<std::int8_t>(k % 2 == 0 ? q : -q));
  }
  for (const int u : {0, 255}) {
    const int zp = 255 - u;
    const std::vector<std::uint8_t> in(
        static_cast<std::size_t>(p.input_elems()),
        static_cast<std::uint8_t>(u));
    for (const Int8Backend b : backends) {
      Int8ConvOptions opt;
      opt.backend = b;
      const auto got = run_raw(p, in, zp, flt, opt);
      for (int k = 0; k < p.K; ++k) {
        const std::int64_t want = (u - zp) * (k % 2 == 0 ? q : -q) * len;
        for (int w = 0; w < p.W; ++w) {
          ASSERT_EQ(got[static_cast<std::size_t>(k * p.W + w)], want)
              << "u=" << u << " k=" << k << " backend "
              << int8_backend_name(b);
        }
      }
    }
  }
}

TEST(Int8Conv, ZeroPointCompensationCancelsConstantInput) {
  // Input identically equal to the zero point represents real 0
  // everywhere, so every accumulator must come out exactly 0 — this is
  // what makes border padding exact.
  const ConvParams p{.N = 1, .C = 5, .H = 8, .W = 8, .K = 9, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  for (const int zp : {0, 1, 100, 128, 255}) {
    const std::vector<std::uint8_t> in(
        static_cast<std::size_t>(p.input_elems()),
        static_cast<std::uint8_t>(zp));
    const auto flt =
        random_s8(static_cast<std::size_t>(p.filter_elems()), 7);
    const auto out = run_raw(p, in, zp, flt, {});
    for (const std::int32_t v : out) ASSERT_EQ(v, 0) << "zp=" << zp;
  }
}

// ----------------------------------------------------------------------
// Requantize epilogue edge cases
// ----------------------------------------------------------------------

// 1x1 conv with C=K=1 and unit filter: raw acc = u - zp, a transparent
// harness for the requantize formula.
ConvParams identity_params(int w) {
  return {.N = 1, .C = 1, .H = 1, .W = w, .K = 1, .R = 1, .S = 1,
          .str = 1, .pad = 0};
}

std::vector<std::int8_t> run_s8(const ConvParams& p,
                                const std::vector<std::uint8_t>& in,
                                int zp,
                                const std::vector<std::int8_t>& flt,
                                const Int8Epilogue& ep) {
  std::vector<std::int8_t> out(
      static_cast<std::size_t>(p.output_elems()));
  Int8Output dst;
  dst.s8 = out.data();
  const Int8Conv conv(p, {});
  conv.run(in.data(), zp, flt.data(), ep, dst);
  return out;
}

TEST(Requantize, SaturatesAtPlusMinus127) {
  const ConvParams p = identity_params(4);
  const std::vector<std::uint8_t> in = {255, 0, 200, 56};  // acc ±127ish
  const std::vector<std::int8_t> flt = {1};
  const float scale = 1000.0f;  // drives everything past the s8 range
  Int8Epilogue ep;
  ep.requant_scale = &scale;
  const auto out = run_s8(p, in, 128, flt, ep);
  EXPECT_EQ(out[0], 127);   // acc=+127, huge scale -> clamp high
  EXPECT_EQ(out[1], -127);  // acc=-128 -> clamp low (symmetric range)
  EXPECT_EQ(out[2], 127);
  EXPECT_EQ(out[3], -127);
}

TEST(Requantize, RoundsHalfToEven) {
  const ConvParams p = identity_params(6);
  // acc = u - 128: 1, 3, 5, -1, -3, 2.
  const std::vector<std::uint8_t> in = {129, 131, 133, 127, 125, 130};
  const std::vector<std::int8_t> flt = {1};
  const float scale = 0.5f;  // products: .5, 1.5, 2.5, -.5, -1.5, 1.
  Int8Epilogue ep;
  ep.requant_scale = &scale;
  const auto out = run_s8(p, in, 128, flt, ep);
  EXPECT_EQ(out[0], 0);   // 0.5 -> 0 (ties to even, not 1)
  EXPECT_EQ(out[1], 2);   // 1.5 -> 2
  EXPECT_EQ(out[2], 2);   // 2.5 -> 2 (not 3)
  EXPECT_EQ(out[3], 0);   // -0.5 -> 0
  EXPECT_EQ(out[4], -2);  // -1.5 -> -2
  EXPECT_EQ(out[5], 1);   // exact 1.0
}

TEST(Requantize, BiasZeroPointAndRelu) {
  const ConvParams p = identity_params(3);
  const std::vector<std::uint8_t> in = {138, 118, 128};  // acc 10,-10,0
  const std::vector<std::int8_t> flt = {1};
  const float scale = 1.0f;
  const std::int32_t bias = 5;
  Int8Epilogue ep;
  ep.requant_scale = &scale;
  ep.bias_i32 = &bias;
  ep.out_zero_point = 3;
  const auto plain = run_s8(p, in, 128, flt, ep);
  EXPECT_EQ(plain[0], 18);  // (10+5)*1 + 3
  EXPECT_EQ(plain[1], -2);  // (-10+5)*1 + 3
  EXPECT_EQ(plain[2], 8);   // (0+5)*1 + 3
  ep.relu = true;  // clamps at the output zero point
  const auto relued = run_s8(p, in, 128, flt, ep);
  EXPECT_EQ(relued[0], 18);
  EXPECT_EQ(relued[1], 3);
  EXPECT_EQ(relued[2], 8);
}

TEST(Requantize, S8MatchesScalarFormulaOnRandomConvs) {
  // The s8 epilogue applied to the engine's raw accumulators must
  // reproduce the documented formula exactly, per channel.
  const ConvParams p{.N = 1, .C = 6, .H = 7, .W = 9, .K = 10, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in =
      random_u8(static_cast<std::size_t>(p.input_elems()), 42);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 43);
  const int zp = 119;
  std::vector<float> scales(static_cast<std::size_t>(p.K));
  std::vector<std::int32_t> bias(static_cast<std::size_t>(p.K));
  std::mt19937_64 rng(44);
  std::uniform_real_distribution<float> sdist(1e-4f, 5e-3f);
  std::uniform_int_distribution<std::int32_t> bdist(-500, 500);
  for (int k = 0; k < p.K; ++k) {
    scales[static_cast<std::size_t>(k)] = sdist(rng);
    bias[static_cast<std::size_t>(k)] = bdist(rng);
  }
  Int8Epilogue ep;
  ep.requant_scale = scales.data();
  ep.bias_i32 = bias.data();
  ep.out_zero_point = -7;
  const auto got = run_s8(p, in, zp, flt, ep);
  const auto raw = run_raw(p, in, zp, flt, {});
  const std::int64_t plane = std::int64_t{p.P()} * p.Q();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto k =
        static_cast<std::size_t>((static_cast<std::int64_t>(i) / plane) %
                                 p.K);
    const std::int32_t a = raw[i] + bias[k];
    const std::int32_t want =
        std::clamp<std::int32_t>(
            static_cast<std::int32_t>(std::nearbyintf(
                static_cast<float>(a) * scales[k])) - 7,
            -127, 127);
    ASSERT_EQ(static_cast<std::int32_t>(got[i]), want) << i;
  }
}

// ----------------------------------------------------------------------
// Quantization helpers and fp32 round trip
// ----------------------------------------------------------------------

TEST(QuantizeHelpers, ActivationRangeAlwaysCoversZero) {
  const std::vector<float> positive = {0.5f, 1.0f, 2.0f};
  const QuantizedActivation q =
      quantize_activation_u8(positive.data(), positive.size());
  // All-positive data: zero_point sits at 0 and 0.0 is exact.
  EXPECT_EQ(q.zero_point, 0);
  const std::vector<float> negative = {-1.0f, -0.25f};
  const QuantizedActivation qn =
      quantize_activation_u8(negative.data(), negative.size());
  EXPECT_EQ(qn.zero_point, 255);
}

// The activation quantizer as a scalar loop (libm lrintf per element,
// zero-filled output) — the oracle for the vector passes.
QuantizedActivation quantize_activation_u8_loop(const float* data,
                                                std::size_t n) {
  float lo = 0.0f, hi = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min(lo, data[i]);
    hi = std::max(hi, data[i]);
  }
  QuantizedActivation q;
  const float range = hi - lo;
  q.scale = range > 0 ? range / 255.0f : 1.0f;
  const float inv = 1.0f / q.scale;
  q.zero_point = std::clamp<std::int32_t>(
      static_cast<std::int32_t>(std::lrintf(-lo * inv)), 0, 255);
  q.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t v =
        static_cast<std::int32_t>(std::lrintf(data[i] * inv)) +
        q.zero_point;
    q.values[i] =
        static_cast<std::uint8_t>(std::clamp<std::int32_t>(v, 0, 255));
  }
  return q;
}

TEST(QuantizeHelpers, VectorQuantizeMatchesScalarLoopBitwise) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::vector<float>> inputs;
  // Range 255 (scale 1, inv 1): every k + 0.5 is an exact rounding tie.
  std::vector<float> ties = {-100.0f, 155.0f};
  for (int k = -100; k < 155; k += 3) {
    ties.push_back(static_cast<float>(k) + 0.5f);
  }
  inputs.push_back(ties);
  std::vector<float> zeros(37, 0.0f);
  for (std::size_t i = 0; i < zeros.size(); i += 2) zeros[i] = -0.0f;
  inputs.push_back(zeros);
  inputs.push_back(std::vector<float>(19, -0.0f));
  const std::vector<float> noise = random_f32(1000 + 7, 77);
  inputs.push_back(noise);
  for (const float special : {nan, inf, -inf}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{5},
                                 std::size_t{17}, std::size_t{1006}}) {
      std::vector<float> v = noise;
      v[at] = special;
      inputs.push_back(v);
    }
  }
  inputs.push_back({nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
                    nan, nan, nan, nan, nan, nan});
  inputs.push_back({inf, -inf, 1.0f, -1.0f, 0.0f, nan, 2.5f, -2.5f, 3.0f,
                    4.0f, 5.0f, 6.0f, 7.0f, 8.0f, 9.0f, 10.0f, 11.0f});
  // Extreme ranges: overflowing (inf range), huge, and tiny/denormal.
  std::vector<float> huge = random_f32(40, 78);
  huge[3] = 3.0e38f;
  huge[21] = -3.0e38f;
  inputs.push_back(huge);
  std::vector<float> tiny = random_f32(40, 79);
  for (float& x : tiny) x *= 1e-40f;
  inputs.push_back(tiny);
  std::vector<float> small = random_f32(40, 80);
  for (float& x : small) x *= 1e-37f;
  inputs.push_back(small);
  for (const std::vector<float>& full : inputs) {
    // Ragged lengths: every prefix up to 40, then the whole input.
    for (std::size_t n = 0; n <= full.size(); n = n < 40 ? n + 1 : n + 997) {
      if (n > full.size()) n = full.size();
      const QuantizedActivation want =
          quantize_activation_u8_loop(full.data(), n);
      const QuantizedActivation got = quantize_activation_u8(full.data(), n);
      std::vector<std::uint8_t> raw(n + 1, 0xAB);
      const QuantizedActivation into =
          quantize_activation_u8(full.data(), n, raw.data());
      ASSERT_EQ(got.values, want.values) << "n=" << n;
      ASSERT_EQ(std::vector<std::uint8_t>(raw.begin(), raw.begin() + n),
                want.values)
          << "n=" << n;
      EXPECT_EQ(raw[n], 0xAB) << "wrote past n=" << n;
      EXPECT_TRUE(into.values.empty());
      for (const QuantizedActivation* q : {&got, &into}) {
        ASSERT_EQ(std::memcmp(&q->scale, &want.scale, sizeof(float)), 0)
            << "n=" << n;
        ASSERT_EQ(q->zero_point, want.zero_point) << "n=" << n;
      }
      if (n == full.size()) break;
    }
  }
}

TEST(QuantizeHelpers, PerChannelScalesTrackChannelRanges) {
  const ConvParams p{.N = 1, .C = 2, .H = 4, .W = 4, .K = 3, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  auto flt = random_f32(static_cast<std::size_t>(p.filter_elems()), 9);
  // Blow up channel 1 by 100x: its scale must scale with it while the
  // others stay put.
  const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
  for (std::int64_t e = 0; e < crs; ++e) {
    flt[static_cast<std::size_t>(crs + e)] *= 100.0f;
  }
  const QuantizedFilterI8 q = quantize_filter_i8(flt.data(), p);
  EXPECT_GT(q.scales[1], 30.0f * q.scales[0]);
  EXPECT_LT(q.scales[2], 3.0f * q.scales[0]);
}

TEST(Int8Conv, PerChannelBeatsPerTensorOnSkewedFilters) {
  const ConvParams p{.N = 1, .C = 4, .H = 8, .W = 8, .K = 4, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in_f =
      random_f32(static_cast<std::size_t>(p.input_elems()), 50);
  auto flt_f = random_f32(static_cast<std::size_t>(p.filter_elems()), 51);
  const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
  // Channel 0 is 50x larger than the rest: a per-tensor scale wastes
  // nearly all of the small channels' resolution.
  for (std::int64_t e = 0; e < crs; ++e) {
    flt_f[static_cast<std::size_t>(e)] *= 50.0f;
  }
  const auto ref = naive_conv_f32(in_f, flt_f, p);

  const auto got = int8_conv_fp32(in_f.data(), flt_f.data(), p);

  // Per-tensor baseline: one global scale, same engine.
  const QuantizedActivation qin = quantize_activation_u8(
      in_f.data(), static_cast<std::size_t>(p.input_elems()));
  float max_abs = 0;
  for (const float v : flt_f) max_abs = std::max(max_abs, std::fabs(v));
  const float gscale = max_abs / 127.0f;
  std::vector<std::int8_t> gflt(flt_f.size());
  for (std::size_t i = 0; i < flt_f.size(); ++i) {
    gflt[i] = static_cast<std::int8_t>(std::clamp<std::int32_t>(
        static_cast<std::int32_t>(std::lrintf(flt_f[i] / gscale)), -127,
        127));
  }
  const auto raw = run_raw(p, qin.values, qin.zero_point, gflt, {});
  std::vector<float> per_tensor(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    per_tensor[i] = qin.scale * gscale * static_cast<float>(raw[i]);
  }

  // Compare only the small channels (k >= 1): channel 0 sets the
  // global scale, so its error is identical under both schemes and
  // would mask the resolution the small channels lose.
  const std::size_t plane =
      static_cast<std::size_t>(p.P()) * static_cast<std::size_t>(p.Q());
  auto max_err = [&](const std::vector<float>& v) {
    double m = 0;
    for (std::size_t i = plane; i < v.size(); ++i) {
      m = std::max(m, std::fabs(static_cast<double>(v[i]) - ref[i]));
    }
    return m;
  };
  const double pc = max_err(got), pt = max_err(per_tensor);
  EXPECT_LT(pc, 0.25 * pt)
      << "per-channel err " << pc << " vs per-tensor " << pt;
}

TEST(Int8Conv, Fp32RoundTripIsAccurate) {
  for (const ConvParams& p : correctness_conv_shapes()) {
    const auto in_f =
        random_f32(static_cast<std::size_t>(p.input_elems()), 60);
    const auto flt_f =
        random_f32(static_cast<std::size_t>(p.filter_elems()), 61);
    const auto ref = naive_conv_f32(in_f, flt_f, p);
    const auto got = int8_conv_fp32(in_f.data(), flt_f.data(), p);
    double ref_mag = 1e-6;
    for (const float v : ref) {
      ref_mag = std::max(ref_mag, std::fabs(static_cast<double>(v)));
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], ref[i], 0.02 * ref_mag) << p << " at " << i;
    }
  }
}

TEST(Int8Conv, FusedBiasAndReluMatchUnfused) {
  const ConvParams p{.N = 2, .C = 5, .H = 7, .W = 9, .K = 6, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in_f =
      random_f32(static_cast<std::size_t>(p.input_elems()), 70);
  const auto flt_f =
      random_f32(static_cast<std::size_t>(p.filter_elems()), 71);
  const auto bias = random_f32(static_cast<std::size_t>(p.K), 72);
  const auto plain = int8_conv_fp32(in_f.data(), flt_f.data(), p);
  const auto fused =
      int8_conv_fp32(in_f.data(), flt_f.data(), p, bias.data(), true);
  const std::int64_t plane = std::int64_t{p.P()} * p.Q();
  for (std::size_t i = 0; i < fused.size(); ++i) {
    const auto k =
        static_cast<std::size_t>((static_cast<std::int64_t>(i) / plane) %
                                 p.K);
    const float want = std::max(0.0f, plain[i] + bias[k]);
    ASSERT_NEAR(fused[i], want, 1e-4f) << i;
  }
}

// ----------------------------------------------------------------------
// Kernel registry, fallback accounting, Table 4 coverage
// ----------------------------------------------------------------------

TEST(Int8Registry, InstantiatesTheFullPolicyGrid) {
  // Each compiled backend holds every block its budget admits: the
  // 4-lane Eq. 3 grid for the emulated ladder, the kI8DotLanes grid
  // for the native dot (16 lanes with VNNI).
  std::vector<Int8Backend> backends = {Int8Backend::kEmulated};
  if (NDIRECT_INT8_DOT_COMPILED) backends.push_back(Int8Backend::kDot);
  std::size_t expected = 0;
  for (const Int8Backend b : backends) {
    const int lanes = int8_backend_lanes(b);
    for (const int S : {1, 3, 5, 7}) {
      for (int vw = 4; vw <= kMaxVw; vw += 4) {
        for (int vk = lanes; vk <= kMaxVk; vk += lanes) {
          if (int8_block_feasible(vw, vk, S, b)) ++expected;
        }
      }
    }
  }
  expected *= 2;  // strides 1, 2
  EXPECT_EQ(int8_kernel_registry().size(), expected);
  for (const I8KernelEntry& e : int8_kernel_registry()) {
    EXPECT_NE(e.fn, nullptr);
    EXPECT_TRUE(int8_block_feasible(e.vw, e.vk, e.S, e.backend));
    EXPECT_EQ(e.vk % int8_backend_lanes(e.backend), 0);
  }
  EXPECT_EQ(int8_backend_lanes(Int8Backend::kDot),
            NDIRECT_INT8_DOT_VNNI ? 16 : 4);
}

TEST(Int8Registry, PreferredBackendRespectsForceNoDotprod) {
  setenv("NDIRECT_FORCE_NO_DOTPROD", "1", 1);
  EXPECT_EQ(int8_preferred_backend(), Int8Backend::kEmulated);
  unsetenv("NDIRECT_FORCE_NO_DOTPROD");
  if (!NDIRECT_INT8_DOT_COMPILED) {
    EXPECT_EQ(int8_preferred_backend(), Int8Backend::kEmulated);
  }
  // The hardware claim must be consistent with the compile target: a
  // kDot preference requires both the compiled kernels and the host's
  // instruction (ASIMDDP for SDOT, AVX512-VNNI for VPDPBUSD), so a
  // binary built for one CPU never issues the dot on another.
  const CpuInfo cpu = probe_host_cpu();
  const bool host_dot = NDIRECT_INT8_DOT_VNNI ? cpu.avx512vnni : cpu.asimddp;
  EXPECT_EQ(int8_preferred_backend() == Int8Backend::kDot,
            NDIRECT_INT8_DOT_COMPILED && host_dot);
  EXPECT_STREQ(int8_backend_name(Int8Backend::kDot),
               NDIRECT_INT8_DOT_VNNI       ? "vnni"
               : NDIRECT_INT8_DOT_COMPILED ? "sdot"
                                           : "dot");
}

TEST(Int8Registry, VnniHostPrefersVnniUnlessForcedOff) {
  if (!host_runs_vnni()) {
    GTEST_SKIP() << "needs a VNNI build on a VNNI host, dot not forced off";
  }
  setenv("NDIRECT_FORCE_NO_DOTPROD", "1", 1);
  const Int8Conv forced(table4_layer(21, 1).params);
  unsetenv("NDIRECT_FORCE_NO_DOTPROD");
  EXPECT_EQ(forced.backend(), Int8Backend::kEmulated);
  EXPECT_EQ(Int8Conv(table4_layer(21, 1).params).backend(),
            Int8Backend::kDot);
}

TEST(Int8Conv, NoGenericFallbackAcrossTable4) {
  // Every Table 4 layer must resolve to a policy kernel (the acceptance
  // gate: generic-fallback count stays 0 on the quantized suite).
  for (const ConvLayer& layer : table4_layers(1)) {
    const Int8Conv conv(layer.params);
    EXPECT_NE(conv.backend(), Int8Backend::kScalar)
        << "layer " << layer.id << ": " << layer.params.to_string();
  }
  // And an actual run of a late ResNet layer confirms the counter.
  const ConvParams p = table4_layer(21, 1).params;
  const auto in =
      random_u8(static_cast<std::size_t>(p.input_elems()), 80);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 81);
  Int8RunStats stats;
  run_raw(p, in, 128, flt, {}, &stats);
  EXPECT_GT(stats.tiles, 0u);
  EXPECT_EQ(stats.generic_fallback, 0u);
  EXPECT_NE(stats.backend, Int8Backend::kScalar);
}

TEST(Int8Conv, ScalarBackendCountsEveryTileAsFallback) {
  const ConvParams p{.N = 1, .C = 4, .H = 6, .W = 6, .K = 4, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in =
      random_u8(static_cast<std::size_t>(p.input_elems()), 90);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 91);
  Int8ConvOptions opt;
  opt.backend = Int8Backend::kScalar;
  Int8RunStats stats;
  run_raw(p, in, 128, flt, opt, &stats);
  EXPECT_GT(stats.tiles, 0u);
  EXPECT_EQ(stats.generic_fallback, stats.tiles);
}

TEST(Int8Conv, OutputIsIndependentOfThreadCount) {
  // One tile per Vw-wide output window, each carrying every K block and
  // the whole reduction; the ragged 3- and 7-worker seeds leave
  // exhausted workers stealing windows. Raw int32 and the fused fp32
  // epilogue must both match the single-thread run bit for bit.
  const ConvParams p{.N = 2, .C = 10, .H = 13, .W = 19, .K = 20, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in = random_u8(static_cast<std::size_t>(p.input_elems()), 95);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 96);
  const auto scale = random_f32(static_cast<std::size_t>(p.K), 97);
  const auto bias = random_f32(static_cast<std::size_t>(p.K), 98);
  const auto run_f32 = [&](ThreadPool& pool) {
    Int8ConvOptions opt;
    opt.pool = &pool;
    Int8Epilogue ep;
    ep.dequant_scale = scale.data();
    ep.bias = bias.data();
    ep.relu = true;
    std::vector<float> out(static_cast<std::size_t>(p.output_elems()));
    Int8Output dst;
    dst.f32 = out.data();
    Int8Conv(p, opt).run(in.data(), 117, flt.data(), ep, dst);
    return out;
  };
  ThreadPool single(1);
  Int8ConvOptions opt;
  opt.pool = &single;
  const auto want_raw = run_raw(p, in, 117, flt, opt);
  const auto want_f32 = run_f32(single);
  for (const int threads : {2, 3, 7}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    opt.pool = &pool;
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_EQ(run_raw(p, in, 117, flt, opt), want_raw)
          << threads << " threads, rep " << rep;
      ASSERT_EQ(run_f32(pool), want_f32)
          << threads << " threads, rep " << rep;
    }
  }
}

TEST(Int8Conv, MalformedCallsThrow) {
  const ConvParams p{.N = 1, .C = 4, .H = 6, .W = 6, .K = 4, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const auto in = random_u8(static_cast<std::size_t>(p.input_elems()), 99);
  const auto flt =
      random_s8(static_cast<std::size_t>(p.filter_elems()), 100);
  std::vector<std::int32_t> raw(static_cast<std::size_t>(p.output_elems()));
  std::vector<float> f32(raw.size());
  const Int8Conv conv(p);
  // No output selected.
  EXPECT_THROW(conv.run(in.data(), 128, flt.data(), {}, Int8Output{}),
               std::invalid_argument);
  // Two outputs selected.
  Int8Output both;
  both.i32 = raw.data();
  both.f32 = f32.data();
  EXPECT_THROW(conv.run(in.data(), 128, flt.data(), {}, both),
               std::invalid_argument);
  // A filter packed for another shape is rejected, not read.
  ConvParams wider = p;
  wider.K = 8;
  const auto flt8 =
      random_s8(static_cast<std::size_t>(wider.filter_elems()), 101);
  Int8Output one;
  one.i32 = raw.data();
  EXPECT_THROW(conv.run(in.data(), 128,
                        Int8Conv(wider).pack_filter(flt8.data()), {}, one),
               std::invalid_argument);
  // Invalid geometry is rejected at planning time.
  ConvParams bad = p;
  bad.str = 0;
  EXPECT_THROW(Int8Conv{bad}, std::invalid_argument);
}

TEST(Int8Autotune, SweepsTheRegistryBlocks) {
  const ConvParams p{.N = 1, .C = 16, .H = 14, .W = 14, .K = 16, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const Int8TuneResult r = autotune_int8_block(p, 0.2);
  EXPECT_FALSE(r.trials.empty());
  EXPECT_GT(r.best_gflops, 0.0);
  EXPECT_TRUE(int8_block_feasible(r.best.vw, r.best.vk, p.S,
                                  int8_preferred_backend()));
}

// ----------------------------------------------------------------------
// nn-graph integration and the ResNet-50 drift bound
// ----------------------------------------------------------------------

TEST(QuantizedNn, ConvOpQuantizedTracksFp32) {
  const ConvParams p{.N = 1, .C = 8, .H = 14, .W = 14, .K = 12, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  ConvOp op(p, ConvBackend::Ndirect, 777, /*bias=*/true);
  op.set_fused_relu(true);
  Tensor x({p.N, p.C, p.H, p.W}, Layout::NCHW);
  fill_random(x, 31);
  const Tensor ref = op.forward({&x});
  op.set_quantized(true);
  const Tensor got = op.forward({&x});
  EXPECT_EQ(op.quantized_stats().generic_fallback, 0u);
  double ref_mag = 1e-6;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref_mag = std::max(ref_mag, std::fabs(static_cast<double>(ref[i])));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], 0.03 * ref_mag) << i;
  }
  // Back to fp32 restores the exact original path.
  op.set_quantized(false);
  const Tensor back = op.forward({&x});
  for (std::size_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back[i], ref[i]);
  }
}

TEST(QuantizedNn, QuantizeConvsPassSwitchesNdirectConvsOnly) {
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto net = build_resnet50(1, opts);
  const int convs = static_cast<int>(net->conv_ops().size());
  EXPECT_EQ(quantize_convs(*net), convs);
  for (ConvOp* c : net->conv_ops()) EXPECT_TRUE(c->quantized());
}

TEST(QuantizedNn, ResNet50DriftWithinBound) {
  // End-to-end quantized inference: the whole (reduced) ResNet-50 with
  // every conv in int8. The documented drift bound (EXPERIMENTS.md):
  // the final softmax distribution moves by < 0.05 L-inf relative to
  // fp32 — per-channel filter scales plus per-layer activation
  // recalibration keep ~25 chained quantized convs this tight.
  ModelOptions opts;
  opts.channel_divisor = 16;
  opts.image_size = 32;
  auto fp32_net = build_resnet50(1, opts);
  auto int8_net = build_resnet50(1, opts);  // same seed, same weights
  fold_batchnorm(*fp32_net);
  fuse_conv_relu(*fp32_net);
  fold_batchnorm(*int8_net);
  fuse_conv_relu(*int8_net);
  EXPECT_GT(quantize_convs(*int8_net), 0);

  Tensor input({1, 3, 32, 32}, Layout::NCHW);
  fill_random(input, 99);
  const Tensor ref = fp32_net->run(input);
  const Tensor got = int8_net->run(input);
  ASSERT_EQ(ref.size(), got.size());
  double drift = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    drift = std::max(
        drift, std::fabs(static_cast<double>(ref[i]) - got[i]));
  }
  EXPECT_LT(drift, 0.05) << "softmax L-inf drift";
  // No conv fell back to the scalar generic kernel.
  for (ConvOp* c : int8_net->conv_ops()) {
    EXPECT_EQ(c->quantized_stats().generic_fallback, 0u);
  }
}

}  // namespace
}  // namespace ndirect
