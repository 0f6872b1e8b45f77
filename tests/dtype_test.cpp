// Tests for the datatype/ISA generalization (Sections 3.3 and 10.1):
// the lanes/registers-parameterized Eq. 3/4 solver and the FP64
// convolution path.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "conv_shapes.h"
#include "core/conv_fp16.h"
#include "core/conv_fp64.h"
#include "core/fp16.h"
#include "core/fai.h"
#include "simd/vec128.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace ndirect {
namespace {

// ----------------------------------------------------------------------
// Generalized Eq. 3 / Eq. 4
// ----------------------------------------------------------------------

TEST(GeneralizedSolver, DefaultsMatchPaperInstance) {
  // lanes=4, regs=32 must reproduce the FP32/ARMv8 result.
  const RegisterBlock fp32 = solve_register_block(3, 4, 32);
  EXPECT_EQ(fp32.vw, 12);
  EXPECT_EQ(fp32.vk, 8);
}

TEST(GeneralizedSolver, RegisterCostScalesWithLanes) {
  // FP64 on 128-bit: 2 lanes. (8,6) for S=3: ceil(10/2)+3+24 = 32.
  EXPECT_EQ(register_cost(8, 6, 3, 2), 32);
  // FP16 on 128-bit: 8 lanes. (16,16) for S=3: ceil(18/8)+2+32 = 37.
  EXPECT_EQ(register_cost(16, 16, 3, 8), 37);
}

TEST(GeneralizedSolver, EveryIsaInstanceIsFeasibleAndOptimal) {
  struct Isa {
    const char* name;
    int lanes, regs;
  };
  const Isa isas[] = {
      {"ARMv8 FP32", 4, 32},  {"ARMv8 FP64", 2, 32},
      {"ARMv8 FP16", 8, 32},  {"SVE-256 FP32", 8, 32},
      {"SVE-512 FP32", 16, 32}, {"AVX-512 FP32", 16, 32},
  };
  for (const Isa& isa : isas) {
    for (int S : {1, 3, 5, 7}) {
      const RegisterBlock b = solve_register_block(S, isa.lanes, isa.regs);
      EXPECT_TRUE(register_block_feasible(b.vw, b.vk, S, isa.lanes,
                                          isa.regs))
          << isa.name << " S=" << S;
      // Optimality over the enumerated space.
      const double best = fai_microkernel(b.vw, b.vk, S);
      for (const RegisterBlock& rival :
           feasible_register_blocks(S, isa.lanes, isa.regs)) {
        EXPECT_LE(fai_microkernel(rival.vw, rival.vk, S), best + 1e-9)
            << isa.name << " S=" << S;
      }
    }
  }
}

TEST(GeneralizedSolver, WiderVectorsRaiseAchievableFai) {
  // Section 10.1: wider SVE vectors admit larger blocks. The optimal
  // FAI must be non-decreasing in the lane count.
  double prev = 0;
  for (int lanes : {2, 4, 8, 16}) {
    const RegisterBlock b = solve_register_block(3, lanes, 32);
    const double fai = fai_microkernel(b.vw, b.vk, 3);
    EXPECT_GE(fai, prev) << "lanes=" << lanes;
    prev = fai;
  }
}

TEST(GeneralizedSolver, MoreRegistersNeverHurt) {
  const RegisterBlock small = solve_register_block(3, 4, 16);
  const RegisterBlock big = solve_register_block(3, 4, 32);
  EXPECT_GE(fai_microkernel(big.vw, big.vk, 3),
            fai_microkernel(small.vw, small.vk, 3));
}

// ----------------------------------------------------------------------
// FP64 SIMD primitives
// ----------------------------------------------------------------------

TEST(Vec128d, RoundTripAndFma) {
  const double a[2] = {1.5, -2.5};
  double out[2];
  vstore_f64(out, vload_f64(a));
  EXPECT_EQ(out[0], 1.5);
  EXPECT_EQ(out[1], -2.5);
  vstore_f64(out, vfma_f64(vdup_f64(1.0), vload_f64(a), vdup_f64(10.0)));
  EXPECT_EQ(out[0], 16.0);
  EXPECT_EQ(out[1], -24.0);
  vstore_f64(out, vadd_f64(vzero_f64(), vdup_f64(3.0)));
  EXPECT_EQ(out[0], 3.0);
}

// ----------------------------------------------------------------------
// FP64 convolution
// ----------------------------------------------------------------------

struct F64Buffers {
  std::vector<double> input, filter, out, ref;
};

F64Buffers make_f64_case(const ConvParams& p, unsigned seed) {
  F64Buffers b;
  b.input.resize(static_cast<std::size_t>(p.input_elems()));
  b.filter.resize(static_cast<std::size_t>(p.filter_elems()));
  b.out.resize(static_cast<std::size_t>(p.output_elems()), -1.0);
  b.ref.resize(b.out.size());
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (double& v : b.input) v = dist(rng);
  for (double& v : b.filter) v = dist(rng);
  return b;
}

class Fp64Sweep : public ::testing::TestWithParam<ConvParams> {};

TEST_P(Fp64Sweep, MatchesNaiveFp64) {
  const ConvParams p = GetParam();
  F64Buffers b = make_f64_case(p, 123);
  naive_conv_fp64(b.input.data(), b.filter.data(), b.ref.data(), p);
  ndirect_conv_fp64(b.input.data(), b.filter.data(), b.out.data(), p);
  double max_err = 0;
  std::size_t worst = 0;
  for (std::size_t i = 0; i < b.out.size(); ++i) {
    const double err = std::fabs(b.out[i] - b.ref[i]);
    if (err > max_err) {
      max_err = err;
      worst = i;
    }
  }
  EXPECT_LT(max_err, 1e-10) << "worst at " << worst;
}

INSTANTIATE_TEST_SUITE_P(Shapes, Fp64Sweep,
                         ::testing::ValuesIn(quick_conv_shapes()));

TEST(Fp64Conv, PlanUsesTwoLaneBlocks) {
  const ConvParams p{.N = 1, .C = 32, .H = 14, .W = 14, .K = 32,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  CacheInfo cache{32 << 10, 512 << 10, 0, false};
  const Fp64Plan plan = solve_fp64_plan(p, cache);
  EXPECT_EQ(plan.rb.vw % 2, 0);
  EXPECT_EQ(plan.rb.vk % 2, 0);
  EXPECT_TRUE(
      register_block_feasible(plan.rb.vw, plan.rb.vk, 3, 2, 32));
  // The FP64 block must be smaller than the FP32 one (half the lanes).
  const RegisterBlock fp32 = solve_register_block(3);
  EXPECT_LT(plan.rb.vw * plan.rb.vk, fp32.vw * fp32.vk);
}

TEST(Fp64Conv, HigherPrecisionThanFp32) {
  // The same problem computed in FP64 must be closer to the long-double
  // reference than the FP32 engine's result cast to double.
  const ConvParams p{.N = 1, .C = 48, .H = 10, .W = 10, .K = 16,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  F64Buffers b = make_f64_case(p, 321);
  naive_conv_fp64(b.input.data(), b.filter.data(), b.ref.data(), p);
  ndirect_conv_fp64(b.input.data(), b.filter.data(), b.out.data(), p);
  double f64_err = 0;
  for (std::size_t i = 0; i < b.out.size(); ++i) {
    f64_err = std::max(f64_err, std::fabs(b.out[i] - b.ref[i]));
  }
  EXPECT_LT(f64_err, 1e-12);
}

TEST(Fp64Conv, MultiThreadedMatchesSingle) {
  const ConvParams p{.N = 2, .C = 16, .H = 12, .W = 12, .K = 24,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  F64Buffers b = make_f64_case(p, 222);
  std::vector<double> out2(b.out.size());
  ThreadPool single(1);
  ndirect_conv_fp64(b.input.data(), b.filter.data(), b.out.data(), p,
                    &single);
  // Ragged worker counts leave exhausted workers stealing tiles.
  for (const int threads : {2, 3, 4, 7}) {
    ThreadPool multi(static_cast<std::size_t>(threads));
    ndirect_conv_fp64(b.input.data(), b.filter.data(), out2.data(), p,
                      &multi);
    for (std::size_t i = 0; i < b.out.size(); ++i) {
      ASSERT_EQ(b.out[i], out2[i]) << threads << " threads, " << i;
    }
  }
}

// ----------------------------------------------------------------------
// FP16 conversions
// ----------------------------------------------------------------------

TEST(Fp16, KnownValuesRoundTrip) {
  struct Case {
    float f;
    fp16_t h;
  };
  const Case cases[] = {
      {0.0f, 0x0000},      {1.0f, 0x3C00},    {-2.0f, 0xC000},
      {0.5f, 0x3800},      {65504.0f, 0x7BFF},
      {0.099975586f, 0x2E66},  // closest half to 0.1
      {6.103515625e-05f, 0x0400},  // smallest normal 2^-14
      {5.9604644775390625e-08f, 0x0001},  // smallest subnormal 2^-24
  };
  for (const Case& c : cases) {
    EXPECT_EQ(fp32_to_fp16_soft(c.f), c.h) << c.f;
    EXPECT_EQ(fp16_to_fp32_soft(c.h), c.f) << c.h;
  }
}

TEST(Fp16, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(fp32_to_fp16_soft(inf), 0x7C00);
  EXPECT_EQ(fp32_to_fp16_soft(-inf), 0xFC00);
  EXPECT_EQ(fp32_to_fp16_soft(1e10f), 0x7C00);   // overflow -> inf
  EXPECT_EQ(fp32_to_fp16_soft(65520.0f), 0x7C00);  // ties to inf
  EXPECT_EQ(fp32_to_fp16_soft(65519.0f), 0x7BFF);  // just below: max
  EXPECT_EQ(fp32_to_fp16_soft(1e-10f), 0x0000);  // underflow -> 0
  EXPECT_EQ(fp32_to_fp16_soft(-0.0f), 0x8000);
  EXPECT_TRUE(std::isnan(
      fp16_to_fp32_soft(fp32_to_fp16_soft(std::nanf("")))));
  EXPECT_TRUE(std::isinf(fp16_to_fp32_soft(0x7C00)));
}

TEST(Fp16, EveryHalfValueRoundTripsExactly) {
  // fp16 -> fp32 -> fp16 must be the identity on all 65536 bit
  // patterns except NaNs (payloads may canonicalize).
  for (std::uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const auto h = static_cast<fp16_t>(bits);
    const float f = fp16_to_fp32_soft(h);
    if (std::isnan(f)) continue;
    ASSERT_EQ(fp32_to_fp16_soft(f), h) << "bits=" << bits;
  }
}

#if defined(__F16C__)
TEST(Fp16, SoftwareMatchesHardwareExhaustively) {
  for (std::uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const auto h = static_cast<fp16_t>(bits);
    const float hw = _cvtsh_ss(h);
    const float sw = fp16_to_fp32_soft(h);
    if (std::isnan(hw)) {
      ASSERT_TRUE(std::isnan(sw)) << bits;
    } else {
      ASSERT_EQ(hw, sw) << bits;
    }
  }
}

TEST(Fp16, SoftwareNarrowingMatchesHardwareOnSamples) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> dist(-70000.0f, 70000.0f);
  for (int i = 0; i < 100000; ++i) {
    const float f = dist(rng);
    ASSERT_EQ(fp32_to_fp16_soft(f),
              static_cast<fp16_t>(_cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT)))
        << f;
  }
  std::uniform_real_distribution<float> tiny(-1e-4f, 1e-4f);
  for (int i = 0; i < 100000; ++i) {
    const float f = tiny(rng);
    ASSERT_EQ(fp32_to_fp16_soft(f),
              static_cast<fp16_t>(_cvtss_sh(f, _MM_FROUND_TO_NEAREST_INT)))
        << f;
  }
}
#endif

// ----------------------------------------------------------------------
// FP16 convolution
// ----------------------------------------------------------------------

class Fp16Sweep : public ::testing::TestWithParam<ConvParams> {};

TEST_P(Fp16Sweep, MatchesNaiveFp16) {
  const ConvParams p = GetParam();
  std::vector<fp16_t> in(static_cast<std::size_t>(p.input_elems()));
  std::vector<fp16_t> flt(static_cast<std::size_t>(p.filter_elems()));
  std::vector<fp16_t> out(static_cast<std::size_t>(p.output_elems()));
  std::vector<fp16_t> ref(out.size());
  std::mt19937_64 rng(55);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (fp16_t& v : in) v = fp32_to_fp16(dist(rng));
  for (fp16_t& v : flt) v = fp32_to_fp16(dist(rng));

  naive_conv_fp16(in.data(), flt.data(), ref.data(), p);
  ndirect_conv_fp16(in.data(), flt.data(), out.data(), p);

  // Both accumulate in >= fp32 then narrow once; results may differ by
  // one ULP where the fp32 sums straddle a half-precision tie.
  int ulp_diffs = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float a = fp16_to_fp32(out[i]);
    const float b = fp16_to_fp32(ref[i]);
    const float tol =
        2.0f * std::max(std::fabs(b) * 0.001f, 0.002f);
    ASSERT_NEAR(a, b, tol) << "i=" << i;
    ulp_diffs += out[i] != ref[i];
  }
  // The overwhelming majority must agree bit-exactly.
  EXPECT_LT(ulp_diffs, static_cast<int>(out.size()) / 20 + 4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Fp16Sweep,
                         ::testing::ValuesIn(quick_conv_shapes()));

TEST(Fp16Conv, HalvesTheTensorFootprint) {
  const ConvParams p{.N = 1, .C = 8, .H = 8, .W = 8, .K = 8,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  EXPECT_EQ(sizeof(fp16_t) * p.input_elems(),
            sizeof(float) * p.input_elems() / 2);
}

TEST(Fp16Conv, OutputIsIndependentOfThreadCount) {
  // One tile per output row; the ragged 3- and 7-worker seeds leave
  // exhausted workers stealing rows. Rows are disjoint and carry the
  // whole reduction, so every pool size must match the single-thread
  // output bit for bit.
  const ConvParams p{.N = 2, .C = 12, .H = 13, .W = 17, .K = 20,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  std::vector<fp16_t> in(static_cast<std::size_t>(p.input_elems()));
  std::vector<fp16_t> flt(static_cast<std::size_t>(p.filter_elems()));
  std::mt19937_64 rng(56);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (fp16_t& v : in) v = fp32_to_fp16(dist(rng));
  for (fp16_t& v : flt) v = fp32_to_fp16(dist(rng));
  std::vector<fp16_t> want(static_cast<std::size_t>(p.output_elems()));
  ThreadPool single(1);
  ndirect_conv_fp16(in.data(), flt.data(), want.data(), p, &single);
  for (const int threads : {2, 3, 7}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<fp16_t> got(want.size());
      ndirect_conv_fp16(in.data(), flt.data(), got.data(), p, &pool);
      ASSERT_EQ(got, want) << threads << " threads, rep " << rep;
    }
  }
}

TEST(Fp16Conv, InvalidParamsThrow) {
  ConvParams p{.N = 1, .C = 2, .H = 4, .W = 4, .K = 2, .R = 7, .S = 7,
               .str = 1, .pad = 0};
  std::vector<fp16_t> buf(64);
  EXPECT_THROW(ndirect_conv_fp16(buf.data(), buf.data(), buf.data(), p),
               std::invalid_argument);
  std::vector<double> dbuf(64);
  EXPECT_THROW(ndirect_conv_fp64(dbuf.data(), dbuf.data(), dbuf.data(), p),
               std::invalid_argument);
}

}  // namespace
}  // namespace ndirect
