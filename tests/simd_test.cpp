// Tests for the NEON-model 128-bit SIMD abstraction and the wide
// vec<L> the fp32 direct-conv kernels are generated for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "simd/vec.h"
#include "simd/vec128.h"

namespace ndirect {
namespace {

TEST(Vec128, LoadStoreRoundTrip) {
  const float src[4] = {1.5f, -2.25f, 3.0f, 0.0f};
  float dst[4] = {};
  vstore(dst, vload(src));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], src[i]);
}

TEST(Vec128, UnalignedLoad) {
  alignas(64) float buf[9] = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  float dst[4];
  vstore(dst, vload(buf + 1));  // deliberately misaligned by 4 bytes
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], static_cast<float>(i + 1));
}

TEST(Vec128, ZeroAndBroadcast) {
  float z[4], d[4];
  vstore(z, vzero());
  vstore(d, vdup(7.5f));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(z[i], 0.0f);
    EXPECT_EQ(d[i], 7.5f);
  }
}

TEST(Vec128, Arithmetic) {
  const float a[4] = {1, 2, 3, 4}, b[4] = {10, 20, 30, 40};
  float sum[4], diff[4], prod[4], mn[4];
  vstore(sum, vadd(vload(a), vload(b)));
  vstore(diff, vsub(vload(b), vload(a)));
  vstore(prod, vmul(vload(a), vload(b)));
  vstore(mn, vmin(vload(a), vload(b)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sum[i], a[i] + b[i]);
    EXPECT_EQ(diff[i], b[i] - a[i]);
    EXPECT_EQ(prod[i], a[i] * b[i]);
    EXPECT_EQ(mn[i], a[i]);
  }
}

TEST(Vec128, ReluIsStdMaxWithZeroBitForBit) {
  // The ReLU every fused store applies must be the scalar ReluOp's
  // std::max(x, 0.0f), NaN and -0 included.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float in[8] = {nan, -0.0f, 0.0f, -2.5f, 3.0f, -nan, -1e-30f, 1e30f};
  for (int base : {0, 4}) {
    float got[4];
    vstore(got, vrelu(vload(in + base)));
    for (int i = 0; i < 4; ++i) {
      const float want = std::max(in[base + i], 0.0f);
      EXPECT_EQ(std::memcmp(&got[i], &want, sizeof(float)), 0)
          << "lane " << base + i;
    }
  }
}

TEST(Vec128, MaxOrderedKeepsTheSecondOperandOnTies) {
  // (a > b) ? a : b on every backend, so a signed-zero tie resolves the
  // same way as a scalar std::max(b, a).
  const float a[4] = {0.0f, -0.0f, 2.0f, -1.0f};
  const float b[4] = {-0.0f, 0.0f, 1.0f, 3.0f};
  float r[4];
  vstore(r, vmax_ordered(vload(a), vload(b)));
  for (int i = 0; i < 4; ++i) {
    const float want = std::max(b[i], a[i]);
    EXPECT_EQ(r[i], want);
    EXPECT_EQ(std::signbit(r[i]), std::signbit(want)) << "lane " << i;
  }
}

TEST(Vec128, FusedMultiplyAdd) {
  const float acc[4] = {1, 1, 1, 1}, a[4] = {2, 3, 4, 5},
              b[4] = {10, 10, 10, 10};
  float r[4];
  vstore(r, vfma(vload(acc), vload(a), vload(b)));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r[i], 1.0f + a[i] * 10.0f);
}

TEST(Vec128, LaneFmaMatchesScalar) {
  const float acc[4] = {0.5f, -1.0f, 2.0f, 0.0f};
  const float a[4] = {2, 3, 4, 5};
  const float b[4] = {1, 10, 100, 1000};
  float r0[4], r1[4], r2[4], r3[4];
  vstore(r0, vfma_lane<0>(vload(acc), vload(a), vload(b)));
  vstore(r1, vfma_lane<1>(vload(acc), vload(a), vload(b)));
  vstore(r2, vfma_lane<2>(vload(acc), vload(a), vload(b)));
  vstore(r3, vfma_lane<3>(vload(acc), vload(a), vload(b)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(r0[i], acc[i] + a[0] * b[i]);
    EXPECT_FLOAT_EQ(r1[i], acc[i] + a[1] * b[i]);
    EXPECT_FLOAT_EQ(r2[i], acc[i] + a[2] * b[i]);
    EXPECT_FLOAT_EQ(r3[i], acc[i] + a[3] * b[i]);
  }
}

TEST(Vec128, LaneExtraction) {
  const float a[4] = {11, 22, 33, 44};
  const vec128f v = vload(a);
  EXPECT_EQ(vget_lane<0>(v), 11.0f);
  EXPECT_EQ(vget_lane<1>(v), 22.0f);
  EXPECT_EQ(vget_lane<2>(v), 33.0f);
  EXPECT_EQ(vget_lane<3>(v), 44.0f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(vget_lane_dyn(v, i), a[i]);
}

TEST(Vec128, ReduceAdd) {
  const float a[4] = {1.5f, 2.5f, -3.0f, 10.0f};
  EXPECT_FLOAT_EQ(vreduce_add(vload(a)), 11.0f);
}

TEST(Vec128, Transpose4x4) {
  float m[4][4];
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) m[i][j] = static_cast<float>(i * 10 + j);
  vec128f r0 = vload(m[0]), r1 = vload(m[1]), r2 = vload(m[2]),
          r3 = vload(m[3]);
  vtranspose4x4(r0, r1, r2, r3);
  float t[4][4];
  vstore(t[0], r0);
  vstore(t[1], r1);
  vstore(t[2], r2);
  vstore(t[3], r3);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_EQ(t[i][j], m[j][i]);
}

TEST(Vec128, TransposeIsAnInvolution) {
  float m[4][4];
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) m[i][j] = static_cast<float>(i * 4 + j) * 0.5f;
  vec128f r[4] = {vload(m[0]), vload(m[1]), vload(m[2]), vload(m[3])};
  vtranspose4x4(r[0], r[1], r[2], r[3]);
  vtranspose4x4(r[0], r[1], r[2], r[3]);
  for (int i = 0; i < 4; ++i) {
    float row[4];
    vstore(row, r[i]);
    for (int j = 0; j < 4; ++j) EXPECT_EQ(row[j], m[i][j]);
  }
}

TEST(Vec128, ConstantsMatchTheNeonModel) {
  EXPECT_EQ(kVecLanes, 4);
  EXPECT_EQ(kNumVecRegs, 32);
}

TEST(Vec128, BackendNameIsKnown) {
  const std::string name = simd_backend_name();
  EXPECT_TRUE(name == "neon" || name == "sse" || name == "scalar");
}

TEST(Vec128, PartialLoadZeroFillsUpperLanes) {
  const float src[4] = {1.5f, -2.25f, 3.0f, 4.75f};
  float dst[4];
  vstore(dst, vload_partial<1>(src));
  EXPECT_EQ(dst[0], src[0]);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(dst[i], 0.0f) << i;
  vstore(dst, vload_partial<2>(src));
  for (int i = 0; i < 2; ++i) EXPECT_EQ(dst[i], src[i]) << i;
  for (int i = 2; i < 4; ++i) EXPECT_EQ(dst[i], 0.0f) << i;
  vstore(dst, vload_partial<3>(src));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(dst[i], src[i]) << i;
  EXPECT_EQ(dst[3], 0.0f);
  vstore(dst, vload_partial<4>(src));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], src[i]) << i;
}

TEST(Vec128, PartialStoreTouchesExactlyNLanes) {
  const float src[4] = {10.0f, 20.0f, 30.0f, 40.0f};
  // A sentinel beyond every store width proves nothing past lane N-1
  // is written — partial stores must be safe at buffer ends.
  float dst[5];
  auto reset = [&] {
    for (float& v : dst) v = -9.0f;
  };
  reset();
  vstore_partial<1>(dst, vload(src));
  EXPECT_EQ(dst[0], 10.0f);
  for (int i = 1; i < 5; ++i) EXPECT_EQ(dst[i], -9.0f) << i;
  reset();
  vstore_partial<2>(dst, vload(src));
  EXPECT_EQ(dst[0], 10.0f);
  EXPECT_EQ(dst[1], 20.0f);
  for (int i = 2; i < 5; ++i) EXPECT_EQ(dst[i], -9.0f) << i;
  reset();
  vstore_partial<3>(dst, vload(src));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(dst[i], src[i]) << i;
  }
  for (int i = 3; i < 5; ++i) EXPECT_EQ(dst[i], -9.0f) << i;
  reset();
  vstore_partial<4>(dst, vload(src));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dst[i], src[i]) << i;
  EXPECT_EQ(dst[4], -9.0f);
}

TEST(Vec128, RuntimeLaneHelpersMatchTemplates) {
  const float src[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  for (int n = 1; n <= 4; ++n) {
    float a[4], b[4];
    vstore(a, vload_lanes(src, n));
    switch (n) {
      case 1: vstore(b, vload_partial<1>(src)); break;
      case 2: vstore(b, vload_partial<2>(src)); break;
      case 3: vstore(b, vload_partial<3>(src)); break;
      default: vstore(b, vload_partial<4>(src)); break;
    }
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a[i], b[i]) << n << " " << i;

    float sa[5], sb[5];
    for (int i = 0; i < 5; ++i) sa[i] = sb[i] = -3.0f;
    vstore_lanes(sa, vload(src), n);
    switch (n) {
      case 1: vstore_partial<1>(sb, vload(src)); break;
      case 2: vstore_partial<2>(sb, vload(src)); break;
      case 3: vstore_partial<3>(sb, vload(src)); break;
      default: vstore_partial<4>(sb, vload(src)); break;
    }
    for (int i = 0; i < 5; ++i) EXPECT_EQ(sa[i], sb[i]) << n << " " << i;
  }
}

// ---------------------------------------------------------------------
// vec<kKernelLanes>: the fp32 kernels' vector.

TEST(VecWide, KernelLanesFollowTheTarget) {
#if defined(__AVX512F__) && defined(__FMA__)
  EXPECT_EQ(kKernelLanes, 16);
  EXPECT_EQ(kKernelRegs, 32);
#else
  EXPECT_EQ(kKernelLanes, 4);
  EXPECT_EQ(kKernelRegs, 32);
#endif
}

TEST(VecWide, QuartersHoldTheLanesInOrder) {
  using V = vec<kKernelLanes>;
  float src[kKernelLanes];
  for (int i = 0; i < kKernelLanes; ++i) src[i] = 0.5f * i - 3.0f;
  const V v = V::load(src);
  float got[kKernelLanes];
  [&]<int... Qs>(std::integer_sequence<int, Qs...>) {
    (vstore(got + 4 * Qs, v.template quarter<Qs>()), ...);
  }(std::make_integer_sequence<int, kKernelLanes / 4>{});
  for (int i = 0; i < kKernelLanes; ++i) EXPECT_EQ(got[i], src[i]) << i;
}

TEST(VecWide, FmaRoundsLikeThe128BitFma) {
  // acc + a*b with one rounding, lane for lane the vec128f result: the
  // parity of wide kernels with the 128-bit generic kernel rests on it.
  using V = vec<kKernelLanes>;
  float acc[kKernelLanes], b[kKernelLanes];
  for (int i = 0; i < kKernelLanes; ++i) {
    acc[i] = 1.0f / (i + 3);
    b[i] = 0.1f * (i + 1) - 0.7f;
  }
  const float x = 1.0f / 3.0f;
  const V r = V::fma(V::load(acc), V::dup(x), V::load(b));
  float got[kKernelLanes];
  [&]<int... Qs>(std::integer_sequence<int, Qs...>) {
    (vstore(got + 4 * Qs, r.template quarter<Qs>()), ...);
  }(std::make_integer_sequence<int, kKernelLanes / 4>{});
  for (int q = 0; q < kKernelLanes / 4; ++q) {
    float want[4];
    vstore(want, vfma(vload(acc + 4 * q), vdup(x), vload(b + 4 * q)));
    for (int i = 0; i < 4; ++i) EXPECT_EQ(got[4 * q + i], want[i]);
  }
  const V z = V::zero();
  EXPECT_EQ(vget_lane<0>(z.template quarter<0>()), 0.0f);
}

TEST(VecWide, FirstLanesAndDeinterleaveTouchOnlyTheirFloats) {
  // The depthwise pack reads and writes row ends with these: a partial
  // load zero-fills the lanes past n, a partial store leaves every
  // float past n as it was, and the de-interleave splits 2L floats by
  // index parity.
  using V = vec<kKernelLanes>;
  constexpr int L = kKernelLanes;
  float src[2 * L];
  for (int i = 0; i < 2 * L; ++i) src[i] = 1.0f + i;
  for (int n = -1; n <= L + 1; ++n) {
    float got[L + 1];
    V::load_first(src, n).store(got);
    for (int i = 0; i < L; ++i) {
      EXPECT_EQ(got[i], i < n ? src[i] : 0.0f) << "load n=" << n << " " << i;
    }
    for (float& x : got) x = -7.0f;
    V::load(src).store_first(got, n);
    for (int i = 0; i <= L; ++i) {
      EXPECT_EQ(got[i], i < std::min(n, L) ? src[i] : -7.0f)
          << "store n=" << n << " " << i;
    }
  }
  V even, odd;
  V::deinterleave(V::load(src), V::load(src + L), &even, &odd);
  float e[L], o[L];
  even.store(e);
  odd.store(o);
  for (int i = 0; i < L; ++i) {
    EXPECT_EQ(e[i], src[2 * i]) << i;
    EXPECT_EQ(o[i], src[2 * i + 1]) << i;
  }
}

}  // namespace
}  // namespace ndirect
