// Portable 128-bit SIMD vector of 4 floats, modelled on ARMv8 NEON.
//
// The paper's kernels are written against NEON: 32 x 128-bit registers,
// fused multiply-accumulate, and lane-broadcast FMA (FMLA with a lane
// operand). This header reproduces exactly that operation set:
//   * on aarch64 it compiles to the NEON intrinsics the paper uses,
//   * on x86-64 it maps to SSE (+FMA when available),
//   * elsewhere it falls back to scalar code.
// The GEMM, baseline, int8 and depthwise kernels are written against
// this type, as are every kernel's tile stores, so the instruction mix
// (loads, lane FMAs, stores) matches Algorithm 3 independent of the host
// ISA. The fp32 direct-conv FMA loops run on vec<L> (simd/vec.h), whose
// vec<4> is this type and whose 8- and 16-lane forms use the host's
// full vector width.
#pragma once

#include <cstddef>
#include <cstring>

#if defined(__aarch64__)
#include <arm_neon.h>
#define NDIRECT_SIMD_NEON 1
#elif defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#include <immintrin.h>
#define NDIRECT_SIMD_SSE 1
#else
#define NDIRECT_SIMD_SCALAR 1
#endif

namespace ndirect {

/// Number of FP32 lanes in one 128-bit vector (the paper's "4"). The
/// fp32 direct-conv kernels' own lane count is kKernelLanes (simd/vec.h).
inline constexpr int kVecLanes = 4;

/// Number of architectural 128-bit vector registers assumed by the
/// paper's register-budget constraint (Eq. 3). ARMv8 provides V0-V31.
inline constexpr int kNumVecRegs = 32;

/// Whether a broadcast FMA takes its scalar straight from memory. x86
/// broadcasts a float from memory (folded into the FMA's {1to4} operand
/// on AVX-512VL), so the input window costs no registers; NEON's FMLA
/// by element reads the scalar as a lane of a register. The micro-kernel
/// generator picks its tap order from this (DESIGN.md §2).
#if defined(NDIRECT_SIMD_NEON)
inline constexpr bool kLaneOperandFromMemory = false;
#else
inline constexpr bool kLaneOperandFromMemory = true;
#endif

struct vec128f {
#if defined(NDIRECT_SIMD_NEON)
  float32x4_t v;
#elif defined(NDIRECT_SIMD_SSE)
  __m128 v;
#else
  float v[4];
#endif
};

// ---------------------------------------------------------------------------
// Construction / memory
// ---------------------------------------------------------------------------

inline vec128f vzero() {
#if defined(NDIRECT_SIMD_NEON)
  return {vdupq_n_f32(0.0f)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_setzero_ps()};
#else
  return {{0.0f, 0.0f, 0.0f, 0.0f}};
#endif
}

inline vec128f vdup(float x) {
#if defined(NDIRECT_SIMD_NEON)
  return {vdupq_n_f32(x)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_set1_ps(x)};
#else
  return {{x, x, x, x}};
#endif
}

/// Unaligned load of 4 consecutive floats.
inline vec128f vload(const float* p) {
#if defined(NDIRECT_SIMD_NEON)
  return {vld1q_f32(p)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_loadu_ps(p)};
#else
  vec128f r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
#endif
}

/// Unaligned store of 4 consecutive floats.
inline void vstore(float* p, vec128f a) {
#if defined(NDIRECT_SIMD_NEON)
  vst1q_f32(p, a.v);
#elif defined(NDIRECT_SIMD_SSE)
  _mm_storeu_ps(p, a.v);
#else
  std::memcpy(p, a.v, sizeof(a.v));
#endif
}

/// Partial-lane load: the first N floats of p land in lanes [0, N); the
/// remaining lanes are zero. Unlike vload, reads exactly N floats — safe
/// at the very end of a buffer. N must be in [1, 4]; N == 4 is vload.
template <int N>
inline vec128f vload_partial(const float* p) {
  static_assert(N >= 1 && N <= 4);
  if constexpr (N == 4) {
    return vload(p);
  } else {
#if defined(NDIRECT_SIMD_NEON)
    if constexpr (N == 1) {
      return {vld1q_lane_f32(p, vdupq_n_f32(0.0f), 0)};
    } else if constexpr (N == 2) {
      return {vcombine_f32(vld1_f32(p), vdup_n_f32(0.0f))};
    } else {
      const float32x4_t lo = vcombine_f32(vld1_f32(p), vdup_n_f32(0.0f));
      return {vld1q_lane_f32(p + 2, lo, 2)};
    }
#elif defined(NDIRECT_SIMD_SSE)
    if constexpr (N == 1) {
      return {_mm_load_ss(p)};
    } else {
      // 8-byte load into the low half, upper half zero. p is only
      // float-aligned, so the two lanes travel through memcpy (one movsd)
      // rather than a double* dereference.
      double pair = 0.0;
      std::memcpy(&pair, p, sizeof(pair));
      const __m128 lo = _mm_castpd_ps(_mm_set_sd(pair));
      if constexpr (N == 2) {
        return {lo};
      } else {
        return {_mm_movelh_ps(lo, _mm_load_ss(p + 2))};
      }
    }
#else
    vec128f r = vzero();
    std::memcpy(r.v, p, sizeof(float) * N);
    return r;
#endif
  }
}

/// Partial-lane store: writes lanes [0, N) to p and touches exactly N
/// floats of memory — the masked counterpart of vstore for ragged tile
/// edges. N must be in [1, 4]; N == 4 is vstore.
template <int N>
inline void vstore_partial(float* p, vec128f a) {
  static_assert(N >= 1 && N <= 4);
  if constexpr (N == 4) {
    vstore(p, a);
  } else {
#if defined(NDIRECT_SIMD_NEON)
    if constexpr (N == 1) {
      vst1q_lane_f32(p, a.v, 0);
    } else if constexpr (N == 2) {
      vst1_f32(p, vget_low_f32(a.v));
    } else {
      vst1_f32(p, vget_low_f32(a.v));
      vst1q_lane_f32(p + 2, a.v, 2);
    }
#elif defined(NDIRECT_SIMD_SSE)
    if constexpr (N == 1) {
      _mm_store_ss(p, a.v);
    } else {
      // Low two lanes as one 8-byte store, through memcpy because p is
      // only float-aligned.
      const double pair = _mm_cvtsd_f64(_mm_castps_pd(a.v));
      std::memcpy(p, &pair, sizeof(pair));
      if constexpr (N == 3) _mm_store_ss(p + 2, _mm_movehl_ps(a.v, a.v));
    }
#else
    std::memcpy(p, a.v, sizeof(float) * N);
#endif
  }
}

/// Runtime-lane-count wrappers over vload_partial/vstore_partial, for
/// code whose ragged extent is only known per tile. n must be in [1, 4].
inline vec128f vload_lanes(const float* p, int n) {
  switch (n) {
    case 1: return vload_partial<1>(p);
    case 2: return vload_partial<2>(p);
    case 3: return vload_partial<3>(p);
    default: return vload_partial<4>(p);
  }
}

inline void vstore_lanes(float* p, vec128f a, int n) {
  switch (n) {
    case 1: vstore_partial<1>(p, a); break;
    case 2: vstore_partial<2>(p, a); break;
    case 3: vstore_partial<3>(p, a); break;
    default: vstore_partial<4>(p, a); break;
  }
}

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

inline vec128f vadd(vec128f a, vec128f b) {
#if defined(NDIRECT_SIMD_NEON)
  return {vaddq_f32(a.v, b.v)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_add_ps(a.v, b.v)};
#else
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
           a.v[3] + b.v[3]}};
#endif
}

inline vec128f vsub(vec128f a, vec128f b) {
#if defined(NDIRECT_SIMD_NEON)
  return {vsubq_f32(a.v, b.v)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_sub_ps(a.v, b.v)};
#else
  return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
           a.v[3] - b.v[3]}};
#endif
}

inline vec128f vmul(vec128f a, vec128f b) {
#if defined(NDIRECT_SIMD_NEON)
  return {vmulq_f32(a.v, b.v)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_mul_ps(a.v, b.v)};
#else
  return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
           a.v[3] * b.v[3]}};
#endif
}

/// Lane-wise (a > b) ? a : b on every backend — x86 MAXPS's rule, so a
/// tie (such as -0 vs +0) keeps b and a NaN in either operand yields b:
/// bit for bit a scalar std::max(b, a). (NEON's FMAX would order -0
/// below +0 and propagate NaN.)
inline vec128f vmax_ordered(vec128f a, vec128f b) {
#if defined(NDIRECT_SIMD_NEON)
  return {vbslq_f32(vcgtq_f32(a.v, b.v), a.v, b.v)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_max_ps(a.v, b.v)};
#else
  vec128f r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
#endif
}

/// Lane-wise std::max(a, 0.0f): (0 > a) ? 0 : a, so NaN and -0 pass
/// through unchanged. Every ReLU in the library uses this one rule, so a
/// ReLU fused into a store is bitwise the scalar ReluOp.
inline vec128f vrelu(vec128f a) { return vmax_ordered(vzero(), a); }

inline vec128f vmin(vec128f a, vec128f b) {
#if defined(NDIRECT_SIMD_NEON)
  return {vminq_f32(a.v, b.v)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_min_ps(a.v, b.v)};
#else
  vec128f r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  return r;
#endif
}

/// acc + a*b (fused on NEON and on x86 when -mfma is available).
inline vec128f vfma(vec128f acc, vec128f a, vec128f b) {
#if defined(NDIRECT_SIMD_NEON)
  return {vfmaq_f32(acc.v, a.v, b.v)};
#elif defined(NDIRECT_SIMD_SSE)
#if defined(__FMA__)
  return {_mm_fmadd_ps(a.v, b.v, acc.v)};
#else
  return {_mm_add_ps(acc.v, _mm_mul_ps(a.v, b.v))};
#endif
#else
  vec128f r;
  for (int i = 0; i < 4; ++i) r.v[i] = acc.v[i] + a.v[i] * b.v[i];
  return r;
#endif
}

/// acc + a[Lane]*b : the scalar-vector FMA of Algorithm 3 (NEON FMLA with
/// a lane operand). Lane must be in [0, 3].
template <int Lane>
inline vec128f vfma_lane(vec128f acc, vec128f a, vec128f b) {
  static_assert(Lane >= 0 && Lane < 4);
#if defined(NDIRECT_SIMD_NEON)
  return {vfmaq_laneq_f32(acc.v, b.v, a.v, Lane)};
#elif defined(NDIRECT_SIMD_SSE)
  const __m128 lane =
      _mm_shuffle_ps(a.v, a.v, _MM_SHUFFLE(Lane, Lane, Lane, Lane));
#if defined(__FMA__)
  return {_mm_fmadd_ps(lane, b.v, acc.v)};
#else
  return {_mm_add_ps(acc.v, _mm_mul_ps(lane, b.v))};
#endif
#else
  vec128f r;
  for (int i = 0; i < 4; ++i) r.v[i] = acc.v[i] + a.v[Lane] * b.v[i];
  return r;
#endif
}

// ---------------------------------------------------------------------------
// Lane access / horizontal ops
// ---------------------------------------------------------------------------

template <int Lane>
inline float vget_lane(vec128f a) {
  static_assert(Lane >= 0 && Lane < 4);
#if defined(NDIRECT_SIMD_NEON)
  return vgetq_lane_f32(a.v, Lane);
#elif defined(NDIRECT_SIMD_SSE)
  return _mm_cvtss_f32(
      _mm_shuffle_ps(a.v, a.v, _MM_SHUFFLE(Lane, Lane, Lane, Lane)));
#else
  return a.v[Lane];
#endif
}

inline float vget_lane_dyn(vec128f a, int lane) {
  float tmp[4];
  vstore(tmp, a);
  return tmp[lane];
}

/// Horizontal sum of the 4 lanes.
inline float vreduce_add(vec128f a) {
#if defined(NDIRECT_SIMD_NEON)
  return vaddvq_f32(a.v);
#elif defined(NDIRECT_SIMD_SSE)
  __m128 shuf = _mm_shuffle_ps(a.v, a.v, _MM_SHUFFLE(2, 3, 0, 1));
  __m128 sums = _mm_add_ps(a.v, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  sums = _mm_add_ss(sums, shuf);
  return _mm_cvtss_f32(sums);
#else
  return a.v[0] + a.v[1] + a.v[2] + a.v[3];
#endif
}

/// In-register 4x4 transpose. Used to convert the micro-kernel's
/// K-vectorized accumulators into W-contiguous rows before an NCHW store.
inline void vtranspose4x4(vec128f& r0, vec128f& r1, vec128f& r2,
                          vec128f& r3) {
#if defined(NDIRECT_SIMD_NEON)
  const float32x4x2_t t01 = vtrnq_f32(r0.v, r1.v);
  const float32x4x2_t t23 = vtrnq_f32(r2.v, r3.v);
  r0.v = vcombine_f32(vget_low_f32(t01.val[0]), vget_low_f32(t23.val[0]));
  r1.v = vcombine_f32(vget_low_f32(t01.val[1]), vget_low_f32(t23.val[1]));
  r2.v = vcombine_f32(vget_high_f32(t01.val[0]), vget_high_f32(t23.val[0]));
  r3.v = vcombine_f32(vget_high_f32(t01.val[1]), vget_high_f32(t23.val[1]));
#elif defined(NDIRECT_SIMD_SSE)
  _MM_TRANSPOSE4_PS(r0.v, r1.v, r2.v, r3.v);
#else
  float m[4][4];
  vstore(m[0], r0);
  vstore(m[1], r1);
  vstore(m[2], r2);
  vstore(m[3], r3);
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j) {
      const float t = m[i][j];
      m[i][j] = m[j][i];
      m[j][i] = t;
    }
  r0 = vload(m[0]);
  r1 = vload(m[1]);
  r2 = vload(m[2]);
  r3 = vload(m[3]);
#endif
}

/// Split the 8 floats of (a, b) by index parity: *even = {a0, a2, b0,
/// b2}, *odd = {a1, a3, b1, b3}. The stride-2 column de-interleave of
/// the depthwise pack.
inline void vdeinterleave(vec128f a, vec128f b, vec128f* even,
                          vec128f* odd) {
#if defined(NDIRECT_SIMD_NEON)
  even->v = vuzp1q_f32(a.v, b.v);
  odd->v = vuzp2q_f32(a.v, b.v);
#elif defined(NDIRECT_SIMD_SSE)
  even->v = _mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(2, 0, 2, 0));
  odd->v = _mm_shuffle_ps(a.v, b.v, _MM_SHUFFLE(3, 1, 3, 1));
#else
  *even = {{a.v[0], a.v[2], b.v[0], b.v[2]}};
  *odd = {{a.v[1], a.v[3], b.v[1], b.v[3]}};
#endif
}

/// Software prefetch hint (no-op where unsupported).
inline void vprefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Name of the active backend, for logging/bench headers.
inline const char* simd_backend_name() {
#if defined(NDIRECT_SIMD_NEON)
  return "neon";
#elif defined(NDIRECT_SIMD_SSE)
  return "sse";
#else
  return "scalar";
#endif
}

}  // namespace ndirect
