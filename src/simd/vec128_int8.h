// Portable 128-bit int8 dot-product primitives (the int8 companion of
// vec128.h), modelled on the ARMv8.2 dot-product extension.
//
// The workhorse is the 4-way dot product SDOT: each of the four 32-bit
// accumulator lanes gains the dot product of four consecutive signed
// bytes from each operand. One instruction therefore performs 16 MACs —
// 4x the arithmetic of an FP32 FMA on the same 128-bit register, which
// is exactly the lever that moves the paper's bandwidth-bound layers up
// the roofline.
//
// Three implementations share one exact-integer semantic:
//   * native   — vdotq_s32 when the compiler targets +dotprod
//                (__ARM_FEATURE_DOTPROD); only then is
//                NDIRECT_INT8_DOT_COMPILED 1,
//   * emulated — the widening-multiply ladder: NEON SMULL/SMLAL pairs
//                (vmull_s8 + vpaddlq_s16 + vpaddq_s32), SSE4.1
//                sign-extend + PMADDWD (exact, unlike PMADDUBSW whose
//                int16 pair saturation silently corrupts u8xs8 sums),
//                or scalar loops elsewhere,
//   * scalar   — plain C loops, the parity reference.
// All three produce bitwise-identical int32 accumulators (every path is
// exact integer arithmetic; nothing saturates before the accumulator),
// which the quantized parity sweep asserts.
//
// On x86 the native dot is AVX512-VNNI's VPDPBUSD at 16 int32 lanes
// (vec_i32<16>, a zmm register): the same 4-way dot, but u8 x s8, so
// the kernels built on it take raw u8 activations instead of the
// XOR-0x80 s8 shift (core/quantized_microkernel.h). It wraps modulo
// 2^32 like every other vector add here; the engine's compensation is
// modular too, so the compensated result is exact (DESIGN.md §14).
// NDIRECT_INT8_DOT_COMPILED is 1 on +dotprod NEON (kI8DotLanes = 4)
// and on AVX-512F + AVX512-VNNI builds (kI8DotLanes = 16), where the
// fp32 kernels also run 16 lanes (simd/vec.h).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#include "simd/vec128.h"

#if defined(NDIRECT_SIMD_NEON) && defined(__ARM_FEATURE_DOTPROD)
#define NDIRECT_INT8_DOT_COMPILED 1
#define NDIRECT_INT8_DOT_VNNI 0
#elif defined(NDIRECT_SIMD_SSE) && defined(__AVX512F__) && \
    defined(__AVX512VNNI__) && defined(__FMA__)
#define NDIRECT_INT8_DOT_COMPILED 1
#define NDIRECT_INT8_DOT_VNNI 1
#else
#define NDIRECT_INT8_DOT_COMPILED 0
#define NDIRECT_INT8_DOT_VNNI 0
#endif

namespace ndirect {

/// int32 lanes of the native dot backend's accumulator vector.
inline constexpr int kI8DotLanes = NDIRECT_INT8_DOT_VNNI ? 16 : 4;

/// 16 signed bytes (4 groups of 4 channels in the int8 kernel layout).
struct vec128b {
#if defined(NDIRECT_SIMD_NEON)
  int8x16_t v;
#elif defined(NDIRECT_SIMD_SSE)
  __m128i v;
#else
  std::int8_t v[16];
#endif
};

/// 4 int32 accumulator lanes.
struct vec128i {
#if defined(NDIRECT_SIMD_NEON)
  int32x4_t v;
#elif defined(NDIRECT_SIMD_SSE)
  __m128i v;
#else
  std::int32_t v[4];
#endif
};

// ---------------------------------------------------------------------------
// Loads / stores
// ---------------------------------------------------------------------------

inline vec128b vload_b(const std::int8_t* p) {
#if defined(NDIRECT_SIMD_NEON)
  return {vld1q_s8(p)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
#else
  vec128b r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
#endif
}

inline vec128i vzero_i32() {
#if defined(NDIRECT_SIMD_NEON)
  return {vdupq_n_s32(0)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_setzero_si128()};
#else
  return {{0, 0, 0, 0}};
#endif
}

inline vec128i vdup_i32(std::int32_t x) {
#if defined(NDIRECT_SIMD_NEON)
  return {vdupq_n_s32(x)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_set1_epi32(x)};
#else
  return {{x, x, x, x}};
#endif
}

inline vec128i vload_i32(const std::int32_t* p) {
#if defined(NDIRECT_SIMD_NEON)
  return {vld1q_s32(p)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
#else
  vec128i r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
#endif
}

inline void vstore_i32(std::int32_t* p, vec128i a) {
#if defined(NDIRECT_SIMD_NEON)
  vst1q_s32(p, a.v);
#elif defined(NDIRECT_SIMD_SSE)
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
#else
  std::memcpy(p, a.v, sizeof(a.v));
#endif
}

inline vec128i vadd_i32(vec128i a, vec128i b) {
#if defined(NDIRECT_SIMD_NEON)
  return {vaddq_s32(a.v, b.v)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_add_epi32(a.v, b.v)};
#else
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
           a.v[3] + b.v[3]}};
#endif
}

/// Convert 4 int32 lanes to float (the requantize/dequantize epilogue's
/// first step).
inline vec128f vcvt_f32_i32(vec128i a) {
#if defined(NDIRECT_SIMD_NEON)
  return {vcvtq_f32_s32(a.v)};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_cvtepi32_ps(a.v)};
#else
  return {{static_cast<float>(a.v[0]), static_cast<float>(a.v[1]),
           static_cast<float>(a.v[2]), static_cast<float>(a.v[3])}};
#endif
}

/// Broadcast one 32-bit lane (a 4-channel input group) across the
/// vector — the int8 analogue of the lane operand in vfma_lane.
template <int Lane>
inline vec128b vdup_group(vec128b x) {
  static_assert(Lane >= 0 && Lane < 4);
#if defined(NDIRECT_SIMD_NEON)
  return {vreinterpretq_s8_s32(
      vdupq_laneq_s32(vreinterpretq_s32_s8(x.v), Lane))};
#elif defined(NDIRECT_SIMD_SSE)
  return {_mm_shuffle_epi32(x.v, _MM_SHUFFLE(Lane, Lane, Lane, Lane))};
#else
  vec128b r;
  for (int g = 0; g < 4; ++g) {
    std::memcpy(r.v + 4 * g, x.v + 4 * Lane, 4);
  }
  return r;
#endif
}

/// In-register 4x4 int32 transpose (K-vectorized accumulators ->
/// W-contiguous rows, mirroring vtranspose4x4 for the fp32 store).
inline void vtranspose4x4_i32(vec128i& r0, vec128i& r1, vec128i& r2,
                              vec128i& r3) {
#if defined(NDIRECT_SIMD_NEON)
  const int32x4x2_t t01 = vtrnq_s32(r0.v, r1.v);
  const int32x4x2_t t23 = vtrnq_s32(r2.v, r3.v);
  r0.v = vcombine_s32(vget_low_s32(t01.val[0]), vget_low_s32(t23.val[0]));
  r1.v = vcombine_s32(vget_low_s32(t01.val[1]), vget_low_s32(t23.val[1]));
  r2.v =
      vcombine_s32(vget_high_s32(t01.val[0]), vget_high_s32(t23.val[0]));
  r3.v =
      vcombine_s32(vget_high_s32(t01.val[1]), vget_high_s32(t23.val[1]));
#elif defined(NDIRECT_SIMD_SSE)
  const __m128i a01 = _mm_unpacklo_epi32(r0.v, r1.v);
  const __m128i a23 = _mm_unpacklo_epi32(r2.v, r3.v);
  const __m128i b01 = _mm_unpackhi_epi32(r0.v, r1.v);
  const __m128i b23 = _mm_unpackhi_epi32(r2.v, r3.v);
  r0.v = _mm_unpacklo_epi64(a01, a23);
  r1.v = _mm_unpackhi_epi64(a01, a23);
  r2.v = _mm_unpacklo_epi64(b01, b23);
  r3.v = _mm_unpackhi_epi64(b01, b23);
#else
  std::int32_t m[4][4];
  vstore_i32(m[0], r0);
  vstore_i32(m[1], r1);
  vstore_i32(m[2], r2);
  vstore_i32(m[3], r3);
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j) {
      const std::int32_t t = m[i][j];
      m[i][j] = m[j][i];
      m[j][i] = t;
    }
  r0 = vload_i32(m[0]);
  r1 = vload_i32(m[1]);
  r2 = vload_i32(m[2]);
  r3 = vload_i32(m[3]);
#endif
}

// ---------------------------------------------------------------------------
// The 4-way dot product
// ---------------------------------------------------------------------------

#if NDIRECT_INT8_DOT_COMPILED && !NDIRECT_INT8_DOT_VNNI
/// Native SDOT: acc lane i += dot(a[4i..4i+3], b[4i..4i+3]).
inline vec128i vdot_s8_native(vec128i acc, vec128b a, vec128b b) {
  return {vdotq_s32(acc.v, a.v, b.v)};
}
#endif

/// Widening-multiply emulation of SDOT with identical (exact) results:
/// s8 x s8 products fit int16, pairwise sums fit int32 — nothing
/// saturates on any path.
inline vec128i vdot_s8_emul(vec128i acc, vec128b a, vec128b b) {
#if defined(NDIRECT_SIMD_NEON)
  const int16x8_t p_lo = vmull_s8(vget_low_s8(a.v), vget_low_s8(b.v));
  const int16x8_t p_hi = vmull_s8(vget_high_s8(a.v), vget_high_s8(b.v));
  const int32x4_t s_lo = vpaddlq_s16(p_lo);  // pairs -> 4 int32
  const int32x4_t s_hi = vpaddlq_s16(p_hi);
  return {vaddq_s32(acc.v, vpaddq_s32(s_lo, s_hi))};
#elif defined(NDIRECT_SIMD_SSE) && defined(__SSE4_1__)
  // Sign-extend both byte halves to int16 and PMADDWD them: exact
  // int32 pair sums, then one HADD folds pairs into the 4 group dots.
  const __m128i a_lo = _mm_cvtepi8_epi16(a.v);
  const __m128i b_lo = _mm_cvtepi8_epi16(b.v);
  const __m128i a_hi = _mm_cvtepi8_epi16(_mm_srli_si128(a.v, 8));
  const __m128i b_hi = _mm_cvtepi8_epi16(_mm_srli_si128(b.v, 8));
  const __m128i m_lo = _mm_madd_epi16(a_lo, b_lo);  // 4 pair-sums
  const __m128i m_hi = _mm_madd_epi16(a_hi, b_hi);
  return {_mm_add_epi32(acc.v, _mm_hadd_epi32(m_lo, m_hi))};
#else
  std::int8_t av[16], bv[16];
  std::int32_t accv[4];
  std::memcpy(av, &a, 16);
  std::memcpy(bv, &b, 16);
  vstore_i32(accv, acc);
  for (int g = 0; g < 4; ++g) {
    std::int32_t dot = 0;
    for (int i = 0; i < 4; ++i) {
      dot += static_cast<std::int32_t>(av[4 * g + i]) *
             static_cast<std::int32_t>(bv[4 * g + i]);
    }
    accv[g] += dot;
  }
  return vload_i32(accv);
#endif
}

// ---------------------------------------------------------------------------
// The int32 accumulator vector of L lanes the kernels are generated for
// ---------------------------------------------------------------------------

/// vec_i32<4> is vec128i (the emulated ladder and NEON SDOT);
/// vec_i32<16> is a zmm register of the VNNI kernels. Both leave the
/// kernel through 128-bit quarters, so the tile store has one
/// implementation at every width.
template <int L>
struct vec_i32;

template <>
struct vec_i32<4> {
  vec128i v;

  static vec_i32 zero() { return {vzero_i32()}; }
  template <int Q>
  vec128i quarter() const {
    static_assert(Q == 0);
    return v;
  }
};

#if NDIRECT_INT8_DOT_VNNI
template <>
struct vec_i32<16> {
  __m512i v;

  static vec_i32 zero() { return {_mm512_setzero_si512()}; }
  /// The 4 u8 channel bytes at p in every 32-bit lane (one input group).
  static __m512i broadcast_group(const std::int8_t* p) {
    std::int32_t g;
    std::memcpy(&g, p, sizeof(g));
    return _mm512_set1_epi32(g);
  }
  /// 16 lanes x 4 s8 filter bytes.
  static __m512i load(const std::int8_t* p) {
    return _mm512_loadu_si512(p);
  }
  /// VPDPBUSD: lane i += dot(u8 u[4i..4i+3], s8 f[4i..4i+3]), wrapping.
  static vec_i32 dot(vec_i32 acc, __m512i u, __m512i f) {
    return {_mm512_dpbusd_epi32(acc.v, u, f)};
  }
  /// Lanes [4Q, 4Q + 4). (__builtin_shufflevector, not the extract
  /// intrinsic, for the reason given in simd/vec.h.)
  template <int Q>
  vec128i quarter() const {
    static_assert(Q >= 0 && Q < 4);
    using v16si = int __attribute__((vector_size(64)));
    using v4si = int __attribute__((vector_size(16)));
    const v16si x = reinterpret_cast<v16si>(v);
    const v4si q =
        __builtin_shufflevector(x, x, 4 * Q, 4 * Q + 1, 4 * Q + 2, 4 * Q + 3);
    return {reinterpret_cast<__m128i>(q)};
  }
};
#endif

/// Round float lanes to nearest-even integers (the requantize rounding
/// contract). NEON FRINTN / SSE4.1 ROUNDPS round-to-nearest are RNE by
/// definition; the scalar path assumes the default FE_TONEAREST mode.
inline vec128f vround_ne(vec128f a) {
#if defined(NDIRECT_SIMD_NEON)
  return {vrndnq_f32(a.v)};
#elif defined(NDIRECT_SIMD_SSE) && defined(__SSE4_1__)
  return {_mm_round_ps(a.v, _MM_FROUND_TO_NEAREST_INT |
                                _MM_FROUND_NO_EXC)};
#else
  float t[4];
  vstore(t, a);
  for (float& x : t) x = std::nearbyintf(x);
  return vload(t);
#endif
}

}  // namespace ndirect
