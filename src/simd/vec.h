// The fp32 vector of L lanes the direct-conv micro-kernels are generated
// for (core/microkernel_generator.h).
//
// vec<4> is the paper's 128-bit vector (vec128f: NEON, SSE or scalar).
// vec<16> (AVX-512F, zmm) carries only what the kernels' FMA loop
// issues — zero, broadcast, load, FMA — plus the extract of one 128-bit
// quarter: the tile store splits the wide accumulators into quarters
// and stores them through vec128f, so the store epilogue has one
// implementation at every width. (The quarters come from
// __builtin_shufflevector: GCC 12's extract intrinsics seed an
// undefined vector that trips -Wmaybe-uninitialized.) The depthwise
// engine (core/depthwise.cpp) adds a full-width store, loads and stores
// of the first n lanes and the stride-2 de-interleave of its plane
// pack.
//
// kKernelLanes follows the compile target, with no runtime switch:
// 16 where AVX-512F is enabled (32 zmm registers, the paper's Eq. 3
// budget), 4 everywhere else — NEON, SSE, AVX2 and the scalar fallback.
// An 8-lane AVX2 leg is not built: no benchmarked target is AVX2-only,
// and 16 lanes beat 8 where both run.
#pragma once

#include "simd/vec128.h"

namespace ndirect {

#if defined(NDIRECT_SIMD_SSE) && defined(__AVX512F__) && defined(__FMA__)
inline constexpr int kKernelLanes = 16;
inline constexpr int kKernelRegs = 32;
#else
inline constexpr int kKernelLanes = kVecLanes;
inline constexpr int kKernelRegs = kNumVecRegs;
#endif

template <int L>
struct vec;

template <>
struct vec<4> {
  vec128f v;

  static vec zero() { return {vzero()}; }
  static vec dup(float x) { return {vdup(x)}; }
  static vec load(const float* p) { return {vload(p)}; }
  /// acc + a*b.
  static vec fma(vec acc, vec a, vec b) { return {vfma(acc.v, a.v, b.v)}; }
  template <int Q>
  vec128f quarter() const {
    static_assert(Q == 0);
    return v;
  }
  void store(float* p) const { vstore(p, v); }
  /// p[0, n) in the first lanes, zero in the rest; reads only those n
  /// floats (n <= 0: none).
  static vec load_first(const float* p, int n) {
    return {n >= 4 ? vload(p) : n <= 0 ? vzero() : vload_lanes(p, n)};
  }
  /// The first n lanes to p[0, n); writes nothing else (n <= 0: none).
  void store_first(float* p, int n) const {
    if (n >= 4) {
      vstore(p, v);
    } else if (n > 0) {
      vstore_lanes(p, v, n);
    }
  }
  /// The lanes of (a, b) split by index parity: even = a0, a2, ..., b0,
  /// b2, ...; odd = a1, a3, ..., b1, b3, ...
  static void deinterleave(vec a, vec b, vec* even, vec* odd) {
    vdeinterleave(a.v, b.v, &even->v, &odd->v);
  }
};

#if defined(NDIRECT_SIMD_SSE) && defined(__AVX512F__) && defined(__FMA__)
template <>
struct vec<16> {
  __m512 v;

  static vec zero() { return {_mm512_setzero_ps()}; }
  static vec dup(float x) { return {_mm512_set1_ps(x)}; }
  static vec load(const float* p) { return {_mm512_loadu_ps(p)}; }
  static vec fma(vec acc, vec a, vec b) {
    return {_mm512_fmadd_ps(a.v, b.v, acc.v)};
  }
  /// Lanes [4Q, 4Q + 4).
  template <int Q>
  vec128f quarter() const {
    static_assert(Q >= 0 && Q < 4);
    return {__builtin_shufflevector(v, v, 4 * Q, 4 * Q + 1, 4 * Q + 2,
                                    4 * Q + 3)};
  }
  void store(float* p) const { _mm512_storeu_ps(p, v); }
  /// p[0, n) in the first lanes, zero in the rest; the masked load
  /// touches only those n floats (n <= 0: none).
  static vec load_first(const float* p, int n) {
    if (n >= 16) return load(p);
    if (n <= 0) return zero();
    return {_mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << n) - 1), p)};
  }
  /// The first n lanes to p[0, n); the masked store writes nothing else
  /// (n <= 0: none).
  void store_first(float* p, int n) const {
    if (n >= 16) {
      store(p);
    } else if (n > 0) {
      _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << n) - 1), v);
    }
  }
  /// The lanes of (a, b) split by index parity: even = a0, a2, ..., b0,
  /// b2, ...; odd = a1, a3, ..., b1, b3, ...
  static void deinterleave(vec a, vec b, vec* even, vec* odd) {
    const __m512i ie = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                         20, 22, 24, 26, 28, 30);
    const __m512i io = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19,
                                         21, 23, 25, 27, 29, 31);
    even->v = _mm512_permutex2var_ps(a.v, ie, b.v);
    odd->v = _mm512_permutex2var_ps(a.v, io, b.v);
  }
};
#endif

}  // namespace ndirect
