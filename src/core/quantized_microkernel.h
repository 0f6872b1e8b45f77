// Int8 direct-convolution micro-kernels (the low-precision companion of
// core/microkernel.h, same policy-registry design as DESIGN.md §13).
//
// Data model: activations are asymmetric u8 (real = in_scale * (u -
// zero_point)), filters are symmetric per-channel s8 (real =
// w_scale[k] * w). The engine packs input bytes XORed with 0x80 — the
// bit-exact u8 -> s8 shift u - 128 — so every kernel backend computes
// the pure s8 x s8 sum  acc = sum (u - 128) * w  with exact int32
// accumulation, and the affine correction
//
//   sum (u - zp) * w  =  acc + (128 - zp) * sum(w)
//
// is a per-output-channel constant folded into the epilogue from the
// filter row sums recorded at pack time (the "zero-point compensation"
// term; spatial padding packs as u = zp, making border taps contribute
// exactly zero after the correction).
//
// Kernel geometry mirrors Algorithm 3 with the 4-channel group playing
// the fp32 lane's role: the packed input row holds packw groups of 4
// channel bytes, the filter tile holds Vk x 4 bytes per tap, and each
// (w, s) tap is one lane-broadcast 4-way dot product — SDOT with a lane
// operand on +dotprod targets, the widening SMULL/PMADDWD emulation
// elsewhere, so the register budget is exactly the fp32 Eq. 3 with
// "element" = 4-channel group. Every kernel computes the full Vw x Vk
// tile into an int32 accumulator scratch (ragged borders are handled by
// the pack padding and the epilogue's masked stores, not by separate
// edge kernels: the accumulator tile is register-resident, so the
// overshoot columns are free), laid out k-major/w-contiguous so the
// requantize epilogue streams it with full-width vectors.
//
// A policy is (Vw, Vk, S, stride, backend); build_i8_policy_table<S>()
// instantiates every Eq. 3-feasible block x S in {1, 3, 5, 7} x stride
// in {1, 2} x the compiled backends, split across two translation
// units (quantized_policies_{a,b}.cpp). resolve_int8_kernel() picks the
// entry once per convolution; misses fall back to the scalar generic
// kernel and are counted as generic-fallback tiles.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/microkernel.h"
#include "simd/vec128_int8.h"

// Same force-inline rationale as microkernel_generator.h: the kernels
// are the product; GCC's per-TU inline budget must not spill the
// accumulator tile. Guarded because the fp32 generator header defines
// the identical macros.
#ifndef NDIRECT_ALWAYS_INLINE
#if defined(__GNUC__) || defined(__clang__)
#define NDIRECT_ALWAYS_INLINE inline __attribute__((always_inline))
#define NDIRECT_FLATTEN __attribute__((flatten))
#else
#define NDIRECT_ALWAYS_INLINE inline
#define NDIRECT_FLATTEN
#endif
#endif

namespace ndirect {

/// Which instruction family a kernel's dot products use.
enum class Int8Backend : std::uint8_t {
  kScalar = 0,  ///< plain C loops (parity reference / last resort)
  kEmulated,    ///< widening-multiply vec128 emulation (SMLAL shape)
  kDot,         ///< native SDOT (requires a +dotprod compile target
                ///< and an ASIMDDP host)
};

const char* int8_backend_name(Int8Backend b);

/// Highest-performance backend available on this host: kDot when the
/// binary was compiled for +dotprod, cpu_info reports ASIMDDP and
/// NDIRECT_FORCE_NO_DOTPROD is not set; kEmulated otherwise. (kScalar
/// is never preferred — it exists for parity and the registry
/// fallback.)
Int8Backend int8_preferred_backend();

/// One int8 micro-kernel invocation. All strides are in bytes.
struct I8MicroArgs {
  const std::int8_t* pack = nullptr;  ///< [c4][R][xv*16] packed window
  std::int64_t pack_c4_stride = 0;
  std::int64_t pack_r_stride = 0;     ///< row padded to whole vectors
  const std::int8_t* ftile = nullptr; ///< [c4][R][S][vk*4] filter tile
  std::int64_t f_c4_stride = 0;
  int c4 = 0;     ///< 4-channel groups in the reduction (ceil(C/4))
  int R = 0, S = 0, str = 1;
  int packw = 0;  ///< input groups per row: (vw-1)*str + S
  /// Full-tile accumulator scratch, k-major: acc[k * vw + w], always
  /// written for all vw x vk positions.
  std::int32_t* acc = nullptr;
};

using I8KernelFn = void (*)(const I8MicroArgs&);

/// One instantiated int8 policy.
struct I8KernelEntry {
  int vw = 0;
  int vk = 0;
  int S = 0;
  int str = 0;
  Int8Backend backend = Int8Backend::kEmulated;
  I8KernelFn fn = nullptr;
};

/// Every instantiated policy: Eq. 3-feasible blocks x S in {1, 3, 5, 7}
/// x stride in {1, 2} x compiled backends, in deterministic order.
const std::vector<I8KernelEntry>& int8_kernel_registry();

/// Distinct (vw, vk) blocks present in the registry — the space the
/// int8 auto-tuner searches (same Eq. 3 grid as the fp32 registry).
const std::vector<RegisterBlock>& int8_microkernel_blocks();

/// Once-per-conv resolution. `fn` is nullptr when the tuple has no
/// policy kernel (block outside the Eq. 3 grid, S not in {1, 3, 5, 7},
/// or stride > 2) — the caller must run int8_kernel_generic and count
/// the fallback; `reason` says why. `backend` is the backend actually
/// served (a kDot request degrades to kEmulated with a reason when no
/// dot kernel is compiled in).
struct I8KernelResolution {
  I8KernelFn fn = nullptr;
  Int8Backend backend = Int8Backend::kScalar;
  const char* reason = "";
};

I8KernelResolution resolve_int8_kernel(int vw, int vk, int S, int str,
                                       Int8Backend preferred);

/// Runtime-parameterized scalar reference (any vw, vk): the parity
/// oracle and the registry-miss fallback. Bitwise-identical to every
/// policy kernel (all paths are exact int32 arithmetic).
void int8_kernel_generic(const I8MicroArgs& args, int vw, int vk);

namespace detail {

/// Entries for one S and one backend flag, as a constexpr table (see
/// build_i8_policy_table). Non-owning span mirror of PolicySpan.
struct I8PolicySpan {
  const I8KernelEntry* data = nullptr;
  std::size_t size = 0;
};

// Defined in quantized_policies_a.cpp (S = 1, 3) and
// quantized_policies_b.cpp (S = 5, 7).
I8PolicySpan i8_policy_entries_s1();
I8PolicySpan i8_policy_entries_s3();
I8PolicySpan i8_policy_entries_s5();
I8PolicySpan i8_policy_entries_s7();

// ---------------------------------------------------------------------------
// The generator (included by the policy TUs and the tests only).
// ---------------------------------------------------------------------------

// The pack expansions fold over named always_inline helpers, not
// generic lambdas, for the reason given in microkernel_generator.h: a
// lambda may be outlined with the accumulator tile in memory.

// Tap (w, s): broadcast input group w*STR + s and dot it against the
// tap's Vk filter vector.
template <int VW, int VKV, int STR, bool UseDot, int XV, int s, int w>
NDIRECT_ALWAYS_INLINE void i8_tap(vec128i (&acc)[VW][VKV],
                                  const vec128b (&x)[XV],
                                  const vec128b (&f)[VKV]) {
  constexpr int g = w * STR + s;
  static_assert(g / 4 < XV);
  const vec128b b = vdup_group<g % 4>(x[g / 4]);
  for (int j = 0; j < VKV; ++j) {
    acc[w][j] = vdot_s8<UseDot>(acc[w][j], b, f[j]);
  }
}

template <int VW, int VKV, int STR, bool UseDot, int XV, int s, int... Ws>
NDIRECT_ALWAYS_INLINE void i8_filter_tap(vec128i (&acc)[VW][VKV],
                                         const vec128b (&x)[XV],
                                         const std::int8_t* frow,
                                         std::integer_sequence<int, Ws...>) {
  vec128b f[VKV];
  for (int j = 0; j < VKV; ++j) f[j] = vload_b(frow + (s * VKV + j) * 16);
  (i8_tap<VW, VKV, STR, UseDot, XV, s, Ws>(acc, x, f), ...);
}

template <int VW, int VKV, int STR, bool UseDot, int XV, int... Ss>
NDIRECT_ALWAYS_INLINE void i8_filter_row(vec128i (&acc)[VW][VKV],
                                         const vec128b (&x)[XV],
                                         const std::int8_t* frow,
                                         std::integer_sequence<int, Ss...>) {
  (i8_filter_tap<VW, VKV, STR, UseDot, XV, Ss>(
       acc, x, frow, std::make_integer_sequence<int, VW>{}),
   ...);
}

// One (c4, r) row pair: preload the packed input row (packw 4-byte
// groups) into whole byte-vectors, then every (w, s) tap broadcasts its
// group and dots it against the Vk filter vector — the int8 Algorithm 3.
template <int VW, int VKV, int S, int STR, bool UseDot>
NDIRECT_ALWAYS_INLINE void i8_cr_compute(vec128i (&acc)[VW][VKV],
                                         const std::int8_t* brow,
                                         const std::int8_t* frow) {
  constexpr int PACKW = (VW - 1) * STR + S;
  constexpr int XV = (PACKW + 3) / 4;
  vec128b x[XV];
  for (int t = 0; t < XV; ++t) x[t] = vload_b(brow + 16 * t);
  i8_filter_row<VW, VKV, STR, UseDot, XV>(acc, x, frow,
                                          std::make_integer_sequence<int, S>{});
}

template <int VW, int VKV, int S, int STR, bool UseDot>
NDIRECT_FLATTEN void i8_policy_kernel(const I8MicroArgs& a) {
  vec128i acc[VW][VKV];
  for (int w = 0; w < VW; ++w) {
    for (int j = 0; j < VKV; ++j) acc[w][j] = vzero_i32();
  }
  for (int c = 0; c < a.c4; ++c) {
    const std::int8_t* brows = a.pack + c * a.pack_c4_stride;
    const std::int8_t* fc = a.ftile + c * a.f_c4_stride;
    for (int r = 0; r < a.R; ++r) {
      i8_cr_compute<VW, VKV, S, STR, UseDot>(
          acc, brows + r * a.pack_r_stride,
          fc + static_cast<std::int64_t>(r) * S * VKV * 16);
    }
  }
  // K-vectorized accumulators -> k-major / w-contiguous scratch rows
  // via 4x4 transposes (the epilogue streams whole w-vectors per k).
  for (int j = 0; j < VKV; ++j) {
    for (int w0 = 0; w0 < VW; w0 += 4) {
      vec128i r0 = acc[w0 + 0][j], r1 = acc[w0 + 1][j],
              r2 = acc[w0 + 2][j], r3 = acc[w0 + 3][j];
      vtranspose4x4_i32(r0, r1, r2, r3);
      vstore_i32(a.acc + (4 * j + 0) * VW + w0, r0);
      vstore_i32(a.acc + (4 * j + 1) * VW + w0, r1);
      vstore_i32(a.acc + (4 * j + 2) * VW + w0, r2);
      vstore_i32(a.acc + (4 * j + 3) * VW + w0, r3);
    }
  }
}

/// Eq. 3-feasible block count for S (same predicate as the fp32
/// registry: the 4-channel group costs what the fp32 lane does).
constexpr int i8_policy_block_count(int S) {
  int n = 0;
  for (int vw = 4; vw <= kMaxVw; vw += 4) {
    for (int vk = 4; vk <= kMaxVk; vk += 4) {
      if (kernel_block_feasible(vw, vk, S)) ++n;
    }
  }
  return n;
}

/// Backends instantiated per policy tuple.
constexpr int i8_backend_count() {
  return NDIRECT_INT8_DOT_COMPILED ? 2 : 1;
}

template <int S, int VW, int VK, int STR, bool UseDot, typename Table>
constexpr void i8_emit_policy(Table& table, std::size_t& i) {
  table[i++] = I8KernelEntry{
      VW, VK, S, STR, UseDot ? Int8Backend::kDot : Int8Backend::kEmulated,
      &i8_policy_kernel<VW, VK / 4, S, STR, UseDot>};
}

template <int S, int VW, int VK, typename Table>
constexpr void i8_emit_block(Table& table, std::size_t& i) {
  if constexpr (kernel_block_feasible(VW, VK, S)) {
    i8_emit_policy<S, VW, VK, 1, false>(table, i);
    i8_emit_policy<S, VW, VK, 2, false>(table, i);
#if NDIRECT_INT8_DOT_COMPILED
    i8_emit_policy<S, VW, VK, 1, true>(table, i);
    i8_emit_policy<S, VW, VK, 2, true>(table, i);
#endif
  }
}

template <int S, int VW, typename Table>
constexpr void i8_emit_block_row(Table& table, std::size_t& i) {
  [&]<int... Ks>(std::integer_sequence<int, Ks...>) {
    (i8_emit_block<S, VW, (Ks + 1) * 4>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVk / 4>{});
}

template <int S>
constexpr auto build_i8_policy_table() {
  std::array<I8KernelEntry,
             static_cast<std::size_t>(i8_policy_block_count(S)) * 2 *
                 static_cast<std::size_t>(i8_backend_count())>
      table{};
  std::size_t i = 0;
  [&]<int... Ws>(std::integer_sequence<int, Ws...>) {
    (i8_emit_block_row<S, (Ws + 1) * 4>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVw / 4>{});
  return table;
}

}  // namespace detail
}  // namespace ndirect
