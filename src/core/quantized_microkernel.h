// Int8 direct-convolution micro-kernels (the low-precision companion of
// core/microkernel.h, same policy-registry design as DESIGN.md §13).
//
// Data model: activations are asymmetric u8 (real = in_scale * (u -
// zero_point)), filters are symmetric per-channel s8 (real =
// w_scale[k] * w). The s8 x s8 backends (scalar, emulated, SDOT) get
// input bytes XORed with 0x80 — the bit-exact u8 -> s8 shift u - 128 —
// and the u8 x s8 VNNI kernels get them raw, so a kernel computes
// acc = sum (u - o) * w with o = 128 or 0, and the affine correction
//
//   sum (u - zp) * w  =  acc + (o - zp) * sum(w)
//
// is a per-output-channel constant folded into the epilogue from the
// filter row sums recorded at pack time (the "zero-point compensation"
// term; spatial padding packs as u = zp, making border taps contribute
// exactly zero after the correction). All of it is int32 arithmetic
// modulo 2^32, so the result is exact whenever the true sum fits int32
// (DESIGN.md §14).
//
// Kernel geometry mirrors Algorithm 3 with the 4-channel group playing
// the fp32 lane's role: the packed input row holds packw groups of 4
// channel bytes, the filter tile holds Vk x 4 bytes per tap, and each
// (w, s) tap is one broadcast 4-way dot product. Every kernel computes
// the full Vw x Vk tile into an int32 accumulator scratch (ragged
// borders are handled by the pack padding and the epilogue's masked
// stores, not by separate edge kernels: the accumulator tile is
// register-resident, so the overshoot columns are free), laid out
// k-major/w-contiguous so the requantize epilogue streams it with
// full-width vectors.
//
// The generator takes the backend as a template parameter, and the
// backend fixes the lane count (as simd/vec.h's width does for fp32):
//  - kEmulated: the widening SMULL/PMADDWD ladder at 4 int32 lanes,
//    with the window preloaded and read by lane — Eq. 3 with
//    "element" = 4-channel group, the budget of the 4-lane fp32 kernels;
//  - kDot on +dotprod NEON: SDOT with a lane operand, same shape;
//  - kDot on AVX512-VNNI: VPDPBUSD at 16 lanes (each zmm accumulator
//    holds 16 output channels). The input group is broadcast from
//    memory, so the block comes from the fp32 16-lane budget
//    (broadcast_register_cost: the tile, S filter sets, 1 broadcast),
//    and the taps run input-stationary like the fp32 x86 kernels.
//    VPDPBUSD multiplies u8 by s8, so these kernels take raw u8
//    activations: the engine packs them without the XOR, pads with zp
//    itself, and compensates with -zp * sum(w) instead.
// The wide tile leaves through 128-bit quarters and the same 4x4
// transposes, so the accumulator scratch layout, and with it the
// epilogue, is one implementation at every width.
//
// A policy is (Vw, Vk, S, stride, backend); build_i8_policy_table<S>()
// instantiates, for each compiled backend, every block its budget
// admits x S in {1, 3, 5, 7} x stride in {1, 2}, split across two
// translation units (quantized_policies_{a,b}.cpp).
// resolve_int8_kernel() picks the entry once per convolution; misses
// fall back to the scalar generic kernel and are counted as
// generic-fallback tiles.
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
  kDot,         ///< the host's native 4-way dot: NEON SDOT at 4 lanes
                ///< (+dotprod target, ASIMDDP host) or AVX512-VNNI
                ///< VPDPBUSD at 16 (AVX-512F + VNNI target and host)
};

/// "scalar", "emulated", and for kDot the instruction: "sdot" or
/// "vnni" ("dot" where none is compiled).
const char* int8_backend_name(Int8Backend b);

/// int32 lanes of backend b's kernels: kI8DotLanes for kDot, 4 else.
constexpr int int8_backend_lanes(Int8Backend b) {
  return b == Int8Backend::kDot ? kI8DotLanes : 4;
}

/// True when backend b's kernels take raw u8 activations (VPDPBUSD is
/// u8 x s8); the others take them XORed with 0x80 (s8 x s8).
constexpr bool int8_backend_raw_u8(Int8Backend b) {
  return b == Int8Backend::kDot && NDIRECT_INT8_DOT_VNNI;
}

/// The register budget backend b's policy kernels are generated from:
/// kernel_block_feasible at the backend's lane count and 32 registers.
constexpr bool int8_block_feasible(int vw, int vk, int S, Int8Backend b) {
  return kernel_block_feasible(vw, vk, S, int8_backend_lanes(b), 32);
}

/// Highest-performance backend available on this host: kDot when the
/// binary compiles the native dot kernels, cpu_info reports the
/// instruction (ASIMDDP, or AVX512-VNNI on x86) and
/// NDIRECT_FORCE_NO_DOTPROD is not set; kEmulated otherwise. (kScalar
/// is never preferred — it exists for parity and the registry
/// fallback.)
Int8Backend int8_preferred_backend();

/// The block Int8Conv plans for kernel width S on backend b: at 16
/// lanes the fp32 planner's block (solve_kernel_block, 24x16), else the
/// paper's Eq. 3 solution (solve_register_block, 12x8 for S = 3). A
/// kDot request without compiled dot kernels plans for kEmulated.
RegisterBlock int8_planned_block(int S, Int8Backend b);

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

/// Every instantiated policy: for each compiled backend, the blocks
/// its budget admits (int8_block_feasible) x S in {1, 3, 5, 7} x stride
/// in {1, 2}, in deterministic order.
const std::vector<I8KernelEntry>& int8_kernel_registry();

/// Distinct (vw, vk) blocks backend b's registry entries hold — the
/// space the int8 auto-tuner searches. kScalar, and kDot where no dot
/// kernel is compiled, name the emulated set.
const std::vector<RegisterBlock>& int8_microkernel_blocks(Int8Backend b);

/// Once-per-conv resolution. `fn` is nullptr when the tuple has no
/// policy kernel (block outside every backend's grid, S not in
/// {1, 3, 5, 7}, or stride > 2) — the caller must run
/// int8_kernel_generic and count the fallback; `reason` says why.
/// `backend` is the backend actually served: a kDot request degrades
/// to kEmulated, with a reason, when no dot kernel is compiled in or
/// the block is outside the dot grid (a 4-lane block at 16 lanes).
struct I8KernelResolution {
  I8KernelFn fn = nullptr;
  Int8Backend backend = Int8Backend::kScalar;
  const char* reason = "";
};

I8KernelResolution resolve_int8_kernel(int vw, int vk, int S, int str,
                                       Int8Backend preferred);

/// Runtime-parameterized scalar reference (any vw, vk) on the XOR-0x80
/// packing: the parity oracle and the registry-miss fallback. Its sums
/// wrap modulo 2^32 like the vector kernels', so the compensated result
/// is bitwise-identical to every policy kernel's.
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

// ---------------------------------------------------------------------------
// 128-bit backends: window preloaded, filter-stationary taps
// ---------------------------------------------------------------------------

template <Int8Backend B>
NDIRECT_ALWAYS_INLINE vec128i i8_dot128(vec128i acc, vec128b x,
                                        vec128b f) {
  static_assert(int8_backend_lanes(B) == 4);
#if NDIRECT_INT8_DOT_COMPILED && !NDIRECT_INT8_DOT_VNNI
  if constexpr (B == Int8Backend::kDot) return vdot_s8_native(acc, x, f);
#endif
  return vdot_s8_emul(acc, x, f);
}

// Tap (w, s): broadcast input group w*STR + s and dot it against the
// tap's Vk filter vector.
template <int VW, int VKV, int STR, Int8Backend B, int XV, int s, int w>
NDIRECT_ALWAYS_INLINE void i8_tap(vec_i32<4> (&acc)[VW][VKV],
                                  const vec128b (&x)[XV],
                                  const vec128b (&f)[VKV]) {
  constexpr int g = w * STR + s;
  static_assert(g / 4 < XV);
  const vec128b b = vdup_group<g % 4>(x[g / 4]);
  for (int j = 0; j < VKV; ++j) {
    acc[w][j].v = i8_dot128<B>(acc[w][j].v, b, f[j]);
  }
}

template <int VW, int VKV, int STR, Int8Backend B, int XV, int s,
          int... Ws>
NDIRECT_ALWAYS_INLINE void i8_filter_tap(vec_i32<4> (&acc)[VW][VKV],
                                         const vec128b (&x)[XV],
                                         const std::int8_t* frow,
                                         std::integer_sequence<int, Ws...>) {
  vec128b f[VKV];
  for (int j = 0; j < VKV; ++j) f[j] = vload_b(frow + (s * VKV + j) * 16);
  (i8_tap<VW, VKV, STR, B, XV, s, Ws>(acc, x, f), ...);
}

template <int VW, int VKV, int STR, Int8Backend B, int XV, int... Ss>
NDIRECT_ALWAYS_INLINE void i8_filter_row(vec_i32<4> (&acc)[VW][VKV],
                                         const vec128b (&x)[XV],
                                         const std::int8_t* frow,
                                         std::integer_sequence<int, Ss...>) {
  (i8_filter_tap<VW, VKV, STR, B, XV, Ss>(
       acc, x, frow, std::make_integer_sequence<int, VW>{}),
   ...);
}

// One (c4, r) row pair: preload the packed input row (packw 4-byte
// groups) into whole byte-vectors, then every (w, s) tap broadcasts its
// group and dots it against the Vk filter vector — the int8 Algorithm 3.
template <int VW, int VKV, int S, int STR, Int8Backend B>
NDIRECT_ALWAYS_INLINE void i8_cr_compute(vec_i32<4> (&acc)[VW][VKV],
                                         const std::int8_t* brow,
                                         const std::int8_t* frow) {
  constexpr int PACKW = (VW - 1) * STR + S;
  constexpr int XV = (PACKW + 3) / 4;
  vec128b x[XV];
  for (int t = 0; t < XV; ++t) x[t] = vload_b(brow + 16 * t);
  i8_filter_row<VW, VKV, STR, B, XV>(acc, x, frow,
                                     std::make_integer_sequence<int, S>{});
}

#if NDIRECT_INT8_DOT_VNNI
// ---------------------------------------------------------------------------
// 16-lane VNNI: group broadcast from memory, input-stationary taps
// ---------------------------------------------------------------------------

// Input group I against tap s, if that tap exists: I - s is a
// non-negative multiple of STR naming a column below VW.
template <int VW, int VKV, int STR, int I, int s>
NDIRECT_ALWAYS_INLINE void i8_wide_tap(vec_i32<16> (&acc)[VW][VKV],
                                       __m512i u, const __m512i (&f)[VKV]) {
  if constexpr (I >= s && (I - s) % STR == 0 && (I - s) / STR < VW) {
    constexpr int w = (I - s) / STR;
    for (int j = 0; j < VKV; ++j) {
      acc[w][j] = vec_i32<16>::dot(acc[w][j], u, f[j]);
    }
  }
}

template <int VW, int VKV, int S, int STR, int I, int... Ss>
NDIRECT_ALWAYS_INLINE void i8_wide_group(vec_i32<16> (&acc)[VW][VKV],
                                         const std::int8_t* brow,
                                         const __m512i (&f)[S][VKV],
                                         std::integer_sequence<int, Ss...>) {
  const __m512i u = vec_i32<16>::broadcast_group(brow + 4 * I);
  (i8_wide_tap<VW, VKV, STR, I, Ss>(acc, u, f[Ss]), ...);
}

// One (c4, r) row pair: the row's S x VKV filter vectors stay live,
// and each of the packw input groups is broadcast once and dotted into
// every (w, s) tap that reads it.
template <int VW, int VKV, int S, int STR, int... Is>
NDIRECT_ALWAYS_INLINE void i8_wide_row(vec_i32<16> (&acc)[VW][VKV],
                                       const std::int8_t* brow,
                                       const std::int8_t* frow,
                                       std::integer_sequence<int, Is...>) {
  __m512i f[S][VKV];
  for (int s = 0; s < S; ++s) {
    for (int j = 0; j < VKV; ++j) {
      f[s][j] = vec_i32<16>::load(frow + (s * VKV + j) * 64);
    }
  }
  (i8_wide_group<VW, VKV, S, STR, Is>(acc, brow, f,
                                      std::make_integer_sequence<int, S>{}),
   ...);
}
#endif

// ---------------------------------------------------------------------------
// The generator: one template, every policy
// ---------------------------------------------------------------------------

// K-vectorized accumulators -> k-major / w-contiguous scratch rows via
// 4x4 transposes of each accumulator's quarter Q (channels 4Q..4Q+3 of
// its L), so the epilogue streams whole w-vectors per k.
template <int L, int VW, int VKV, int Q>
NDIRECT_ALWAYS_INLINE void i8_store_quarter(const vec_i32<L> (&acc)[VW][VKV],
                                            std::int32_t* out) {
  for (int j = 0; j < VKV; ++j) {
    const int k = 4 * (j * (L / 4) + Q);
    for (int w0 = 0; w0 < VW; w0 += 4) {
      vec128i r0 = acc[w0 + 0][j].template quarter<Q>();
      vec128i r1 = acc[w0 + 1][j].template quarter<Q>();
      vec128i r2 = acc[w0 + 2][j].template quarter<Q>();
      vec128i r3 = acc[w0 + 3][j].template quarter<Q>();
      vtranspose4x4_i32(r0, r1, r2, r3);
      vstore_i32(out + (k + 0) * VW + w0, r0);
      vstore_i32(out + (k + 1) * VW + w0, r1);
      vstore_i32(out + (k + 2) * VW + w0, r2);
      vstore_i32(out + (k + 3) * VW + w0, r3);
    }
  }
}

template <int L, int VW, int VKV, int... Qs>
NDIRECT_ALWAYS_INLINE void i8_store_acc(const vec_i32<L> (&acc)[VW][VKV],
                                        std::int32_t* out,
                                        std::integer_sequence<int, Qs...>) {
  (i8_store_quarter<L, VW, VKV, Qs>(acc, out), ...);
}

template <int VW, int VKV, int S, int STR, Int8Backend B>
NDIRECT_FLATTEN void i8_policy_kernel(const I8MicroArgs& a) {
  constexpr int L = int8_backend_lanes(B);
  vec_i32<L> acc[VW][VKV];
  for (int w = 0; w < VW; ++w) {
    for (int j = 0; j < VKV; ++j) acc[w][j] = vec_i32<L>::zero();
  }
  for (int c = 0; c < a.c4; ++c) {
    const std::int8_t* brows = a.pack + c * a.pack_c4_stride;
    const std::int8_t* fc = a.ftile + c * a.f_c4_stride;
    for (int r = 0; r < a.R; ++r) {
      const std::int8_t* brow = brows + r * a.pack_r_stride;
      const std::int8_t* frow =
          fc + static_cast<std::int64_t>(r) * S * VKV * 4 * L;
      if constexpr (L == 4) {
        i8_cr_compute<VW, VKV, S, STR, B>(acc, brow, frow);
      } else {
#if NDIRECT_INT8_DOT_VNNI
        i8_wide_row<VW, VKV, S, STR>(
            acc, brow, frow,
            std::make_integer_sequence<int, (VW - 1) * STR + S>{});
#endif
      }
    }
  }
  i8_store_acc<L, VW, VKV>(acc, a.acc,
                           std::make_integer_sequence<int, L / 4>{});
}

/// Blocks backend B's budget admits for S.
constexpr int i8_policy_block_count(int S, Int8Backend b) {
  const int lanes = int8_backend_lanes(b);
  int n = 0;
  for (int vw = 4; vw <= kMaxVw; vw += 4) {
    for (int vk = lanes; vk <= kMaxVk; vk += lanes) {
      if (int8_block_feasible(vw, vk, S, b)) ++n;
    }
  }
  return n;
}

/// Entries per S: each compiled backend's blocks x strides {1, 2}.
constexpr int i8_policy_entry_count(int S) {
  return 2 * (i8_policy_block_count(S, Int8Backend::kEmulated) +
              (NDIRECT_INT8_DOT_COMPILED
                   ? i8_policy_block_count(S, Int8Backend::kDot)
                   : 0));
}

template <int S, Int8Backend B, int VW, int VK, typename Table>
constexpr void i8_emit_block(Table& table, std::size_t& i) {
  if constexpr (int8_block_feasible(VW, VK, S, B)) {
    constexpr int L = int8_backend_lanes(B);
    table[i++] = I8KernelEntry{VW, VK, S, 1, B,
                               &i8_policy_kernel<VW, VK / L, S, 1, B>};
    table[i++] = I8KernelEntry{VW, VK, S, 2, B,
                               &i8_policy_kernel<VW, VK / L, S, 2, B>};
  }
}

template <int S, Int8Backend B, int VW, typename Table>
constexpr void i8_emit_block_row(Table& table, std::size_t& i) {
  constexpr int L = int8_backend_lanes(B);
  [&]<int... Ks>(std::integer_sequence<int, Ks...>) {
    (i8_emit_block<S, B, VW, (Ks + 1) * L>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVk / L>{});
}

template <int S, Int8Backend B, typename Table>
constexpr void i8_emit_backend(Table& table, std::size_t& i) {
  [&]<int... Ws>(std::integer_sequence<int, Ws...>) {
    (i8_emit_block_row<S, B, (Ws + 1) * 4>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVw / 4>{});
}

template <int S>
constexpr auto build_i8_policy_table() {
  std::array<I8KernelEntry,
             static_cast<std::size_t>(i8_policy_entry_count(S))>
      table{};
  std::size_t i = 0;
  i8_emit_backend<S, Int8Backend::kEmulated>(table, i);
#if NDIRECT_INT8_DOT_COMPILED
  i8_emit_backend<S, Int8Backend::kDot>(table, i);
#endif
  return table;
}

}  // namespace detail
}  // namespace ndirect
