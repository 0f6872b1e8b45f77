// Policy-driven micro-kernel generator (internal header).
//
// A *policy* is the compile-time tuple (L, Vw, Vkv, S, stride,
// tail-mode): L fp32 lanes per vector (simd/vec.h), Vkv = Vk / L filter
// vectors per tap. policy_compute_kernel expands the fully-unrolled
// Algorithm 3 body for one policy — every (w, s) tap one broadcast FMA
// into the register-resident Vw x Vk accumulator tile, in the tap order
// the target's register budget allows (input_stationary_taps) — and
// finishes with either the branch-free interior store or the masked
// partial-lane edge store. Both stores are 128-bit: the wide
// accumulators are split into quarters first, so one store path (and
// one ConvEpilogue) serves every width.
// build_policy_table<S>() folds over the whole (Vw, Vk) grid at compile
// time, keeping exactly the blocks kernel_block_feasible admits at
// kKernelLanes, and emits a constexpr KernelEntry table.
// The table for each S lives in its own translation unit
// (microkernel_policies_s{1,3,5,7}.cpp) so the instantiations compile in
// parallel; microkernel.cpp aggregates the four spans into the public
// kernel_registry().
//
// To add a new kernel width S' to the registry: add a
// microkernel_policies_sS'.cpp defining policy_entries_sS'() from
// build_policy_table<S'>(), list it in src/core/CMakeLists.txt, and
// append the span in kernel_registry() — no per-block code is written.
#pragma once

#include <array>
#include <utility>

#include "core/microkernel.h"
#include "simd/vec.h"

// A policy TU instantiates ~56 fully-unrolled kernels, which overflows
// GCC's per-TU inline-growth budget: without forcing the issue, the
// compiler leaves cr_compute_unrolled and the store helpers out of
// line, and the accumulator tile lives in memory instead of registers
// (measured ~30% throughput loss on the 12x8 S=3 block). The kernels
// ARE the product here — size-vs-speed heuristics do not apply — so
// the hot helpers are always_inline and the kernel roots flatten their
// whole call tree (GCC ignores inline limits when flattening).
//
// flatten alone did not keep the tile in registers: GCC outlined the
// generic lambdas this file once folded its tap loops with as local
// constprop clones before flattening, so every stride-2 kernel with
// S >= 3 called one per (c, r) row and streamed its accumulators through
// memory. What holds now is (a) every helper on the FMA path is a named
// always_inline function, so there is nothing left to outline, and (b)
// the tap order of input_stationary_taps: on NEON it keeps the window,
// the filters and the tile within the 32 registers (Eq. 3 arithmetic);
// on x86 the broadcast operand comes from memory, so only filters and
// tile compete for registers, and the wide registries admit only blocks
// whose tile and S filter sets fit (broadcast_register_cost). The
// kernel-matrix CI job checks (a) on the compiled objects: no local
// function and no call at all — the window is packed before a kernel
// runs (pack_window), never inside its FMA loop.
#if defined(__GNUC__) || defined(__clang__)
#define NDIRECT_ALWAYS_INLINE inline __attribute__((always_inline))
#define NDIRECT_FLATTEN __attribute__((flatten))
#else
#define NDIRECT_ALWAYS_INLINE inline
#define NDIRECT_FLATTEN
#endif

namespace ndirect {
namespace detail {

// ---------------------------------------------------------------------------
// Tile stores
// ---------------------------------------------------------------------------

// Finish and store one vector of the tile `off` floats past a.out, `n`
// lanes wide (FULL: all 4): add the earlier C tiles' partial sum, then
// the bias, then the residual, then the ReLU — the order of the unfused
// ops (core/epilogue.h). The vector holds channel k in every lane
// (NCHW), or channels k..k+n-1 (K_LANES, NHWC).
template <bool FULL, bool K_LANES>
NDIRECT_ALWAYS_INLINE void store_vec(const MicroArgs& a, vec128f v,
                                     std::int64_t off, int k, int n) {
  float* o = a.out + off;
  if (a.accumulate) v = vadd(v, FULL ? vload(o) : vload_lanes(o, n));
  if (a.epi.bias != nullptr) {
    const float* b = a.epi.bias + k;
    v = vadd(v, !K_LANES ? vdup(*b) : FULL ? vload(b) : vload_lanes(b, n));
  }
  if (a.epi.residual != nullptr) {
    const float* r = a.epi.residual + off;
    v = vadd(v, FULL ? vload(r) : vload_lanes(r, n));
  }
  if (a.epi.relu) v = vrelu(v);
  if (FULL) {
    vstore(o, v);
  } else {
    vstore_lanes(o, v, n);
  }
}

// Tile store of 128-bit quarters: acc[w][j] holds channels 4j..4j+3 of
// column w. FULL (the interior store) requires wn == VW and
// kn == 4 * VQ and has compile-time bounds: branch-free. Otherwise (the
// edge store) any wn <= VW, kn <= 4 * VQ (including kn % 4 != 0) goes
// through partial-lane loads/stores, so ragged tile borders stay
// vectorized — no scalar spill-and-copy. NCHW uses 4x4 in-register
// transposes to turn the K-vectorized accumulators into W-contiguous
// stores; NHWC stores the accumulators directly.
template <int VW, int VQ, bool FULL>
NDIRECT_ALWAYS_INLINE void store_tile(const MicroArgs& a,
                                      vec128f (&acc)[VW][VQ]) {
  const int wn = FULL ? VW : a.wn;
  const int kn = FULL ? VQ * 4 : a.kn;
  if (a.out_w_stride == 1) {  // NCHW
    for (int k0 = 0; k0 < kn; k0 += 4) {
      const int j = k0 / 4;
      const int kg = FULL || kn - k0 >= 4 ? 4 : kn - k0;
      for (int w0 = 0; w0 < wn; w0 += 4) {
        const int wg = FULL || wn - w0 >= 4 ? 4 : wn - w0;
        // Accumulator lanes past wn/kn hold finite garbage; the
        // transpose carries them along and the masked stores drop them.
        vec128f r[4] = {acc[w0 + 0][j], acc[w0 + 1][j], acc[w0 + 2][j],
                        acc[w0 + 3][j]};
        // After the transpose each vector holds one output channel.
        vtranspose4x4(r[0], r[1], r[2], r[3]);
        for (int kk = 0; kk < kg; ++kk) {
          store_vec<FULL, false>(a, r[kk], (k0 + kk) * a.out_k_stride + w0,
                                 k0 + kk, wg);
        }
      }
    }
  } else {  // NHWC: K is contiguous (out_k_stride == 1)
    for (int w = 0; w < wn; ++w) {
      for (int k0 = 0; k0 < kn; k0 += 4) {
        const int kg = FULL || kn - k0 >= 4 ? 4 : kn - k0;
        store_vec<FULL, true>(a, acc[w][k0 / 4], w * a.out_w_stride + k0,
                              k0, kg);
      }
    }
  }
}

// Split each L-lane accumulator into its L/4 128-bit quarters, in
// channel order.
template <int L, int VW, int VKV, int... Qs>
NDIRECT_ALWAYS_INLINE void split_quarters(const vec<L> (&acc)[VW][VKV],
                                          vec128f (&q)[VW][VKV * L / 4],
                                          std::integer_sequence<int, Qs...>) {
  for (int w = 0; w < VW; ++w) {
    for (int j = 0; j < VKV; ++j) {
      ((q[w][j * (L / 4) + Qs] = acc[w][j].template quarter<Qs>()), ...);
    }
  }
}

/// Store the L-lane tile through the 128-bit store_tile.
template <int L, int VW, int VKV, bool FULL>
NDIRECT_ALWAYS_INLINE void store_wide_tile(const MicroArgs& a,
                                           const vec<L> (&acc)[VW][VKV]) {
  vec128f q[VW][VKV * L / 4];
  split_quarters(acc, q, std::make_integer_sequence<int, L / 4>{});
  store_tile<VW, VKV * L / 4, FULL>(a, q);
}

// ---------------------------------------------------------------------------
// Unrolled Algorithm 3 body
// ---------------------------------------------------------------------------

// Every pack expansion below folds over a named always_inline helper,
// never a generic lambda (see the note on flatten at the top).

// The packed input row as the FMAs read it: element I is the scalar
// operand of every (w, s) tap with w*STR + s == I. NEON (4 lanes)
// preloads the window into ceil(packw/4) registers and reads element I
// as a lane (FMLA by element); x86 broadcasts it from memory at any
// width, so there the window costs no registers.
template <int L, int XV>
struct InputWindow {
  const float* row;
  vec128f x[XV]{};  ///< NEON only; unused (and dropped) on x86

  NDIRECT_ALWAYS_INLINE explicit InputWindow(const float* brow) : row(brow) {
    if constexpr (!kLaneOperandFromMemory) {
      for (int t = 0; t < XV; ++t) x[t] = vload(brow + 4 * t);
    }
  }

  /// acc[j] += element I * f[j] for the VKV vectors of one tap.
  template <int I, int VKV>
  NDIRECT_ALWAYS_INLINE void fma(vec<L> (&acc)[VKV],
                                 const vec<L> (&f)[VKV]) const {
    static_assert(I / 4 < XV);
    if constexpr (kLaneOperandFromMemory) {
      const vec<L> b = vec<L>::dup(row[I]);
      for (int j = 0; j < VKV; ++j) acc[j] = vec<L>::fma(acc[j], b, f[j]);
    } else {
      static_assert(L == 4, "lane-operand FMAs are 128-bit (NEON)");
      for (int j = 0; j < VKV; ++j) {
        acc[j].v = vfma_lane<I % 4>(acc[j].v, x[I / 4], f[j].v);
      }
    }
  }
};

/// Tap order of one policy, a compile-time consequence of the target's
/// register budget (DESIGN.md §2). Both orders give every accumulator
/// its S taps of a (c, r) row in ascending s, so they are bitwise
/// identical; they differ in which operand stays in registers.
///  - Input-stationary: the S filter-vector sets stay live and each
///    input element is broadcast once, then applied to all of its
///    (w, s) taps. x86 always takes it: its broadcast reads the element
///    from memory, and where the filter sets do not all fit the compiler
///    re-reads filters from L1, which measured no slower than the
///    filter-stationary order in every such block (EXPERIMENTS.md).
///  - Filter-stationary (Algorithm 3's order): one tap's VKV filter
///    vectors at a time, each applied to all VW columns. NEON keeps it
///    where the ceil(packw/4)-register window, the S*VKV filter
///    registers and the tile together exceed its 32 registers.
template <int VW, int VKV, int S, int STR>
constexpr bool input_stationary_taps() {
  constexpr int kWindowRegs = ((VW - 1) * STR + S + 3) / 4;
  return kLaneOperandFromMemory ||
         kWindowRegs + S * VKV + VW * VKV <= kNumVecRegs;
}

template <int L, int VKV>
NDIRECT_ALWAYS_INLINE void load_tap_filters(vec<L> (&f)[VKV],
                                            const float* frow, int s) {
  for (int j = 0; j < VKV; ++j) f[j] = vec<L>::load(frow + (s * VKV + j) * L);
}

// Filter-stationary: tap s's filter vectors against every column w.
template <int L, int VW, int VKV, int STR, int XV, int s, int... Ws>
NDIRECT_ALWAYS_INLINE void filter_stationary_tap(
    vec<L> (&acc)[VW][VKV], const InputWindow<L, XV>& in, const float* frow,
    std::integer_sequence<int, Ws...>) {
  vec<L> f[VKV];
  load_tap_filters(f, frow, s);
  (in.template fma<Ws * STR + s>(acc[Ws], f), ...);
}

template <int L, int VW, int VKV, int STR, int XV, int... Ss>
NDIRECT_ALWAYS_INLINE void filter_stationary_row(
    vec<L> (&acc)[VW][VKV], const InputWindow<L, XV>& in, const float* frow,
    std::integer_sequence<int, Ss...>) {
  (filter_stationary_tap<L, VW, VKV, STR, XV, Ss>(
       acc, in, frow, std::make_integer_sequence<int, VW>{}),
   ...);
}

// Input-stationary: element I against tap s, if that tap exists, i.e.
// I - s is a non-negative multiple of STR that names a column below VW.
template <int L, int VW, int VKV, int STR, int XV, int I, int s>
NDIRECT_ALWAYS_INLINE void input_stationary_tap(vec<L> (&acc)[VW][VKV],
                                                const InputWindow<L, XV>& in,
                                                const vec<L> (&f)[VKV]) {
  if constexpr (I >= s && (I - s) % STR == 0 && (I - s) / STR < VW) {
    in.template fma<I>(acc[(I - s) / STR], f);
  }
}

template <int L, int VW, int VKV, int S, int STR, int XV, int I, int... Ss>
NDIRECT_ALWAYS_INLINE void input_stationary_element(
    vec<L> (&acc)[VW][VKV], const InputWindow<L, XV>& in,
    const vec<L> (&f)[S][VKV], std::integer_sequence<int, Ss...>) {
  (input_stationary_tap<L, VW, VKV, STR, XV, I, Ss>(acc, in, f[Ss]), ...);
}

template <int L, int VW, int VKV, int S, int STR, int XV, int... Is>
NDIRECT_ALWAYS_INLINE void input_stationary_row(
    vec<L> (&acc)[VW][VKV], const InputWindow<L, XV>& in, const float* frow,
    std::integer_sequence<int, Is...>) {
  vec<L> f[S][VKV];
  for (int s = 0; s < S; ++s) load_tap_filters(f[s], frow, s);
  (input_stationary_element<L, VW, VKV, S, STR, XV, Is>(
       acc, in, f, std::make_integer_sequence<int, S>{}),
   ...);
}

// Process one (c, r) row pair: every (w, s) tap of the packed input row
// against the row's S x Vk filter vectors, in the policy's tap order.
template <int L, int VW, int VKV, int S, int STR>
NDIRECT_ALWAYS_INLINE void cr_compute_unrolled(vec<L> (&acc)[VW][VKV],
                                               const float* brow,
                                               const float* frow) {
  constexpr int PACKW = (VW - 1) * STR + S;
  constexpr int XV = (PACKW + 3) / 4;
  const InputWindow<L, XV> in(brow);
  if constexpr (input_stationary_taps<VW, VKV, S, STR>()) {
    input_stationary_row<L, VW, VKV, S, STR, XV>(
        acc, in, frow, std::make_integer_sequence<int, PACKW>{});
  } else {
    filter_stationary_row<L, VW, VKV, STR, XV>(
        acc, in, frow, std::make_integer_sequence<int, S>{});
  }
}

// ---------------------------------------------------------------------------
// The generator: one template, every policy
// ---------------------------------------------------------------------------

template <int L, int VW, int VKV, int S, int STR, TailMode TM>
NDIRECT_FLATTEN void policy_compute_kernel(const MicroArgs& a) {
  vec<L> acc[VW][VKV];
  for (int w = 0; w < VW; ++w) {
    for (int j = 0; j < VKV; ++j) acc[w][j] = vec<L>::zero();
  }
  for (int c = 0; c < a.tc; ++c) {
    const float* brows = a.pack + c * a.pack_c_stride;
    const float* fc = a.ftile + c * a.f_c_stride;
    for (int r = 0; r < a.R; ++r) {
      cr_compute_unrolled<L, VW, VKV, S, STR>(
          acc, brows + r * a.pack_r_stride,
          fc + static_cast<std::int64_t>(r) * S * VKV * L);
    }
  }
  store_wide_tile<L, VW, VKV, TM == TailMode::kInterior>(a, acc);
}

// ---------------------------------------------------------------------------
// Constexpr registry builder
// ---------------------------------------------------------------------------

/// Feasible (vw, vk) blocks for kernel width S at the build's width.
constexpr bool kernel_block_built(int vw, int vk, int S) {
  return kernel_block_feasible(vw, vk, S, kKernelLanes, kKernelRegs);
}

constexpr int policy_block_count(int S) {
  int n = 0;
  for (int vw = 4; vw <= kMaxVw; vw += 4) {
    for (int vk = kKernelLanes; vk <= kMaxVk; vk += kKernelLanes) {
      if (kernel_block_built(vw, vk, S)) ++n;
    }
  }
  return n;
}

// One nested generic lambda per pack level trips a GCC pack-expansion
// limitation, so each level of the (vw, vk, str) fold is a named helper.
template <int S, int VW, int VK, TailMode TM, int STR, typename Table>
constexpr void emit_policy(Table& table, std::size_t& i) {
  constexpr int L = kKernelLanes;
  table[i++] = KernelEntry{VW, VK, S, STR, TM,
                           &policy_compute_kernel<L, VW, VK / L, S, STR, TM>};
}

template <int S, int VW, int VK, typename Table>
constexpr void emit_block(Table& table, std::size_t& i) {
  if constexpr (kernel_block_built(VW, VK, S)) {
    emit_policy<S, VW, VK, TailMode::kInterior, 1>(table, i);
    emit_policy<S, VW, VK, TailMode::kEdge, 1>(table, i);
    emit_policy<S, VW, VK, TailMode::kInterior, 2>(table, i);
    emit_policy<S, VW, VK, TailMode::kEdge, 2>(table, i);
  }
}

template <int S, int VW, typename Table>
constexpr void emit_block_row(Table& table, std::size_t& i) {
  [&]<int... Ks>(std::integer_sequence<int, Ks...>) {
    (emit_block<S, VW, (Ks + 1) * kKernelLanes>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVk / kKernelLanes>{});
}

/// Entries for one S: feasible blocks x strides {1, 2} x {interior, edge}.
template <int S>
constexpr auto build_policy_table() {
  std::array<KernelEntry, static_cast<std::size_t>(policy_block_count(S)) * 4>
      table{};
  std::size_t i = 0;
  [&]<int... Ws>(std::integer_sequence<int, Ws...>) {
    (emit_block_row<S, (Ws + 1) * 4>(table, i), ...);
  }(std::make_integer_sequence<int, kMaxVw / 4>{});
  return table;
}

/// Non-owning view of one translation unit's constexpr entry table.
struct PolicySpan {
  const KernelEntry* data = nullptr;
  std::size_t size = 0;
};

// Defined in microkernel_policies_s{1,3,5,7}.cpp.
PolicySpan policy_entries_s1();
PolicySpan policy_entries_s3();
PolicySpan policy_entries_s5();
PolicySpan policy_entries_s7();

}  // namespace detail
}  // namespace ndirect
