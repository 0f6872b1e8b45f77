// nDirect micro-kernels (Section 5, Algorithm 3).
//
// The *main micro-kernel* computes a Vw x Vk output tile: Vw consecutive
// output columns by Vk consecutive output channels, reduced over a
// Tc-channel slice of the kernel window. Input scalars come from a
// linear pack buffer (L1-resident), filter vectors from the transformed
// Vk-contiguous filter tile (L2-resident), and each input scalar is
// broadcast-FMAed against the filter vector — the outer-product update
// of Figure 2 that maximizes FAI.
//
// The *packing micro-kernel* gathers the Tc x R x packw input window
// (packw = (Vw-1)*str + S) into the linear buffer, inserting zeros where
// the window hangs over the padded border. The engine runs it once per
// window, in the window's first kv iteration and before that iteration's
// compute kernel, so no copy sits inside an FMA loop (the paper's §5.3
// interleaves the two; DESIGN.md deviation 8 says why this does not).
//
// Kernel instantiations come from a compile-time *policy registry*
// rather than hand-enumerated macro lists: a policy is the tuple
// (Vw, Vk, S, stride, tail-mode), a single generator template
// (core/microkernel_generator.h) expands the fully-unrolled Algorithm 3
// body per policy, and a constexpr table instantiates every block that
// satisfies the register budget for S in {1, 3, 5, 7} and stride
// in {1, 2} — in both an interior (branch-free full-tile store) and an
// edge (masked partial-lane store) variant, so ragged tile borders stay
// vectorized instead of falling back to scalar stores.
//
// The kernels run at the build's full vector width: kKernelLanes fp32
// lanes (simd/vec.h) — 16 with AVX-512F, 4 (the paper's 128-bit
// vector) on every other target. Vk is a multiple of the lane
// count; Vw stays a multiple of 4 at every width, because the tile is
// stored in 128-bit quarters.
#pragma once

#include <cstdint>
#include <vector>

#include "core/epilogue.h"
#include "core/fai.h"
#include "simd/vec.h"

namespace ndirect {

/// Where the input window lives and how to address it. Strides are in
/// floats; (c, ih, iw) is at src + c*chan_stride + ih*row_stride +
/// iw*col_stride. NCHW images have col_stride 1, NHWC have chan_stride 1.
struct PackGeometry {
  const float* src = nullptr;
  std::int64_t chan_stride = 0;
  std::int64_t row_stride = 0;
  std::int64_t col_stride = 1;
  int H = 0;    ///< input height bound (rows outside [0,H) pack as zero)
  int W = 0;    ///< input width bound
  int ih0 = 0;  ///< top input row of the window: oh*str - pad
  int iw0 = 0;  ///< left input col of the window: wv*str - pad
  /// Input-column step between consecutive packed elements. 1 packs the
  /// contiguous window; for 1x1 stride-s convolutions the engine packs
  /// every s-th column (stride compaction), letting the micro-kernel
  /// run its stride-1 form on a fully dense buffer.
  int iw_step = 1;
};

/// One micro-kernel invocation: geometry of the tile and its operands.
///
/// `pack` usually points at the linear buffer laid out [tc][R][packw]
/// (pack_c_stride = R*packw, pack_r_stride = packw). When a window is
/// fully interior and needs no compaction (1x1 stride-1), the engine
/// instead points `pack` directly into the input tensor and sets the
/// strides to the tensor's channel/row strides — the compute kernels
/// only ever read rows through these two strides.
struct MicroArgs {
  float* pack = nullptr;        ///< packed buffer or in-place input rows
  std::int64_t pack_c_stride = 0;  ///< float stride between channels
  std::int64_t pack_r_stride = 0;  ///< float stride between window rows
  const float* ftile = nullptr; ///< filter tile for this kb: [c][R][S][vk]
  std::int64_t f_c_stride = 0;  ///< stride between channels in ftile
  int tc = 0;                   ///< channels in this C tile
  int R = 0, S = 0, str = 1;
  float* out = nullptr;         ///< output element (w=0, k=0) of the tile
  std::int64_t out_k_stride = 0;  ///< NCHW: P*Q,  NHWC: 1
  std::int64_t out_w_stride = 0;  ///< NCHW: 1,    NHWC: K
  int wn = 0;                   ///< valid output columns (<= vw)
  int kn = 0;                   ///< valid output channels (<= vk)
  bool accumulate = false;      ///< add into out (later C tiles)

  /// The store epilogue (core/epilogue.h), set only on the final C
  /// tile's stores and rebased to this tile: `bias` points at channel
  /// kv's value, `residual` at the element `out` points at (it shares
  /// out's strides).
  ConvEpilogue epi;
};

/// Upper bounds accepted by the generic kernels (cover every block that
/// can satisfy Eq. 3).
inline constexpr int kMaxVw = 24;
inline constexpr int kMaxVk = 24;

using ComputeKernelFn = void (*)(const MicroArgs&);

/// The register budget the policy registry is generated from, for a
/// kernel of `lanes` fp32 lanes on `regs` vector registers. Vk is a
/// multiple of the lanes; Vw a multiple of 4 (stores go in 128-bit
/// quarters).
///  - 4 lanes: the paper's Eq. 3 on every target — the 128-bit kernels
///    are the NEON kernel set (window + one filter set + tile; a test
///    cross-checks it against register_block_feasible), and the int8
///    engine shares their blocks.
///  - 16 lanes exist only on x86 (AVX-512F), where the broadcast comes
///    from memory: broadcast_register_cost (tile + S filter sets + 1).
constexpr bool kernel_block_feasible(int vw, int vk, int S, int lanes = 4,
                                     int regs = 32) {
  if (vw < 4 || vw > kMaxVw || vk < lanes || vk > kMaxVk) return false;
  if (vw % 4 != 0 || vk % lanes != 0) return false;
  if (lanes == 4) return (vw + S - 1 + 3) / 4 + vk / 4 + vw * vk / 4 <= regs;
  return broadcast_register_cost(vw, vk, S, lanes) <= regs;
}

/// The block the fp32 engine plans with: the FAI-maximal (Eq. 4) block
/// feasible at kKernelLanes / kKernelRegs, with solve_register_block's
/// tie-break. On a 4-lane build it is solve_register_block(S) (the
/// paper's 12x8 for S = 3); at 16 lanes it is 24x16 for S <= 7.
RegisterBlock solve_kernel_block(int S);

/// How a policy kernel stores its tile.
enum class TailMode : std::uint8_t {
  kInterior,  ///< requires wn == Vw and kn == Vk; branch-free full store
  kEdge,      ///< any wn <= Vw, kn <= Vk; masked partial-lane stores
};

/// One instantiated policy: the (Vw, Vk, S, stride, tail-mode) tuple and
/// the generated compute kernel.
struct KernelEntry {
  int vw = 0;
  int vk = 0;
  int S = 0;
  int str = 0;
  TailMode tail = TailMode::kInterior;
  ComputeKernelFn compute = nullptr;
};

/// Every instantiated policy: each feasible block at kKernelLanes x S in
/// {1, 3, 5, 7} x stride in {1, 2} x {interior, edge}. Deterministic
/// order (S, then vw, then vk, then stride, then tail mode).
const std::vector<KernelEntry>& kernel_registry();

/// The distinct (vw, vk) blocks present in the registry at kKernelLanes
/// (the S = 1 feasible set, the superset: the register cost only grows
/// with S). The auto-tuner does not search these: its schedules run on
/// the 128-bit generic kernel, over the 4-lane Eq. 3 set
/// (autotune/space.cpp).
const std::vector<RegisterBlock>& microkernel_blocks();

/// How a convolution's (block, S, stride) resolved against the registry.
enum class KernelClass : std::uint8_t {
  kUnrolled,  ///< fully unrolled policy kernels (interior + edge)
  kGeneric,   ///< runtime-loop fallback — counted in telemetry
};

const char* kernel_class_name(KernelClass cls);

/// Per-conv kernel resolution: the engine calls this once per (block,
/// S, stride) — not per tile — and dispatches tiles to `interior` when
/// the tile is full (wn == vw, kn == vk) and to `edge` otherwise. For
/// kGeneric both slots are nullptr and the caller must use
/// compute_kernel_generic (and count the fallback). `reason` says why
/// the resolution fell short of kUnrolled ("" when it didn't).
struct KernelResolution {
  ComputeKernelFn interior = nullptr;
  ComputeKernelFn edge = nullptr;
  KernelClass cls = KernelClass::kGeneric;
  const char* reason = "";
};

KernelResolution resolve_kernel(int vw, int vk, int S, int str);

/// Fully unrolled Algorithm 3 kernel: compile-time Vw, Vk, S and stride.
/// Every (w, s) tap becomes one broadcast FMA, exactly as lines 3-14 of
/// Algorithm 3 arrange it (on NEON the input window is preloaded into
/// ceil(packw/4) registers and read by lane). Returns the registry's
/// interior-store policy for the tuple, or nullptr when it is not
/// instantiated (block infeasible at this width, S outside {1, 3, 5, 7},
/// or stride > 2).
/// NOTE: on NEON reads the pack buffer in whole vectors, so rows must be
/// readable up to the next multiple of 4 floats (the engine allocates
/// the buffer with that slack).
ComputeKernelFn find_unrolled_kernel(int vw, int vk, int S, int str);

/// Runtime-parameterized 128-bit kernel (any vw <= kMaxVw,
/// vk <= kMaxVk, vk % 4 == 0). Last-resort fallback for every (block,
/// S, stride) outside the registry (scalar ragged stores) and the parity
/// reference every registry kernel, at any width, is compared against
/// bitwise; every invocation the engine makes of it is counted in
/// Counter::kGenericFallback.
void compute_kernel_generic(const MicroArgs& args, int vw, int vk);

/// The packing micro-kernel: gathers the tc x R x packw window `geom`
/// describes into `pack`, laid out [tc][R][packw].
void pack_window(float* pack, const PackGeometry& geom, int tc, int R,
                 int packw);

}  // namespace ndirect
