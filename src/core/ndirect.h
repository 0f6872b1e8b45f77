// nDirect public API.
//
// nDirect (Wang et al., SC'23) is a direct convolution for ARM-model
// multi-cores that keeps the framework NCHW/NHWC activation layouts,
// repacks only the (small) filter tensor on the fly, and reaches high
// utilization through an FAI-maximal register-blocked micro-kernel,
// cache-derived loop tiling, an L1-resident packed input window reused
// across output-channel blocks, and an analytically derived PTn x PTk
// thread mapping.
//
// Typical use:
//
//   ConvParams p{.N=..., .C=..., ...};
//   NdirectConv conv(p);                       // plan once
//   Tensor out = conv.run(input, filter);      // run many times
//
// or the one-shot helper `ndirect_conv(input, filter, p)`.
#pragma once

#include "core/epilogue.h"
#include "core/fai.h"
#include "core/threading.h"
#include "core/tiling.h"
#include "runtime/cpu_info.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "runtime/timer.h"
#include "runtime/work_queue.h"
#include "tensor/conv_params.h"
#include "tensor/tensor.h"

namespace ndirect {

/// Everything the planner derived for a shape; exposed for inspection,
/// tests and the model-ablation bench.
struct NdirectPlan {
  RegisterBlock rb{};       ///< Eq. 3/4 register block (Vw, Vk) at the
                            ///< kernels' lane count (solve_kernel_block)
  TilingPlan tiling{};      ///< Eq. 1/2 cache tiles (Tc, Tk, Th), solved
                            ///< for the paper's 4-lane block
  ThreadMapping mapping{};  ///< Eq. 5/6 thread grid (PTn, PTk)
  int stealers = 0;         ///< workers beyond the grid, seeded with no
                            ///< tiles (non-divisor thread counts under
                            ///< the stealing schedule); 0 when static
  int packw = 0;            ///< pack-buffer row length (Vw-1)*str + S
  double alpha = 2.0;       ///< streaming/non-streaming coefficient
};

/// How the PTn x PTk grid's tiles are handed to workers.
enum class SchedulePolicy {
  /// The paper's Eq. 5/6 mapping: every worker drains exactly its seed
  /// slice. Deterministic assignment, but ragged layers and noisy cores
  /// pin wall time to the slowest thread.
  kStatic,
  /// Same seed assignment at macro-tile granularity (a Th-row chunk x
  /// one Tk k-block — the unit that reuses one transformed filter tile
  /// and one packed input window), but exhausted workers steal
  /// unfinished tiles: nearest neighbour in the grid first (same-PTn
  /// victims share the thief's input rows), then globally. Identical
  /// numerical output — tiles own disjoint output blocks and the whole
  /// C reduction stays inside a tile.
  kStealing,
};

struct NdirectOptions {
  /// Transform the whole filter ahead of time (through pack_filter) on
  /// every run instead of per tile inside loop L4 (ablation; the paper's
  /// nDirect transforms on the fly).
  bool aot_filter = false;

  /// Take the workers' pack/filter-tile buffers from the per-OS-thread
  /// persistent scratch arena (runtime/scratch.h) instead of
  /// heap-allocating them on every call. On steady-state calls the loop
  /// nest then performs zero heap allocations. Off reproduces the seed's
  /// per-call allocation behaviour (A/B benching of the fixed overhead).
  bool persistent_scratch = true;

  /// Force the register block instead of solving Eq. 3/4 (ablation and
  /// auto-tuner use). Zero fields mean "solve".
  RegisterBlock force_rb{0, 0};

  /// Force cache tiling (ablation). Zero fields mean "solve".
  TilingPlan force_tiling{0, 0, 0};

  /// Force the PTn x PTk split (ablation / auto-tuner). Zero = solve.
  ThreadMapping force_mapping{0, 0};

  /// Execute with the runtime-parameterized kernel even when an
  /// Algorithm 3 specialization exists. The auto-tuner uses this to
  /// model search-based code generation (a compiler-emitted loop nest
  /// rather than the hand-unrolled lane-FMA kernel).
  bool generic_kernel_only = false;

  /// Tile scheduling policy (see SchedulePolicy). Stealing by default;
  /// kStatic reproduces the seed's static slicing for A/B benches and
  /// bitwise comparison (outputs are identical either way).
  SchedulePolicy schedule = SchedulePolicy::kStealing;

  /// Override the macro-tile row chunk (output rows per tile) for
  /// scheduler ablation. 0 = the plan's Th (one L2 row tile per claim).
  /// Smaller chunks balance better but steal more often.
  int sched_row_chunk = 0;

  /// When non-null, filled after each run with that run's scheduler
  /// observability: tile count, steals (0 under kStatic), and the
  /// max/min tiles any worker executed (imbalance). Not thread-safe
  /// across concurrent runs of the same engine — point each run's
  /// options at its own stats or leave null.
  SchedulerStats* sched_stats = nullptr;

  /// Thread count for the PTn x PTk grid; 0 = the pool's size.
  int threads = 0;

  /// Extra pure-stealer workers dispatched beyond the seeded grid (and
  /// beyond the non-divisor leftover the solver already adds). The graph
  /// executor uses this to seed a conv with a sub-rectangle of the pool
  /// (`threads` = its share of the workers) while still exposing one
  /// task per remaining pool thread: a core that finishes — or never
  /// had — work in a sibling branch claims one of these tasks and
  /// drains this conv's unfinished tiles through the stealing scheduler.
  /// Stealers never change results (tiles own disjoint output blocks);
  /// ignored under SchedulePolicy::kStatic. Only meaningful when
  /// stealing is on.
  int extra_stealers = 0;

  ThreadPool* pool = nullptr;          ///< nullptr = global pool
  const CacheInfo* cache = nullptr;    ///< nullptr = probed host cache
  double alpha = 0;                    ///< 0 = measured host alpha

  /// Aggregated phase breakdown (transform / packing / micro-kernel),
  /// now valid at any worker count: each worker accumulates phase time
  /// into its own telemetry slot and the per-phase sums are folded into
  /// the timer after the run (one add() per phase per run, so counts
  /// are per-run, not per-call). Requires telemetry (both the CMake
  /// option and NDIRECT_TELEMETRY at runtime); records nothing in the
  /// no-op build.
  PhaseTimer* phase_timer = nullptr;

  /// When non-null, filled after each run with that run's per-worker
  /// telemetry: tiles claimed, steals by locality class, phase
  /// nanoseconds, and the run's wall time (the input to
  /// build_conv_report). Overwritten every run; cleared to an empty
  /// snapshot when telemetry is disabled. Like sched_stats, point
  /// concurrent runs of one engine at distinct sinks or leave null.
  TelemetrySnapshot* telemetry = nullptr;
};

/// Planned convolution for one shape (framework-operator style).
class NdirectConv {
 public:
  explicit NdirectConv(const ConvParams& params,
                       const NdirectOptions& options = {});

  const NdirectPlan& plan() const { return plan_; }
  const ConvParams& params() const { return params_; }
  const NdirectOptions& options() const { return options_; }

  /// The internally executed problem. For 1x1 stride-1 unpadded
  /// convolutions the spatial rows are contiguous in memory, so the
  /// planner flattens groups of g rows into one logical row of width
  /// W*g (the CONV -> GEMM dimension mapping of Section 4.1,
  /// N x H x W -> N'). This removes the per-row Vw tail waste that
  /// otherwise dominates small feature maps; g divides H and is 1
  /// whenever W alone already amortizes the tail.
  const ConvParams& exec_params() const { return exec_; }

  /// Bias, residual and ReLU fused into the final stores
  /// (core/epilogue.h). A residual is read with the output's layout:
  /// NCHW [N,K,P,Q] for run/run_into, NHWC [N,P,Q,K] for run_nhwc.
  using Epilogue = ConvEpilogue;

  /// input NCHW [N,C,H,W], filter KCRS -> output NCHW [N,K,P,Q]. The
  /// filter may instead be the KPacked tensor pack_filter() returned,
  /// which skips the transform (same output, bit for bit).
  Tensor run(const Tensor& input, const Tensor& filter,
             const Epilogue& epilogue = {}) const;

  /// input NHWC [N,H,W,C], filter KCRS -> output NHWC [N,P,Q,K].
  /// (The filter stays in the framework KCRS layout in both paths; only
  /// its on-the-fly transform target differs in stride bookkeeping. A
  /// pack_filter() tensor is accepted here too.)
  Tensor run_nhwc(const Tensor& input, const Tensor& filter,
                  const Epilogue& epilogue = {}) const;

  /// Expert entry point on raw NCHW/KCRS buffers (what a framework
  /// integration calls). Shapes are taken from params(); `output` is
  /// overwritten and must hold N*K*P*Q floats. No validation beyond the
  /// planning-time parameter check.
  void run_into(const float* input, const float* filter, float* output,
                const Epilogue& epilogue = {}) const;

  /// Transform a whole KCRS filter (params() K, C, R, S) into the
  /// KPacked [ceil(K/Vk)][C][R][S][Vk] tensor the loop nest reads in
  /// place of its per-tile transform; K positions past K are zero. The
  /// engine keeps no copy: the caller owns the result and passes it to
  /// run()/run_nhwc() in place of the KCRS filter, or to the run_into()
  /// overload below. This is the inference path — the op that owns the
  /// weights packs them once, and steady-state runs transform nothing.
  Tensor pack_filter(const float* kcrs) const;

  /// run_into() on a filter from pack_filter(): no transform at all.
  /// Throws std::invalid_argument unless `packed` is KPacked with this
  /// plan's dims. Concurrent runs may share one packed tensor.
  void run_into(const float* input, const Tensor& packed, float* output,
                const Epilogue& epilogue = {}) const;

 private:
  ConvParams params_;
  ConvParams exec_;
  NdirectOptions options_;
  NdirectPlan plan_;
};

/// One-shot convenience wrapper around NdirectConv.
Tensor ndirect_conv(const Tensor& input, const Tensor& filter,
                    const ConvParams& params,
                    const NdirectOptions& options = {});

}  // namespace ndirect
