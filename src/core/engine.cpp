// The nDirect execution engine: Algorithm 2's loop nest around the
// micro-kernels, with the PTn x PTk thread grid of Section 6.
#include <algorithm>
#include <stdexcept>

#include "core/alpha.h"
#include "core/exec.h"
#include "core/filter_transform.h"
#include "core/microkernel.h"
#include "core/ndirect.h"

namespace ndirect {

namespace {

/// Per-layout addressing used by the shared loop nest.
struct LayoutStrides {
  // input
  std::int64_t in_image = 0;   ///< stride between batch images
  std::int64_t in_chan = 0;    ///< PackGeometry.chan_stride
  std::int64_t in_row = 0;     ///< PackGeometry.row_stride
  std::int64_t in_col = 1;     ///< PackGeometry.col_stride
  // output
  std::int64_t out_image = 0;
  std::int64_t out_k = 0;      ///< MicroArgs.out_k_stride
  std::int64_t out_row = 0;    ///< stride between output rows
  std::int64_t out_w = 0;      ///< MicroArgs.out_w_stride
};

LayoutStrides nchw_strides(const ConvParams& p) {
  const std::int64_t P = p.P(), Q = p.Q();
  LayoutStrides s;
  s.in_image = std::int64_t{p.C} * p.H * p.W;
  s.in_chan = std::int64_t{p.H} * p.W;
  s.in_row = p.W;
  s.in_col = 1;
  s.out_image = std::int64_t{p.K} * P * Q;
  s.out_k = P * Q;
  s.out_row = Q;
  s.out_w = 1;
  return s;
}

LayoutStrides nhwc_strides(const ConvParams& p) {
  const std::int64_t P = p.P(), Q = p.Q();
  LayoutStrides s;
  s.in_image = std::int64_t{p.H} * p.W * p.C;
  s.in_chan = 1;
  s.in_row = std::int64_t{p.W} * p.C;
  s.in_col = p.C;
  s.out_image = P * Q * p.K;
  s.out_k = 1;
  s.out_row = std::int64_t{Q} * p.K;
  s.out_w = p.K;
  return s;
}

}  // namespace

namespace {

// Row-group flattening for GEMM-shaped (1x1 stride-1 unpadded) convs:
// merge g rows (g | H) into one logical row so the micro-kernel tiles a
// width of at least ~4*Vw, amortizing the ragged last tile.
ConvParams flatten_rows(const ConvParams& p, int vw) {
  if (!(p.R == 1 && p.S == 1 && p.str == 1 && p.pad == 0)) return p;
  const int target = 4 * vw;
  if (p.W >= target) return p;
  int g = 1;
  for (int d = 1; d <= p.H; ++d) {
    if (p.H % d == 0 && p.W * d <= 4 * target) {
      g = d;
      if (p.W * d >= target) break;
    }
  }
  ConvParams flat = p;
  flat.H = p.H / g;
  flat.W = p.W * g;
  return flat;
}

}  // namespace

NdirectConv::NdirectConv(const ConvParams& params,
                         const NdirectOptions& options)
    : params_(params), options_(options) {
  if (!params.valid()) {
    throw std::invalid_argument("NdirectConv: invalid convolution " +
                                params.to_string());
  }
  const bool forced_rb = options.force_rb.vw > 0 && options.force_rb.vk > 0;
  plan_.rb = forced_rb ? options.force_rb : solve_kernel_block(params.S);
  exec_ = flatten_rows(params_, plan_.rb.vw);
  const CacheInfo cache =
      options.cache != nullptr ? *options.cache : probe_host_cpu().cache;
  // A forced block gets the tiles Eq. 1/2 solve for it. The planner's
  // own block gets the tiles solved for the paper's 128-bit block at
  // every kernel width, so the C reduction splits into the same Tc tiles
  // whatever the lane count and outputs are bitwise identical across
  // widths. At 16 lanes Eq. 1 for the 24x16 block would halve Tc; the
  // larger Tc measured faster (fewer accumulate passes over the output;
  // EXPERIMENTS.md, "Full vector width"). Tk stays a multiple of Vk.
  if (options.force_tiling.tc > 0 && options.force_tiling.tk > 0) {
    plan_.tiling = options.force_tiling;
  } else if (forced_rb) {
    plan_.tiling = solve_tiling(cache, plan_.rb, exec_);
  } else {
    plan_.tiling = solve_tiling(cache, solve_register_block(params.S), exec_);
    plan_.tiling.tk =
        std::max(plan_.rb.vk, plan_.tiling.tk / plan_.rb.vk * plan_.rb.vk);
  }
  plan_.alpha = options.alpha > 0 ? options.alpha : host_alpha();
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::global();
  const int threads =
      options.threads > 0 ? options.threads : static_cast<int>(pool.size());
  // Under the stealing schedule the solver may pick a partial grid
  // (ptn * ptk < threads) when its FAI wins; the leftover threads join
  // the run as pure stealers instead of idling.
  const bool stealing = options.schedule == SchedulePolicy::kStealing;
  plan_.mapping =
      options.force_mapping.ptn > 0 && options.force_mapping.ptk > 0
          ? options.force_mapping
          : solve_thread_mapping(exec_, plan_.alpha, threads, stealing);
  plan_.stealers =
      stealing ? std::max(0, threads - plan_.mapping.total()) +
                     std::max(0, options.extra_stealers)
               : 0;
  // Stride compaction: a 1x1 stride-s kernel only ever taps every s-th
  // input column, so the packing kernel gathers just those and the
  // micro-kernel runs its dense stride-1 form (packw = Vw).
  const bool compact = params.S == 1 && params.str > 1;
  plan_.packw =
      compact ? plan_.rb.vw : (plan_.rb.vw - 1) * params.str + params.S;
}

namespace {

// Shared loop nest for both layouts.
void run_nest(const ConvParams& p, const NdirectPlan& plan,
              const NdirectOptions& opts, const LayoutStrides& ls,
              const float* input, const float* filter, bool packed,
              float* output, const NdirectConv::Epilogue& epi) {
  const int P = p.P(), Q = p.Q();
  const int vw = plan.rb.vw, vk = plan.rb.vk;
  const int tc = plan.tiling.tc, th = plan.tiling.th;
  const std::int64_t k_blocks_total = (p.K + vk - 1) / vk;
  const std::int64_t tk_blocks = std::max(1, plan.tiling.tk / vk);
  const std::int64_t f_c_stride = std::int64_t{p.R} * p.S * vk;

  // Macro-tile grid for the scheduler: a chunk of up to Th output rows
  // (never crossing an image boundary; sched_row_chunk overrides for
  // ablation) x a chunk of up to Tk worth of K blocks. The Th x Tk tile
  // is the loop nest's natural reuse unit — one transformed filter
  // tile, one packed-window row set — so a stolen tile forfeits no
  // intra-tile locality, and the whole C reduction stays inside it, so
  // the claim order cannot change results. When the cache tiles cover
  // the whole problem (small layers: Th >= P, Tk >= K) the chunks are
  // refined below the cache tile so the grid still covers PTn x PTk
  // workers — the granularity the static Eq. 5/6 slicing always had.
  const std::int64_t total_rows = std::int64_t{p.N} * P;
  std::int64_t th_rows =
      opts.sched_row_chunk > 0 ? opts.sched_row_chunk : th;
  if (opts.sched_row_chunk == 0) {
    th_rows = std::min(th_rows, std::max<std::int64_t>(
                                    1, total_rows / plan.mapping.ptn));
  }
  const std::int64_t chunks_per_image =
      (std::int64_t{P} + th_rows - 1) / th_rows;
  const std::int64_t row_chunks = std::int64_t{p.N} * chunks_per_image;
  const std::int64_t tk_chunk = std::min(
      tk_blocks,
      std::max<std::int64_t>(1, k_blocks_total / plan.mapping.ptk));
  const std::int64_t k_chunks =
      (k_blocks_total + tk_chunk - 1) / tk_chunk;

  // Stride compaction (see the planner): with S == 1 the packed buffer
  // is gathered at column step `str`, and the kernels index it densely.
  const bool stride_compact = p.S == 1 && p.str > 1;
  const int kstr = stride_compact ? 1 : p.str;

  // Kernel resolution, once per conv rather than per tile: the fully
  // unrolled policy pair when this (block, S, stride) is instantiated —
  // interior store for full tiles, masked-edge store for ragged ones —
  // else the generic kernel (every generic invocation is counted in
  // Counter::kGenericFallback so such convs show up in telemetry and
  // ConvReport).
  //
  // Ragged W tiles run a narrower block (wn rounded up to a vector
  // multiple) instead of the full vw tile; computing the full tile
  // would waste (vw - wn)/vw of its arithmetic, which is decisive when
  // Q is small (e.g. Q=14 under vw=12 wastes 10/24) — so the W tail
  // gets its own resolution. A narrower block never loses feasibility
  // (Eq. 3 cost is monotone in vw), so the tail resolves to the
  // registry whenever the main block does.
  KernelResolution main_k, tail_k;
  const int q_tail = Q % vw;
  const int vw_tail = q_tail == 0 ? 0 : std::min(vw, (q_tail + 3) / 4 * 4);
  if (!opts.generic_kernel_only) {
    main_k = resolve_kernel(vw, vk, p.S, kstr);
    if (q_tail > 0) tail_k = resolve_kernel(vw_tail, vk, p.S, kstr);
  }

  // Working buffers: the pack window (+4 floats of slack: the unrolled
  // kernel reads the final row in whole vectors, the extra lanes are
  // loaded but never consumed) and, unless the filter arrives packed,
  // the on-the-fly filter tile.
  ExecOptions ex;
  ex.pool = opts.pool;
  ex.stealing = opts.schedule == SchedulePolicy::kStealing;
  ex.persistent_scratch = opts.persistent_scratch;
  ex.scratch[static_cast<int>(ScratchSlot::kPack)] =
      static_cast<std::size_t>(tc) * p.R * plan.packw + 4;
  if (!packed)
    ex.scratch[static_cast<int>(ScratchSlot::kFilterTile)] =
        static_cast<std::size_t>(tk_blocks) * vk * tc * p.R * p.S;
  ex.telemetry = opts.telemetry;
  ex.phase_timer = opts.phase_timer;
  ex.sched_stats = opts.sched_stats;

  // Every worker starts on exactly the tiles its Eq. 5/6 slice covers
  // (the paper's mapping, rounded to tile granularity); workers beyond
  // the grid (plan.stealers) seed empty and only steal.
  const TileGrid grid{static_cast<int>(row_chunks),
                      static_cast<int>(k_chunks), plan.mapping,
                      plan.stealers};

  run_tiles(grid, ex, [&](auto& w, int rchunk, int kchunk) {
    float* pack = w.scratch(ScratchSlot::kPack);
    float* ftile = w.scratch(ScratchSlot::kFilterTile);
    const std::int64_t n = rchunk / chunks_per_image;
    const int oh_begin =
        static_cast<int>((rchunk % chunks_per_image) * th_rows);
    const int oh_end =
        static_cast<int>(std::min<std::int64_t>(oh_begin + th_rows, P));
    // The tile's K extent is one Tk chunk — what loop L4 stepped over per
    // slice in the static nest.
    const std::int64_t kb0 = static_cast<std::int64_t>(kchunk) * tk_chunk;
    const std::int64_t kbn =
        std::min<std::int64_t>(tk_chunk, k_blocks_total - kb0);

    const float* image = input + n * ls.in_image;

    for (int ht = oh_begin; ht < oh_end; ht += th) {         // loop L2
      const int hv_end = std::min(ht + th, oh_end);
      for (int ct = 0; ct < p.C; ct += tc) {                 // loop L3
        const int tcn = std::min(tc, p.C - ct);
        const bool first_c = ct == 0;
        // The epilogue fires with the final C tile's stores, when the
        // output element receives its last contribution.
        const bool last_c = ct + tcn >= p.C;
        const float* ftile_base;
        std::int64_t f_kb_stride;
        if (packed) {
          ftile_base = filter + (kb0 * p.C + ct) * f_c_stride;
          f_kb_stride = std::int64_t{p.C} * f_c_stride;
        } else {
          w.timed(Counter::kTransformNs, [&] {
            transform_filter_tile(filter, p.K, p.C, p.R, p.S,
                                  static_cast<int>(kb0) * vk,
                                  static_cast<int>(kbn) * vk, ct, tcn, vk,
                                  ftile);
          });
          ftile_base = ftile;
          f_kb_stride = std::int64_t{tcn} * f_c_stride;
        }

        for (int hv = ht; hv < hv_end; ++hv) {               // loop L5
          for (int wv = 0; wv < Q; wv += vw) {               // loop L6
            const int wn = std::min(vw, Q - wv);
            PackGeometry g;
            g.src = image + ct * ls.in_chan;
            g.chan_stride = ls.in_chan;
            g.row_stride = ls.in_row;
            g.col_stride = ls.in_col;
            g.H = p.H;
            g.W = p.W;
            g.ih0 = hv * p.str - p.pad;
            g.iw0 = wv * p.str - p.pad;
            g.iw_step = stride_compact ? p.str : 1;

            // Direct-read mode: a 1x1 stride-1 window that lies fully
            // inside the (unpadded) input is already the contiguous row
            // the kernel wants — skip packing and point the kernel at
            // the tensor itself. (Safe to read in whole vectors: tensors
            // carry a cache line of tail slack; taps only touch the
            // first (wn-1)*str + S columns.)
            const bool direct_row =
                p.S == 1 && p.str == 1 && ls.in_col == 1 && g.ih0 >= 0 &&
                g.ih0 + p.R <= p.H && g.iw0 >= 0 &&
                g.iw0 + (wn - 1) * p.str + p.S <= p.W;

            MicroArgs a;
            if (direct_row) {
              a.pack = const_cast<float*>(
                  g.src + static_cast<std::int64_t>(g.ih0) * ls.in_row +
                  g.iw0);
              a.pack_c_stride = ls.in_chan;
              a.pack_r_stride = ls.in_row;
            } else {
              a.pack = pack;
              a.pack_c_stride = std::int64_t{p.R} * plan.packw;
              a.pack_r_stride = plan.packw;
            }
            a.f_c_stride = f_c_stride;
            a.tc = tcn;
            a.R = p.R;
            a.S = p.S;
            a.str = kstr;
            a.out_k_stride = ls.out_k;
            a.out_w_stride = ls.out_w;
            a.wn = wn;
            a.accumulate = !first_c;
            a.epi.relu = last_c && epi.relu;

            // Dispatch against the per-conv resolution: interior when
            // the tile fills its resolved block (the W tail uses the
            // narrower vw_tail block, so its full tiles are interior
            // too), masked-edge otherwise. Both slots are non-null for
            // any registered block; the generic fallback only fires for
            // blocks outside the registry.
            const bool full_w = wn == vw;
            const KernelResolution& kres = full_w ? main_k : tail_k;
            const int rvw = full_w ? vw : vw_tail;

            const auto call_compute = [&] {
              const ComputeKernelFn fn =
                  a.wn == rvw && a.kn == vk ? kres.interior : kres.edge;
              if (fn != nullptr) {
                fn(a);
              } else {
                w.count_generic();
                compute_kernel_generic(a, full_w ? vw : wn, vk);
              }
            };

            // Pack the window once, ahead of loop L7, so every kv
            // block's kernel reads it from L1 and no copy runs inside an
            // FMA loop (a direct row has nothing to pack).
            if (!direct_row) {
              w.timed_pack(
                  [&] { pack_window(pack, g, tcn, p.R, plan.packw); });
            }

            for (std::int64_t b = 0; b < kbn; ++b) {         // loop L7
              const std::int64_t kv = (kb0 + b) * vk;
              a.kn = static_cast<int>(std::min<std::int64_t>(vk, p.K - kv));
              const std::int64_t out_off = n * ls.out_image +
                                           kv * ls.out_k + hv * ls.out_row +
                                           wv * ls.out_w;
              a.ftile = ftile_base + b * f_kb_stride;
              a.out = output + out_off;
              a.epi.bias = last_c && epi.bias != nullptr ? epi.bias + kv
                                                         : nullptr;
              a.epi.residual = last_c && epi.residual != nullptr
                                   ? epi.residual + out_off
                                   : nullptr;
              w.timed(Counter::kMicrokernelNs, call_compute);
            }
          }
        }
      }
    }
  });
}

// One run of `conv` in either layout: the filter arrives packed (from
// pack_filter, or packed here for the aot_filter ablation), or in KCRS
// and is transformed tile by tile inside the loop nest.
void run_layout(const NdirectConv& conv, const LayoutStrides& ls,
                const float* input, const float* filter, bool packed,
                float* output, const NdirectConv::Epilogue& epilogue) {
  const NdirectOptions& options = conv.options();
  Tensor aot;
  if (!packed && options.aot_filter) {
    WallTimer t;
    aot = conv.pack_filter(filter);
    if (options.phase_timer != nullptr)
      options.phase_timer->add("transform", t.seconds());
    filter = aot.data();
    packed = true;
  }
  run_nest(conv.exec_params(), conv.plan(), options, ls, input, filter,
           packed, output, epilogue);
}

bool is_kcrs_filter(const Tensor& f, const ConvParams& p) {
  return f.layout() == Layout::KCRS && f.rank() == 4 && f.dim(0) == p.K &&
         f.dim(1) == p.C && f.dim(2) == p.R && f.dim(3) == p.S;
}

/// True when `f` has the exact dims pack_filter() gives `p` at `vk`.
bool is_packed_filter(const Tensor& f, const ConvParams& p, int vk) {
  return f.layout() == Layout::KPacked && f.rank() == 5 &&
         f.dim(0) == (p.K + vk - 1) / vk && f.dim(1) == p.C &&
         f.dim(2) == p.R && f.dim(3) == p.S && f.dim(4) == vk;
}

}  // namespace

Tensor NdirectConv::run(const Tensor& input, const Tensor& filter,
                        const Epilogue& epilogue) const {
  const ConvParams& p = params_;
  if (input.layout() != Layout::NCHW || input.rank() != 4 ||
      input.dim(0) != p.N || input.dim(1) != p.C || input.dim(2) != p.H ||
      input.dim(3) != p.W) {
    throw std::invalid_argument("NdirectConv::run: input must be NCHW " +
                                p.to_string() + ", got " +
                                input.shape_string());
  }
  const bool packed = is_packed_filter(filter, p, plan_.rb.vk);
  if (!packed && !is_kcrs_filter(filter, p)) {
    throw std::invalid_argument("NdirectConv::run: filter must be KCRS " +
                                p.to_string() +
                                " or its pack_filter() tensor, got " +
                                filter.shape_string());
  }

  Tensor out = make_output_nchw(p.N, p.K, p.P(), p.Q());
  run_layout(*this, nchw_strides(exec_), input.data(), filter.data(), packed,
             out.data(), epilogue);
  return out;
}

void NdirectConv::run_into(const float* input, const float* filter,
                           float* output, const Epilogue& epilogue) const {
  run_layout(*this, nchw_strides(exec_), input, filter, false, output,
             epilogue);
}

void NdirectConv::run_into(const float* input, const Tensor& packed,
                           float* output, const Epilogue& epilogue) const {
  if (!is_packed_filter(packed, params_, plan_.rb.vk)) {
    throw std::invalid_argument(
        "NdirectConv::run_into: packed filter must be pack_filter()'s "
        "KPacked tensor for " +
        params_.to_string() + ", got " + packed.shape_string());
  }
  run_layout(*this, nchw_strides(exec_), input, packed.data(), true, output,
             epilogue);
}

Tensor NdirectConv::pack_filter(const float* kcrs) const {
  const ConvParams& p = params_;
  const int vk = plan_.rb.vk;
  Tensor packed({(p.K + vk - 1) / vk, p.C, p.R, p.S, vk}, Layout::KPacked);
  transform_filter_tile(kcrs, p.K, p.C, p.R, p.S, 0,
                        static_cast<int>(packed.dim(0)) * vk, 0, p.C, vk,
                        packed.data());
  return packed;
}

Tensor NdirectConv::run_nhwc(const Tensor& input, const Tensor& filter,
                             const Epilogue& epilogue) const {
  const ConvParams& p = params_;
  if (input.layout() != Layout::NHWC || input.rank() != 4 ||
      input.dim(0) != p.N || input.dim(1) != p.H || input.dim(2) != p.W ||
      input.dim(3) != p.C) {
    throw std::invalid_argument("NdirectConv::run_nhwc: input must be "
                                "NHWC " +
                                p.to_string() + ", got " +
                                input.shape_string());
  }
  const bool packed = is_packed_filter(filter, p, plan_.rb.vk);
  if (!packed && !is_kcrs_filter(filter, p)) {
    throw std::invalid_argument("NdirectConv::run_nhwc: filter must be "
                                "KCRS " +
                                p.to_string() +
                                " or its pack_filter() tensor, got " +
                                filter.shape_string());
  }

  Tensor out = make_output_nhwc(p.N, p.P(), p.Q(), p.K);
  run_layout(*this, nhwc_strides(exec_), input.data(), filter.data(), packed,
             out.data(), epilogue);
  return out;
}

Tensor ndirect_conv(const Tensor& input, const Tensor& filter,
                    const ConvParams& params,
                    const NdirectOptions& options) {
  const NdirectConv conv(params, options);
  return conv.run(input, filter);
}

}  // namespace ndirect
