// Correctness tests for the nDirect engine and micro-kernels.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/naive_conv.h"
#include "conv_shapes.h"
#include "core/filter_transform.h"
#include "core/microkernel.h"
#include "core/ndirect.h"
#include "runtime/scratch.h"
#include "runtime/telemetry.h"
#include "tensor/compare.h"
#include "tensor/rng.h"
#include "tensor/transforms.h"

namespace ndirect {
namespace {

// ----------------------------------------------------------------------
// Filter transform
// ----------------------------------------------------------------------

TEST(FilterTransform, TileMatchesWholeTensorTransform) {
  // The tiled on-the-fly transform must produce byte-identical blocks of
  // the ahead-of-time KPacked layout (restricted to the tile's channels).
  const int K = 20, C = 10, R = 3, S = 3, vk = 8;
  Tensor f = make_filter_kcrs(K, C, R, S);
  fill_random(f, 1);
  const Tensor whole = pack_filter_kpacked(f, vk);

  const int kt = 8, tkn = 16, ct = 3, tcn = 5;
  std::vector<float> tile(static_cast<std::size_t>((tkn + vk - 1) / vk) *
                          tcn * R * S * vk);
  transform_filter_tile(f.data(), K, C, R, S, kt, tkn, ct, tcn, vk,
                        tile.data());

  for (int kb = 0; kb < tkn / vk; ++kb) {
    for (int c = 0; c < tcn; ++c) {
      for (int e = 0; e < R * S * vk; ++e) {
        const std::int64_t tile_idx =
            (static_cast<std::int64_t>(kb) * tcn + c) * R * S * vk + e;
        const std::int64_t whole_idx =
            (static_cast<std::int64_t>(kt / vk + kb) * C + (ct + c)) * R *
                S * vk +
            e;
        ASSERT_EQ(tile[tile_idx], whole.data()[whole_idx])
            << "kb=" << kb << " c=" << c << " e=" << e;
      }
    }
  }
}

TEST(FilterTransform, RaggedKBlockIsZeroPadded) {
  const int K = 10, C = 2, R = 1, S = 1, vk = 8;
  Tensor f = make_filter_kcrs(K, C, R, S);
  f.fill(1.0f);
  // Tile covering k in [8, 16): only k=8,9 exist.
  std::vector<float> tile(static_cast<std::size_t>(1) * C * R * S * vk,
                          -1.0f);
  transform_filter_tile(f.data(), K, C, R, S, 8, 8, 0, C, vk, tile.data());
  for (int c = 0; c < C; ++c) {
    for (int ki = 0; ki < vk; ++ki) {
      const float expect = ki < 2 ? 1.0f : 0.0f;
      EXPECT_EQ(tile[c * vk + ki], expect) << "c=" << c << " ki=" << ki;
    }
  }
}

// ----------------------------------------------------------------------
// Packing micro-kernel
// ----------------------------------------------------------------------

TEST(PackWindow, MatchesGatherReferenceNchw) {
  const int C = 3, H = 6, W = 7;
  Tensor in = make_input_nchw(1, C, H, W);
  fill_random(in, 2);
  const int R = 3, packw = 5;
  // Window with its top-left corner hanging into the padding.
  PackGeometry g;
  g.src = in.data();
  g.chan_stride = H * W;
  g.row_stride = W;
  g.col_stride = 1;
  g.H = H;
  g.W = W;
  g.ih0 = -1;
  g.iw0 = -1;
  std::vector<float> pack(static_cast<std::size_t>(C) * R * packw, -1.0f);
  pack_window(pack.data(), g, C, R, packw);
  for (int c = 0; c < C; ++c)
    for (int r = 0; r < R; ++r)
      for (int t = 0; t < packw; ++t) {
        const int ih = g.ih0 + r, iw = g.iw0 + t;
        const float expect = (ih < 0 || ih >= H || iw < 0 || iw >= W)
                                 ? 0.0f
                                 : in.at4(0, c, ih, iw);
        ASSERT_EQ(pack[(c * R + r) * packw + t], expect)
            << "c=" << c << " r=" << r << " t=" << t;
      }
}

TEST(PackWindow, MatchesGatherReferenceNhwcStrides) {
  const int C = 4, H = 5, W = 6;
  Tensor in = make_input_nhwc(1, H, W, C);
  fill_random(in, 3);
  const int R = 2, packw = 8;  // window wider than W: right side zeros
  PackGeometry g;
  g.src = in.data();  // channel 0
  g.chan_stride = 1;
  g.row_stride = static_cast<std::int64_t>(W) * C;
  g.col_stride = C;
  g.H = H;
  g.W = W;
  g.ih0 = 4;  // second row hangs off the bottom
  g.iw0 = 2;
  std::vector<float> pack(static_cast<std::size_t>(C) * R * packw, -1.0f);
  pack_window(pack.data(), g, C, R, packw);
  for (int c = 0; c < C; ++c)
    for (int r = 0; r < R; ++r)
      for (int t = 0; t < packw; ++t) {
        const int ih = g.ih0 + r, iw = g.iw0 + t;
        const float expect = (ih < 0 || ih >= H || iw < 0 || iw >= W)
                                 ? 0.0f
                                 : in.at4(0, ih, iw, c);
        ASSERT_EQ(pack[(c * R + r) * packw + t], expect);
      }
}

// ----------------------------------------------------------------------
// Full convolutions vs Algorithm 1
// ----------------------------------------------------------------------

struct CaseData {
  Tensor input;
  Tensor filter;
  Tensor reference;
};

CaseData make_case(const ConvParams& p, std::uint64_t seed) {
  CaseData c{make_input_nchw(p.N, p.C, p.H, p.W),
             make_filter_kcrs(p.K, p.C, p.R, p.S), Tensor{}};
  fill_random(c.input, seed);
  fill_random(c.filter, seed + 1);
  c.reference = naive_conv_nchw(c.input, c.filter, p);
  return c;
}

class NdirectSweep : public ::testing::TestWithParam<ConvParams> {};

TEST_P(NdirectSweep, FusedPackingMatchesNaive) {
  // The default plan. Each window is packed in its tile's first kv
  // iteration, the placement of §5.3's fused packing, though ahead of
  // the FMA loop rather than inside it; every kv block then runs its
  // kernel on the packed window.
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 21);
  const Tensor out = ndirect_conv(c.input, c.filter, p);
  EXPECT_TRUE(allclose(out, c.reference))
      << compare_tensors(out, c.reference).to_string();
}

// True when the default plan runs every tile on a registry kernel:
// S in the unrolled set and, after stride compaction (a 1x1 stride-s
// conv runs the stride-1 kernel), a stride of 1 or 2.
bool runs_unrolled(const ConvParams& p) {
  const int kstr = p.S == 1 ? 1 : p.str;
  return (p.S == 1 || p.S == 3 || p.S == 5 || p.S == 7) &&
         (kstr == 1 || kstr == 2);
}

TEST_P(NdirectSweep, SequentialPackingMatchesNaive) {
  // The default plan with a telemetry sink: the pack phase runs exactly
  // when some window cannot be read in place (anything but a 1x1
  // stride-1 unpadded conv), and the generic kernel runs exactly for
  // the shapes outside the unrolled set.
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 22);
  TelemetrySnapshot snap;
  NdirectOptions opts;
  opts.telemetry = &snap;
  const Tensor out = ndirect_conv(c.input, c.filter, p, opts);
  EXPECT_TRUE(allclose(out, c.reference))
      << compare_tensors(out, c.reference).to_string();
  if (!kTelemetryCompiled || !telemetry_enabled()) return;
  const bool packs = !(p.S == 1 && p.str == 1 && p.pad == 0);
  EXPECT_EQ(snap.total(Counter::kPackNs) > 0, packs);
  EXPECT_EQ(snap.total(Counter::kGenericFallback) > 0, !runs_unrolled(p))
      << snap.total(Counter::kGenericFallback) << " generic calls";
}

TEST_P(NdirectSweep, AheadOfTimeFilterMatchesNaive) {
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 23);
  NdirectOptions opts;
  opts.aot_filter = true;
  const Tensor out = ndirect_conv(c.input, c.filter, p, opts);
  EXPECT_TRUE(allclose(out, c.reference))
      << compare_tensors(out, c.reference).to_string();
}

TEST_P(NdirectSweep, NhwcMatchesNaive) {
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 24);
  const NdirectConv conv(p);
  const Tensor out_nhwc = conv.run_nhwc(nchw_to_nhwc(c.input), c.filter);
  EXPECT_EQ(out_nhwc.layout(), Layout::NHWC);
  const Tensor out = nhwc_to_nchw(out_nhwc);
  EXPECT_TRUE(allclose(out, c.reference))
      << compare_tensors(out, c.reference).to_string();
}

TEST_P(NdirectSweep, MultiThreadedGridMatchesNaive) {
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 25);
  ThreadPool pool(4);
  NdirectOptions opts;
  opts.pool = &pool;
  opts.threads = 4;
  const Tensor out = ndirect_conv(c.input, c.filter, p, opts);
  EXPECT_TRUE(allclose(out, c.reference))
      << compare_tensors(out, c.reference).to_string();
}

TEST_P(NdirectSweep, TinyTilesForceMultiTilePaths) {
  // Forcing Tc/Tk/Th to minimum legal values makes every loop level
  // iterate, exercising C-tile accumulation and filter tile reloads.
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 26);
  NdirectOptions opts;
  opts.force_rb = {8, kKernelLanes};  // a registry block at every width
  opts.force_tiling = {2, kKernelLanes, 2};  // tc=2, tk=vk, th=2
  const Tensor out = ndirect_conv(c.input, c.filter, p, opts);
  EXPECT_TRUE(allclose(out, c.reference))
      << compare_tensors(out, c.reference).to_string();
}

TEST_P(NdirectSweep, GenericKernelFallbackMatchesNaive) {
  // A register block outside the registry must route through
  // compute_kernel_generic.
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 27);
  NdirectOptions opts;
  // 20x8 is outside the registry at every width: over Eq. 3's budget
  // at 4 lanes, vk not a multiple of 16 lanes.
  opts.force_rb = {20, 8};
  ASSERT_EQ(resolve_kernel(20, 8, p.S, p.str).cls, KernelClass::kGeneric);
  const Tensor out = ndirect_conv(c.input, c.filter, p, opts);
  EXPECT_TRUE(allclose(out, c.reference))
      << compare_tensors(out, c.reference).to_string();
}

TEST_P(NdirectSweep, CachedFilterMatchesFreshBitExact) {
  // Inference path: running on the pack_filter() tensor must change
  // nothing about the arithmetic — packed and on-the-fly (transform
  // every call) results are bitwise identical, through run() and the
  // packed run_into() overload, and a repeat packed run matches too.
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 28);
  const NdirectConv conv(p);
  const Tensor packed = conv.pack_filter(c.filter.data());
  const Tensor a = conv.run(c.input, packed);
  const Tensor b = conv.run(c.input, packed);
  const Tensor d = conv.run(c.input, c.filter);
  Tensor e = make_output_nchw(p.N, p.K, p.P(), p.Q());
  conv.run_into(c.input.data(), packed, e.data());
  EXPECT_TRUE(allclose(a, b, 0.0, 0.0))
      << compare_tensors(a, b).to_string();
  EXPECT_TRUE(allclose(a, d, 0.0, 0.0))
      << compare_tensors(a, d).to_string();
  EXPECT_TRUE(allclose(a, e, 0.0, 0.0))
      << compare_tensors(a, e).to_string();
  EXPECT_TRUE(allclose(a, c.reference))
      << compare_tensors(a, c.reference).to_string();
}

TEST_P(NdirectSweep, PlannedWidthMatchesPaperBlockGenericBitExact) {
  // Every output gets its (c, r, s) taps in the same order at any vector
  // width and block, and the C tiles are solved for the paper's block at
  // every width, so the planned run (kKernelLanes-wide registry kernels)
  // is bitwise the 128-bit generic kernel at the paper's Eq. 3 block,
  // in both layouts.
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 30);
  NdirectOptions paper;
  paper.force_rb = solve_register_block(p.S);
  paper.generic_kernel_only = true;
  const NdirectConv planned(p), reference(p, paper);
  const Tensor a = planned.run(c.input, c.filter);
  const Tensor b = reference.run(c.input, c.filter);
  EXPECT_TRUE(allclose(a, b, 0.0, 0.0)) << compare_tensors(a, b).to_string();
  const Tensor input_nhwc = nchw_to_nhwc(c.input);
  const Tensor an = planned.run_nhwc(input_nhwc, c.filter);
  const Tensor bn = reference.run_nhwc(input_nhwc, c.filter);
  EXPECT_TRUE(allclose(an, bn, 0.0, 0.0))
      << compare_tensors(an, bn).to_string();
}

TEST_P(NdirectSweep, CachedFilterMatchesFreshBitExactNhwc) {
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 29);
  const Tensor input_nhwc = nchw_to_nhwc(c.input);
  const NdirectConv conv(p);
  const Tensor packed = conv.pack_filter(c.filter.data());
  const Tensor a = conv.run_nhwc(input_nhwc, packed);
  const Tensor b = conv.run_nhwc(input_nhwc, packed);
  const Tensor d = conv.run_nhwc(input_nhwc, c.filter);
  EXPECT_TRUE(allclose(a, b, 0.0, 0.0))
      << compare_tensors(a, b).to_string();
  EXPECT_TRUE(allclose(a, d, 0.0, 0.0))
      << compare_tensors(a, d).to_string();
  EXPECT_TRUE(allclose(nhwc_to_nchw(a), c.reference))
      << compare_tensors(nhwc_to_nchw(a), c.reference).to_string();
}

TEST_P(NdirectSweep, CachedFilterAgreesWithGenericReference)  {
  // Third independent witness: the packed-filter result vs. the generic
  // (non-specialized) kernel on the on-the-fly transform. The generic
  // kernel accumulates in the same order, so this too is bit-exact.
  const ConvParams p = GetParam();
  const CaseData c = make_case(p, 30);
  const NdirectConv conv(p);
  NdirectOptions generic_opts;
  generic_opts.generic_kernel_only = true;
  const NdirectConv generic(p, generic_opts);
  const Tensor a = conv.run(c.input, conv.pack_filter(c.filter.data()));
  const Tensor g = generic.run(c.input, c.filter);
  EXPECT_TRUE(allclose(a, g, 0.0, 0.0))
      << compare_tensors(a, g).to_string();
}

// The shared sweep plus fp32 edge shapes, most of which fall outside
// the unrolled set and run the generic kernel: S = 2 and 4, stride 3
// (S = 1, which stride compaction runs as the unrolled stride-1 kernel,
// and S = 3), a stride larger than the kernel, padding at least the
// kernel, K not a multiple of 16, and a 1x1 output plane.
std::vector<ConvParams> sweep_shapes() {
  std::vector<ConvParams> v = correctness_conv_shapes();
  v.insert(v.end(), {
      {.N = 1, .C = 5, .H = 9, .W = 11, .K = 12, .R = 2, .S = 2, .str = 1, .pad = 0},
      {.N = 1, .C = 4, .H = 10, .W = 29, .K = 20, .R = 4, .S = 4, .str = 1, .pad = 2},
      {.N = 1, .C = 8, .H = 10, .W = 31, .K = 16, .R = 1, .S = 1, .str = 3, .pad = 0},
      {.N = 1, .C = 6, .H = 11, .W = 26, .K = 8, .R = 3, .S = 3, .str = 3, .pad = 1},
      {.N = 2, .C = 3, .H = 13, .W = 13, .K = 8, .R = 2, .S = 2, .str = 4, .pad = 0},
      {.N = 1, .C = 4, .H = 5, .W = 7, .K = 8, .R = 3, .S = 3, .str = 1, .pad = 3},
      {.N = 1, .C = 3, .H = 4, .W = 4, .K = 8, .R = 1, .S = 1, .str = 1, .pad = 1},
      {.N = 1, .C = 16, .H = 9, .W = 30, .K = 40, .R = 3, .S = 3, .str = 1, .pad = 1},
      {.N = 2, .C = 16, .H = 1, .W = 1, .K = 32, .R = 1, .S = 1, .str = 1, .pad = 0},
      {.N = 1, .C = 8, .H = 1, .W = 1, .K = 24, .R = 3, .S = 3, .str = 1, .pad = 1},
  });
  return v;
}

INSTANTIATE_TEST_SUITE_P(Shapes, NdirectSweep,
                         ::testing::ValuesIn(sweep_shapes()));

// ----------------------------------------------------------------------
// Scratch arena steady state: no heap growth inside run_nest workers
// ----------------------------------------------------------------------

TEST(NdirectArena, SteadyStateRunsDoNotGrowScratch) {
  const ConvParams p = correctness_conv_shapes().front();
  const CaseData c = make_case(p, 35);
  ThreadPool pool(3);  // persistent workers -> persistent arenas
  NdirectOptions opts;
  opts.pool = &pool;
  opts.threads = 3;
  const NdirectConv conv(p, opts);
  const Tensor packed = conv.pack_filter(c.filter.data());
  const std::uint64_t grows = scratch_grow_events();
  (void)conv.run(c.input, packed);  // warm-up grows the arenas
  const std::uint64_t transforms = transform_filter_tile_calls();
  for (int i = 0; i < 10; ++i) {
    const Tensor out = conv.run(c.input, packed);
    ASSERT_TRUE(allclose(out, c.reference));
  }
  // Claim-based dispatch makes the set of threads serving a given run
  // schedule-dependent, so a worker that sat out the warm-up run may
  // still grow its arena on a later run. The steady-state invariant is
  // that growth is bounded by participants -- each thread grows its
  // pack and filter-tile slots at most once, ever -- never by run
  // count (a regrow bug adds ~2 events per run, ~20 over this loop).
  EXPECT_LE(scratch_grow_events() - grows, 2 * (pool.size() + 1))
      << "steady-state calls must reuse the per-thread arenas";
  EXPECT_EQ(transform_filter_tile_calls(), transforms);
}

// ----------------------------------------------------------------------
// Plan/engine behaviours
// ----------------------------------------------------------------------

TEST(NdirectPlan, UsesSolvedRegisterBlockFor3x3) {
  // Eq. 3 at the paper's 4 lanes gives 12x8; the plan takes the block
  // solved at the kernels' lane count, which is that same 12x8 on a
  // 4-lane build and 24x16 on a 16-lane one.
  const RegisterBlock paper = solve_register_block(3);
  EXPECT_EQ(paper.vw, 12);
  EXPECT_EQ(paper.vk, 8);
  const ConvParams p{.N = 1, .C = 64, .H = 28, .W = 28, .K = 64,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const NdirectConv conv(p);
  const RegisterBlock rb = solve_kernel_block(3);
  EXPECT_EQ(conv.plan().rb.vw, rb.vw);
  EXPECT_EQ(conv.plan().rb.vk, rb.vk);
  EXPECT_EQ(rb.vk % kKernelLanes, 0);
  if (kKernelLanes == 4) {
    EXPECT_EQ(rb.vw, 12);
    EXPECT_EQ(rb.vk, 8);
  }
  EXPECT_EQ(conv.plan().packw, (rb.vw - 1) * 1 + 3);
}

TEST(NdirectPlan, PackwAccountsForStride) {
  const ConvParams p{.N = 1, .C = 8, .H = 28, .W = 28, .K = 8,
                     .R = 3, .S = 3, .str = 2, .pad = 1};
  const NdirectConv conv(p);
  EXPECT_EQ(conv.plan().packw, (conv.plan().rb.vw - 1) * 2 + 3);
}

TEST(NdirectPlan, RespectsCacheOverride) {
  CacheInfo tiny;
  tiny.l1d = 8 << 10;
  tiny.l2 = 64 << 10;
  tiny.l3 = 0;
  CacheInfo big;
  big.l1d = 64 << 10;
  big.l2 = 2 << 20;
  big.l3 = 0;
  const ConvParams p{.N = 1, .C = 256, .H = 14, .W = 14, .K = 256,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  NdirectOptions o1, o2;
  o1.cache = &tiny;
  o2.cache = &big;
  const NdirectConv c1(p, o1), c2(p, o2);
  EXPECT_LT(c1.plan().tiling.tc, c2.plan().tiling.tc);
}

TEST(NdirectEngine, RepeatedRunsAreDeterministic) {
  const ConvParams p{.N = 1, .C = 16, .H = 12, .W = 12, .K = 16,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const CaseData c = make_case(p, 30);
  const NdirectConv conv(p);
  const Tensor a = conv.run(c.input, c.filter);
  const Tensor b = conv.run(c.input, c.filter);
  EXPECT_TRUE(allclose(a, b, 0.0, 0.0));  // bitwise identical
}

TEST(NdirectEngine, PhaseTimerRecordsTransformAndMicrokernel) {
  if (!kTelemetryCompiled)
    GTEST_SKIP() << "phase timing needs NDIRECT_TELEMETRY=ON";
  const ConvParams p{.N = 1, .C = 16, .H = 12, .W = 12, .K = 16,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const CaseData c = make_case(p, 31);
  PhaseTimer pt;
  NdirectOptions opts;
  opts.threads = 1;
  opts.phase_timer = &pt;
  (void)ndirect_conv(c.input, c.filter, p, opts);
  EXPECT_GT(pt.seconds("transform"), 0.0);
  EXPECT_GT(pt.seconds("packing"), 0.0);
  EXPECT_GT(pt.seconds("micro-kernel"), 0.0);
}

TEST(NdirectEngine, ManyThreadConfigurationsAgree) {
  const ConvParams p{.N = 4, .C = 12, .H = 16, .W = 16, .K = 24,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const CaseData c = make_case(p, 33);
  for (int threads : {1, 2, 3, 5, 8}) {
    ThreadPool pool(threads);
    NdirectOptions opts;
    opts.pool = &pool;
    opts.threads = threads;
    const Tensor out = ndirect_conv(c.input, c.filter, p, opts);
    EXPECT_TRUE(allclose(out, c.reference)) << "threads=" << threads;
  }
}

TEST(NdirectEngine, OversubscribedThreadGridStillCorrect) {
  // More logical threads than the pool has workers (the SMT experiment's
  // mechanism: tasks stack round-robin onto pool threads).
  const ConvParams p{.N = 2, .C = 8, .H = 12, .W = 12, .K = 16,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const CaseData c = make_case(p, 34);
  ThreadPool pool(2);
  NdirectOptions opts;
  opts.pool = &pool;
  opts.threads = 8;
  const Tensor out = ndirect_conv(c.input, c.filter, p, opts);
  EXPECT_TRUE(allclose(out, c.reference));
}

}  // namespace
}  // namespace ndirect
