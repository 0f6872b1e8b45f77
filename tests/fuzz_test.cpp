// Randomized property sweep: nDirect (all execution modes) against
// Algorithm 1 on ~40 randomly generated valid shapes, a DAG fuzzer
// proving the concurrent graph executor bitwise-identical to
// sequential execution on 100+ random branchy topologies, plus
// public-API validation behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <thread>

#include "baselines/naive_conv.h"
#include "core/microkernel.h"
#include "core/ndirect.h"
#include "nn/graph.h"
#include "nn/optimize.h"
#include "tensor/compare.h"
#include "tensor/rng.h"
#include "tensor/transforms.h"

#include "graph_gen.h"

namespace ndirect {
namespace {

ConvParams random_params(std::mt19937_64& rng) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (;;) {
    ConvParams p;
    p.N = pick(1, 3);
    p.C = pick(1, 40);
    p.K = pick(1, 40);
    p.R = pick(1, 5);
    p.S = pick(1, 5);
    p.str = pick(1, 3);
    p.pad = pick(0, 3);
    p.H = pick(1, 30);
    p.W = pick(1, 30);
    if (p.valid() && p.output_elems() > 0 &&
        p.input_elems() < 200'000) {
      return p;
    }
  }
}

class RandomShapeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomShapeFuzz, AllModesMatchNaive) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const ConvParams p = random_params(rng);
  SCOPED_TRACE(p.to_string());

  Tensor in = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor f = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(in, rng());
  fill_random(f, rng());
  const Tensor ref = naive_conv_nchw(in, f, p);

  // Default plan.
  EXPECT_TRUE(allclose(ndirect_conv(in, f, p), ref));

  // Ahead-of-time filter.
  NdirectOptions aot;
  aot.aot_filter = true;
  EXPECT_TRUE(allclose(ndirect_conv(in, f, p, aot), ref));

  // Random forced register block among the registry's blocks at the
  // build's width that fit the budget at this S.
  std::vector<RegisterBlock> blocks;
  for (const RegisterBlock& b : microkernel_blocks()) {
    if (kernel_block_feasible(b.vw, b.vk, p.S, kKernelLanes, kKernelRegs))
      blocks.push_back(b);
  }
  ASSERT_FALSE(blocks.empty());
  NdirectOptions forced;
  forced.force_rb =
      blocks[std::uniform_int_distribution<std::size_t>(
          0, blocks.size() - 1)(rng)];
  EXPECT_TRUE(allclose(ndirect_conv(in, f, p, forced), ref))
      << "vw=" << forced.force_rb.vw << " vk=" << forced.force_rb.vk;

  // NHWC path.
  const NdirectConv conv(p);
  EXPECT_TRUE(
      allclose(nhwc_to_nchw(conv.run_nhwc(nchw_to_nhwc(in), f)), ref));

  // Multi-threaded grid.
  ThreadPool pool(3);
  NdirectOptions mt;
  mt.pool = &pool;
  mt.threads = 3;
  EXPECT_TRUE(allclose(ndirect_conv(in, f, p, mt), ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShapeFuzz, ::testing::Range(0, 40));

// ----------------------------------------------------------------------
// DAG fuzzer: concurrent == sequential, bitwise, on random topologies
// ----------------------------------------------------------------------

/// One fuzz iteration: build a random branchy DAG (random split/merge/
/// add/concat over conv/relu/pool), run it on one runner once, then
/// assert every concurrent configuration reproduces that output
/// bit-for-bit — the same guarantee the tile scheduler gives within one
/// conv, lifted to whole graphs. Each seed checks:
///   1. the default concurrent executor on a small shared pool,
///   2. repeated runs (schedule nondeterminism must not surface),
///   3. an OVERSUBSCRIBED pool (threads > cores) with seeded
///      sub-rectangle budgets + stealers from plan_concurrency,
///   4. fuse_conv_relu (ReLUs and residual adds into their convs): the
///      node count drops by exactly the returned count, every input id
///      stays below its consumer's, and the output is bitwise the
///      unfused run's.
class DagFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DagFuzz, ConcurrentExecutionBitwiseIdenticalToSequential) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  // Sweep the input batch across the sizes the serving layer coalesces
  // to (single request, partial batch, full batch) — the executor
  // guarantees must hold at every N, not just the generator's default.
  static constexpr int kBatches[] = {1, 3, 8};
  auto g = testgen::build_random_dag(seed, kBatches[seed % 3]);
  const TensorShape& in_shape = g->shape_of(0);
  Tensor input =
      make_input_nchw(in_shape.N, in_shape.C, in_shape.H, in_shape.W);
  fill_random(input, seed * 31 + 7);

  GraphRunOptions seq;
  seq.runners = 1;
  const Tensor expected = g->run(input, seq);
  const std::size_t bytes = expected.size() * sizeof(float);

  ThreadPool pool(3);
  g->set_conv_pool(&pool);
  for (int rep = 0; rep < 2; ++rep) {
    const Tensor got = g->run(input, {});
    ASSERT_EQ(got.size(), expected.size());
    ASSERT_EQ(std::memcmp(got.data(), expected.data(), bytes), 0)
        << "seed " << seed << " rep " << rep;
  }

  // Oversubscribed pool + explicit concurrency plan: more pool threads
  // than cores, convs seeded with sub-rectangles, remainder stealing.
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool wide(2 * hc + 1);
  g->set_conv_pool(&wide);
  g->plan_concurrency();
  const Tensor wide_out = g->run(input, {});
  ASSERT_EQ(wide_out.size(), expected.size());
  ASSERT_EQ(std::memcmp(wide_out.data(), expected.data(), bytes), 0)
      << "seed " << seed << " oversubscribed";

  // Fusing removes each fused ReLU and add node; every remaining edge
  // must still lead to the same output, bit for bit (the store epilogue
  // runs the removed ops' arithmetic in their order).
  const int nodes = g->node_count();
  const int fused = fuse_conv_relu(*g);
  EXPECT_EQ(g->node_count(), nodes - fused) << "seed " << seed;
  for (NodeId id = 1; id < g->node_count(); ++id) {
    for (NodeId in : g->inputs_of(id)) {
      ASSERT_LT(in, id) << "seed " << seed;
      EXPECT_EQ(std::count(g->consumers_of(in).begin(),
                           g->consumers_of(in).end(), id),
                std::count(g->inputs_of(id).begin(),
                           g->inputs_of(id).end(), in))
          << "seed " << seed << " edge " << in << " -> " << id;
    }
  }
  const Tensor fused_out = g->run(input, {});
  ASSERT_EQ(fused_out.size(), expected.size());
  EXPECT_EQ(std::memcmp(fused_out.data(), expected.data(), bytes), 0)
      << "seed " << seed << ": "
      << compare_tensors(fused_out, expected).to_string();
}

INSTANTIATE_TEST_SUITE_P(Topologies, DagFuzz, ::testing::Range(0, 110));

// ----------------------------------------------------------------------
// Residual fusion fuzz: conv -> add (-> relu) chains
// ----------------------------------------------------------------------

/// Residual chains for fuse_conv_relu's add rewrite, from a stream of
/// their own (build_random_dag's stays untouched): a stem conv, then
/// 1-3 blocks x -> conv [-> relu] -> conv -> add(x, .) [-> relu], some
/// with a 1x1 projection shortcut built before or after the main path
/// (so either conv can be the add's later input), and some whose last
/// conv has a second consumer, where the rewrite must not fire.
std::unique_ptr<Graph> build_residual_chain(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto g = std::make_unique<Graph>(pick(1, 2), pick(2, 8), pick(5, 12),
                                   pick(5, 14));
  std::uint64_t wseed = seed * 101;
  auto conv = [&](NodeId src, int k, int r) {
    return g->add(testgen::make_conv(g->shape_of(src), k, r, 1, ++wseed),
                  {src});
  };
  NodeId x = conv(0, pick(3, 20), pick(0, 1) == 0 ? 1 : 3);
  std::vector<NodeId> side;
  const int blocks = pick(1, 3);
  for (int b = 0; b < blocks; ++b) {
    const int channels = g->shape_of(x).C;
    const bool project = pick(0, 2) == 0;
    const bool project_first = pick(0, 1) == 0;
    NodeId shortcut = x;
    if (project && project_first) shortcut = conv(x, channels, 1);
    NodeId m = conv(x, pick(3, 16), pick(0, 1) == 0 ? 1 : 3);
    if (pick(0, 1) == 0) m = g->add(std::make_unique<ReluOp>(), {m});
    const NodeId last = conv(m, channels, pick(0, 1) == 0 ? 1 : 3);
    if (project && !project_first) shortcut = conv(x, channels, 1);
    if (pick(0, 5) == 0) {
      side.push_back(g->add(std::make_unique<ReluOp>(), {last}));
    }
    x = pick(0, 1) == 0
            ? g->add(std::make_unique<AddOp>(), {shortcut, last})
            : g->add(std::make_unique<AddOp>(), {last, shortcut});
    if (pick(0, 2) != 0) x = g->add(std::make_unique<ReluOp>(), {x});
  }
  // Side branches join the output through adds of non-conv inputs.
  for (const NodeId s : side) x = g->add(std::make_unique<AddOp>(), {x, s});
  return g;
}

int count_adds(Graph& g) {
  int n = 0;
  for (NodeId id = 1; id < g.node_count(); ++id) {  // 0 is the input
    if (std::strcmp(g.op_of(id)->name(), "add") == 0) ++n;
  }
  return n;
}

TEST(FuseResidualFuzz, FusedChainsAreBitwiseTheUnfusedRun) {
  // Every fused graph must compute bitwise the unfused graph's output —
  // every fourth seed on the int8 path, whose f32 epilogue takes the
  // residual — and the rewrite must fire in most seeds (DagFuzz's
  // random graphs reach it in only a few).
  constexpr int kSeeds = 48;
  int fired = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    auto plain = build_residual_chain(static_cast<std::uint64_t>(seed));
    auto fused = build_residual_chain(static_cast<std::uint64_t>(seed));
    const int adds = count_adds(*fused);
    const int nodes = fused->node_count();
    const int removed = fuse_conv_relu(*fused);
    EXPECT_EQ(fused->node_count(), nodes - removed) << "seed " << seed;
    if (count_adds(*fused) < adds) ++fired;
    if (seed % 4 == 3) {
      quantize_convs(*plain);
      quantize_convs(*fused);
    }
    const TensorShape& s = plain->shape_of(0);
    Tensor input = make_input_nchw(s.N, s.C, s.H, s.W);
    fill_random(input, static_cast<std::uint64_t>(seed) * 13 + 5);
    const Tensor want = plain->run(input);
    const Tensor got = fused->run(input);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "seed " << seed << ": "
        << compare_tensors(got, want).to_string();
  }
  EXPECT_GE(fired, kSeeds * 3 / 4) << fired << " of " << kSeeds;
}

// ----------------------------------------------------------------------
// Batch invariance: graph(N=k) slice i == graph(N=1) on image i
// ----------------------------------------------------------------------

/// The premise the serving layer's dynamic batching stands on: the same
/// seed built at batch k computes, for every slice of a batched input,
/// bitwise the same output as the batch-1 build on that image alone.
/// Holds because conv weights derive from (seed, K, C, R, S) — never N —
/// and the tile scheduler keeps every output element's reduction inside
/// one tile claim regardless of N (DESIGN.md §10).
class DagBatchInvariance : public ::testing::TestWithParam<int> {};

TEST_P(DagBatchInvariance, BatchedSlicesMatchSingleImageRuns) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const int k = 2 + GetParam() % 3;  // batch 2..4
  auto g1 = testgen::build_random_dag(seed, 1);
  auto gk = testgen::build_random_dag(seed, k);
  const TensorShape s1 = g1->shape_of(0);
  ASSERT_EQ(gk->shape_of(0).N, k);
  ASSERT_EQ(gk->node_count(), g1->node_count());

  // Distinct random image per slice, assembled into the batched input.
  const std::size_t per_in = static_cast<std::size_t>(s1.elems());
  Tensor batched = make_input_nchw(k, s1.C, s1.H, s1.W);
  std::vector<Tensor> singles;
  for (int i = 0; i < k; ++i) {
    Tensor img = make_input_nchw(1, s1.C, s1.H, s1.W);
    fill_random(img, seed * 131 + static_cast<std::uint64_t>(i));
    std::memcpy(batched.data() + static_cast<std::size_t>(i) * per_in,
                img.data(), per_in * sizeof(float));
    singles.push_back(std::move(img));
  }

  const Tensor out_k = gk->run(batched);
  const std::size_t per_out = out_k.size() / static_cast<std::size_t>(k);
  for (int i = 0; i < k; ++i) {
    const Tensor out_1 = g1->run(singles[static_cast<std::size_t>(i)]);
    ASSERT_EQ(out_1.size(), per_out);
    ASSERT_EQ(std::memcmp(out_1.data(),
                          out_k.data() +
                              static_cast<std::size_t>(i) * per_out,
                          per_out * sizeof(float)),
              0)
        << "seed " << seed << " slice " << i << " of batch " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, DagBatchInvariance,
                         ::testing::Range(0, 24));

// ----------------------------------------------------------------------
// Public-API validation
// ----------------------------------------------------------------------

TEST(ApiValidation, InvalidParamsThrow) {
  ConvParams bad{.N = 1, .C = 1, .H = 2, .W = 2, .K = 1,
                 .R = 5, .S = 5, .str = 1, .pad = 0};
  EXPECT_THROW(NdirectConv conv(bad), std::invalid_argument);
  bad = {.N = 0, .C = 1, .H = 2, .W = 2, .K = 1,
         .R = 1, .S = 1, .str = 1, .pad = 0};
  EXPECT_THROW(NdirectConv conv(bad), std::invalid_argument);
}

TEST(ApiValidation, MismatchedTensorsThrow) {
  const ConvParams p{.N = 1, .C = 4, .H = 8, .W = 8, .K = 4,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const NdirectConv conv(p);
  Tensor good_in = make_input_nchw(1, 4, 8, 8);
  Tensor good_f = make_filter_kcrs(4, 4, 3, 3);
  good_in.fill_zero();
  good_f.fill_zero();

  Tensor wrong_c = make_input_nchw(1, 5, 8, 8);
  wrong_c.fill_zero();
  EXPECT_THROW((void)conv.run(wrong_c, good_f), std::invalid_argument);

  Tensor wrong_k = make_filter_kcrs(8, 4, 3, 3);
  wrong_k.fill_zero();
  EXPECT_THROW((void)conv.run(good_in, wrong_k), std::invalid_argument);

  // NHWC tensor passed to the NCHW entry point.
  Tensor nhwc = make_input_nhwc(1, 8, 8, 4);
  nhwc.fill_zero();
  EXPECT_THROW((void)conv.run(nhwc, good_f), std::invalid_argument);

  // And vice versa.
  EXPECT_THROW((void)conv.run_nhwc(good_in, good_f),
               std::invalid_argument);

  // A packed filter fits only the plan that packed it: another Vk for
  // the same shape, or another K, is rejected rather than read, and a
  // KCRS tensor is not a packed one.
  NdirectOptions narrow, wide;
  narrow.force_rb = {8, 4};
  wide.force_rb = {8, 8};
  const NdirectConv conv4(p, narrow);
  const Tensor packed_vk8 = NdirectConv(p, wide).pack_filter(good_f.data());
  Tensor out = make_output_nchw(1, 4, 8, 8);
  EXPECT_THROW((void)conv4.run(good_in, packed_vk8), std::invalid_argument);
  EXPECT_THROW(conv4.run_into(good_in.data(), packed_vk8, out.data()),
               std::invalid_argument);
  EXPECT_THROW(conv4.run_into(good_in.data(), good_f, out.data()),
               std::invalid_argument);
  ConvParams pk = p;
  pk.K = 8;
  const Tensor packed_k8 = NdirectConv(pk, narrow).pack_filter(wrong_k.data());
  EXPECT_THROW((void)conv4.run_nhwc(nchw_to_nhwc(good_in), packed_k8),
               std::invalid_argument);

  // The happy path still works.
  EXPECT_NO_THROW((void)conv.run(good_in, good_f));
  EXPECT_NO_THROW(conv4.run_into(good_in.data(),
                                 conv4.pack_filter(good_f.data()),
                                 out.data()));
}

}  // namespace
}  // namespace ndirect
