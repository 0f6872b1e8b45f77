// Concurrency tests for the scheduler-aware graph executor: bitwise
// determinism across one-runner/concurrent execution, dependency-safe
// completion ordering, the per-node record under overlap, and
// concurrent runs on one shared packed filter. Runs under the `threading` ctest label so the
// TSan tier (scripts/build-tsan.sh) race-checks every path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ndirect.h"
#include "core/threading.h"
#include "nn/graph.h"
#include "nn/models.h"
#include "runtime/thread_pool.h"
#include "tensor/rng.h"

#include "graph_gen.h"

using namespace ndirect;

namespace {

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

/// A split-merge block shaped like a ResNet projection bottleneck: two
/// conv branches off one node, merged by add, plus a concat side exit.
std::unique_ptr<Graph> build_split_block(int batch) {
  auto g = std::make_unique<Graph>(batch, 8, 14, 14);
  const TensorShape in = g->shape_of(0);
  const NodeId a1 = g->add(testgen::make_conv(in, 16, 3, 1, 11), {0});
  const NodeId a2 =
      g->add(testgen::make_conv(g->shape_of(a1), 16, 3, 1, 12), {a1});
  const NodeId b1 = g->add(testgen::make_conv(in, 16, 1, 1, 13), {0});
  const NodeId sum = g->add(std::make_unique<AddOp>(), {a2, b1});
  const NodeId act = g->add(std::make_unique<ReluOp>(), {sum});
  const NodeId cat = g->add(std::make_unique<ConcatOp>(), {act, b1});
  g->add(testgen::make_conv(g->shape_of(cat), 8, 1, 1, 14), {cat});
  return g;
}

Tensor input_for(const Graph& g, std::uint64_t seed) {
  const TensorShape& s = g.shape_of(0);
  Tensor t = make_input_nchw(s.N, s.C, s.H, s.W);
  fill_random(t, seed);
  return t;
}

}  // namespace

TEST(GraphExecutor, LevelsRespectTopology) {
  auto g = build_split_block(1);
  const auto levels = g->levels();
  ASSERT_GE(levels.size(), 2u);
  EXPECT_EQ(levels[0], std::vector<NodeId>{0});
  // Both branch heads depend only on the input: level 1, width 2.
  EXPECT_EQ(levels[1].size(), 2u);
  EXPECT_GE(g->max_width(), 2);
  // A node's level is strictly above all of its inputs' levels.
  std::vector<int> level_of(static_cast<std::size_t>(g->node_count()));
  for (std::size_t l = 0; l < levels.size(); ++l) {
    for (NodeId id : levels[l]) {
      level_of[static_cast<std::size_t>(id)] = static_cast<int>(l);
    }
  }
  for (NodeId id = 1; id < g->node_count(); ++id) {
    for (NodeId in : g->inputs_of(id)) {
      EXPECT_LT(level_of[static_cast<std::size_t>(in)],
                level_of[static_cast<std::size_t>(id)]);
    }
  }
}

TEST(GraphExecutor, SplitBlockConcurrentMatchesSequentialBitwise) {
  ThreadPool pool(4);
  auto g = build_split_block(2);
  g->set_conv_pool(&pool);
  g->plan_concurrency();
  const Tensor input = input_for(*g, 77);

  GraphRunOptions seq;
  seq.runners = 1;
  const Tensor expected = g->run(input, seq);

  for (int rep = 0; rep < 5; ++rep) {
    GraphRunStats stats;
    GraphRunOptions conc;
    conc.stats = &stats;
    const Tensor got = g->run(input, conc);
    expect_bitwise_equal(expected, got, "concurrent rep");
    EXPECT_GE(stats.runners, 2);
    EXPECT_EQ(stats.nodes.size(),
              static_cast<std::size_t>(g->node_count()) - 1);
  }
}

TEST(GraphExecutor, ConvPoolReachesDepthwiseNodes) {
  // set_conv_pool re-points depthwise convs as well as ConvOps, so a
  // served MobileNet runs its depthwise layers on the server's pool and
  // not on the global one; the output does not depend on the pool. The
  // graph itself dispatches nothing onto a pool, so the jobs the private
  // pool sees are the depthwise node's.
  DepthwiseParams p;
  p.N = 2;
  p.C = 6;
  p.H = p.W = 9;
  p.R = p.S = 3;
  p.pad = 1;
  Graph g(p.N, p.C, p.H, p.W);
  const NodeId dw = g.add(std::make_unique<DepthwiseConvOp>(p, 3), {0});
  const auto* op = dynamic_cast<const DepthwiseConvOp*>(g.op_of(dw));
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->pool(), nullptr);
  const Tensor input = input_for(g, 9);
  const Tensor on_global = g.run(input);

  ThreadPool pool(2);
  g.set_conv_pool(&pool);
  EXPECT_EQ(op->pool(), &pool);
  const std::uint64_t private_jobs = pool.dispatched_jobs();
  const std::uint64_t global_jobs = ThreadPool::global().dispatched_jobs();
  expect_bitwise_equal(on_global, g.run(input), "private pool");
  EXPECT_GT(pool.dispatched_jobs(), private_jobs);
  EXPECT_EQ(ThreadPool::global().dispatched_jobs(), global_jobs);
  g.set_conv_pool(nullptr);
  EXPECT_EQ(op->pool(), nullptr);
}

TEST(GraphExecutor, ResNetSplitPathsDeterministic) {
  // Real topology: downscaled ResNet-50 (projection-shortcut splits in
  // every stage). Concurrent execution must be bitwise-identical to
  // sequential, run after run.
  ThreadPool pool(4);
  ModelOptions mo;
  mo.channel_divisor = 8;
  mo.image_size = 32;
  auto g = build_resnet50(1, mo);
  g->set_conv_pool(&pool);
  g->plan_concurrency();
  EXPECT_GE(g->max_width(), 2);
  const Tensor input = input_for(*g, 5);

  GraphRunOptions seq;
  seq.runners = 1;
  const Tensor expected = g->run(input, seq);
  for (int rep = 0; rep < 3; ++rep) {
    const Tensor got = g->run(input, {});
    expect_bitwise_equal(expected, got, "resnet rep");
  }
}

TEST(GraphExecutor, CompletionOrderRespectsDependencies) {
  ThreadPool pool(3);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto g = testgen::build_random_dag(seed);
    g->set_conv_pool(&pool);
    const Tensor input = input_for(*g, seed);
    GraphRunStats stats;
    GraphRunOptions opts;
    opts.stats = &stats;
    (void)g->run(input, opts);
    ASSERT_EQ(stats.nodes.size(),
              static_cast<std::size_t>(g->node_count()) - 1);
    std::vector<int> pos(static_cast<std::size_t>(g->node_count()), -1);
    for (std::size_t i = 0; i < stats.nodes.size(); ++i) {
      pos[static_cast<std::size_t>(stats.nodes[i].id)] =
          static_cast<int>(i);
    }
    for (NodeId id = 1; id < g->node_count(); ++id) {
      ASSERT_GE(pos[static_cast<std::size_t>(id)], 0);
      for (NodeId in : g->inputs_of(id)) {
        if (in == 0) continue;  // the input node never "completes"
        EXPECT_LT(pos[static_cast<std::size_t>(in)],
                  pos[static_cast<std::size_t>(id)])
            << "node " << id << " completed before its input " << in
            << " (seed " << seed << ")";
      }
    }
  }
}

TEST(GraphExecutor, ProfiledTotalsConsistentUnderOverlap) {
  ThreadPool pool(4);
  auto g = build_split_block(1);
  g->set_conv_pool(&pool);
  const Tensor input = input_for(*g, 9);

  // Expected per-op-name node counts from the topology.
  std::map<std::string, long> node_counts;
  for (NodeId id = 1; id < g->node_count(); ++id) {
    ++node_counts[g->op_of(id)->name()];
  }

  // Per-op-type totals are the node rows summed by op name.
  GraphRunStats stats;
  GraphRunOptions opts;
  opts.stats = &stats;
  const Tensor out = g->run(input, opts);
  EXPECT_GT(out.size(), 0u);
  EXPECT_GE(stats.runners, 2);
  std::map<std::string, long> row_counts;
  std::map<std::string, std::uint64_t> row_ns;
  for (const NodeRun& row : stats.nodes) {
    const std::string name = g->op_of(row.id)->name();
    ++row_counts[name];
    row_ns[name] += row.end_ns - row.start_ns;
  }
  EXPECT_EQ(row_counts, node_counts);
  EXPECT_GT(row_ns.at("conv"), 0u);
}

TEST(GraphExecutor, NodeRecordUnderConcurrency) {
  // The per-node record of a multi-runner run: every op node exactly
  // once, sane intervals, no node starting before all of its inputs
  // ended, runner ids inside the crew. Then the one-runner loop: every
  // row on runner 0, intervals back to back.
  ThreadPool pool(3);
  std::vector<std::unique_ptr<Graph>> graphs;
  graphs.push_back(build_split_block(1));
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    auto g = testgen::build_random_dag(seed);
    if (g->max_width() >= 2) graphs.push_back(std::move(g));
  }
  ASSERT_GE(graphs.size(), 4u);
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    Graph& g = *graphs[gi];
    g.set_conv_pool(&pool);
    const Tensor input = input_for(g, gi);
    const std::size_t n = static_cast<std::size_t>(g.node_count());
    for (int runners : {0, 2, 3}) {
      GraphRunStats stats;
      GraphRunOptions opts;
      opts.runners = runners;
      opts.stats = &stats;
      (void)g.run(input, opts);
      ASSERT_GE(stats.runners, 2) << "graph " << gi;
      ASSERT_EQ(stats.nodes.size(), n - 1) << "graph " << gi;
      std::vector<const NodeRun*> row(n, nullptr);
      for (const NodeRun& r : stats.nodes) {
        ASSERT_GE(r.id, 1);
        ASSERT_LT(static_cast<std::size_t>(r.id), n);
        EXPECT_EQ(row[static_cast<std::size_t>(r.id)], nullptr)
            << "node " << r.id << " recorded twice";
        row[static_cast<std::size_t>(r.id)] = &r;
        EXPECT_LE(r.start_ns, r.end_ns);
        EXPECT_GE(r.runner, 0);
        EXPECT_LT(r.runner, stats.runners);
      }
      for (NodeId id = 1; id < g.node_count(); ++id) {
        const NodeRun* r = row[static_cast<std::size_t>(id)];
        ASSERT_NE(r, nullptr) << "node " << id << " missing";
        for (NodeId in : g.inputs_of(id)) {
          if (in == 0) continue;
          EXPECT_GE(r->start_ns, row[static_cast<std::size_t>(in)]->end_ns)
              << "node " << id << " started before input " << in
              << " ended (graph " << gi << ")";
        }
      }
    }

    GraphRunStats solo;
    GraphRunOptions one;
    one.runners = 1;
    one.stats = &solo;
    (void)g.run(input, one);
    EXPECT_EQ(solo.runners, 1);
    EXPECT_EQ(solo.max_inflight, 1);
    ASSERT_EQ(solo.nodes.size(), n - 1);
    for (std::size_t i = 0; i < solo.nodes.size(); ++i) {
      EXPECT_EQ(solo.nodes[i].runner, 0);
      if (i > 0) {
        EXPECT_GE(solo.nodes[i].start_ns, solo.nodes[i - 1].end_ns);
      }
    }
  }
}

TEST(GraphExecutor, ConcurrentRunsShareOnePackedFilter) {
  // Two threads run one engine on one packed tensor (the two-branches-
  // one-filter case: e.g. weight-tied siblings). The engine and the
  // packed weights are both read-only during a run, so the outputs must
  // be identical and race-free.
  ConvParams p{.N = 1, .C = 8, .H = 14, .W = 14, .K = 16, .R = 3,
               .S = 3, .str = 1, .pad = 1};
  ThreadPool pool(4);
  NdirectOptions o;
  o.pool = &pool;
  const NdirectConv conv(p, o);

  Tensor input = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor filter = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(input, 21);
  fill_random(filter, 22);
  const Tensor packed = conv.pack_filter(filter.data());

  Tensor out_a, out_b;
  std::thread ta([&] { out_a = conv.run(input, packed); });
  std::thread tb([&] { out_b = conv.run(input, packed); });
  ta.join();
  tb.join();

  expect_bitwise_equal(out_a, out_b, "shared packed-filter outputs");
  expect_bitwise_equal(out_a, conv.run(input, filter),
                       "packed vs on-the-fly");
}

TEST(GraphExecutor, WorkerBudgetAndStealersNeverChangeResults) {
  // Seeding a sub-rectangle of the grid plus pure stealers is a pure
  // scheduling choice: outputs stay bitwise-identical to the full-pool
  // plan (the property plan_concurrency relies on).
  ConvParams p{.N = 1, .C = 6, .H = 13, .W = 13, .K = 10, .R = 3,
               .S = 3, .str = 1, .pad = 1};
  ThreadPool pool(4);
  Tensor input = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor filter = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(input, 31);
  fill_random(filter, 32);

  NdirectOptions full;
  full.pool = &pool;
  const Tensor expected = NdirectConv(p, full).run(input, filter);

  for (int budget = 1; budget <= 3; ++budget) {
    NdirectOptions sub = full;
    sub.threads = budget;
    sub.extra_stealers = static_cast<int>(pool.size()) - budget;
    const Tensor got = NdirectConv(p, sub).run(input, filter);
    expect_bitwise_equal(expected, got, "budgeted conv");
  }
}

TEST(GraphExecutor, PartitionWorkersProportionalAndTotal) {
  const std::vector<int> even = partition_workers(8, {1.0, 1.0});
  EXPECT_EQ(even, (std::vector<int>{4, 4}));
  const std::vector<int> skew = partition_workers(8, {3.0, 1.0});
  EXPECT_EQ(skew[0] + skew[1], 8);
  EXPECT_GT(skew[0], skew[1]);
  // Every branch gets at least one worker even when outnumbered.
  const std::vector<int> tight = partition_workers(2, {1.0, 1.0, 1.0});
  EXPECT_EQ(tight, (std::vector<int>{1, 1, 1}));
  const std::vector<int> zero = partition_workers(4, {0.0, 0.0});
  EXPECT_EQ(zero[0] + zero[1], 4);
}

TEST(GraphExecutor, ExceptionInBranchPropagates) {
  struct ThrowingOp final : Op {
    const char* name() const override { return "throwing"; }
    TensorShape infer(const std::vector<TensorShape>& in) const override {
      return in.at(0);
    }
    Tensor forward(const std::vector<const Tensor*>&) const override {
      throw std::runtime_error("branch failed");
    }
  };
  auto g = std::make_unique<Graph>(1, 4, 8, 8);
  const TensorShape in = g->shape_of(0);
  const NodeId a = g->add(testgen::make_conv(in, 8, 3, 1, 3), {0});
  const NodeId b = g->add(std::make_unique<ThrowingOp>(), {0});
  const NodeId ga = g->add(std::make_unique<GlobalAvgPoolOp>(), {a});
  const NodeId gb = g->add(std::make_unique<GlobalAvgPoolOp>(), {b});
  g->add(std::make_unique<ConcatOp>(), {ga, gb});
  const Tensor input = input_for(*g, 1);
  EXPECT_THROW((void)g->run(input, {}), std::runtime_error);
  // The graph stays usable after a failed run.
  GraphRunOptions seq;
  seq.runners = 1;
  EXPECT_THROW((void)g->run(input, seq), std::runtime_error);
}

TEST(GraphExecutor, RandomDagsUnderOversubscribedPool) {
  // A handful of fuzz seeds under heavy oversubscription (pool threads
  // >> cores on CI) — primarily a TSan target; the full >= 100-seed
  // sweep lives in fuzz_test.
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(2 * hc + 1);
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    auto g = testgen::build_random_dag(seed);
    g->set_conv_pool(&pool);
    g->plan_concurrency();
    const Tensor input = input_for(*g, seed);
    GraphRunOptions seq;
    seq.runners = 1;
    const Tensor expected = g->run(input, seq);
    const Tensor got = g->run(input, {});
    expect_bitwise_equal(expected, got, "oversubscribed dag");
  }
}
