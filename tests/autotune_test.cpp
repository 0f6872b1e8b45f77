// Tests for the schedule search: space validity, cost-model ordering,
// tuner convergence, and tuned-schedule correctness.
#include <gtest/gtest.h>

#include <set>

#include "autotune/cost_model.h"
#include "autotune/space.h"
#include "autotune/tuner.h"
#include "baselines/naive_conv.h"
#include "tensor/compare.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

const ConvParams kShape{.N = 1, .C = 16, .H = 14, .W = 14, .K = 32,
                        .R = 3, .S = 3, .str = 1, .pad = 1};

TEST(ScheduleValid, RejectsStructurallyBrokenSchedules) {
  Schedule s{.vw = 12, .vk = 8, .tc = 8, .tk = 16, .th = 4, .ptn = 1};
  EXPECT_TRUE(schedule_valid(s, kShape, 1));

  Schedule bad = s;
  bad.vk = 6;  // not a vector multiple
  EXPECT_FALSE(schedule_valid(bad, kShape, 1));
  bad = s;
  bad.tk = 20;  // not a multiple of vk
  EXPECT_FALSE(schedule_valid(bad, kShape, 1));
  bad = s;
  bad.tc = 17;  // > C
  EXPECT_FALSE(schedule_valid(bad, kShape, 1));
  bad = s;
  bad.th = 15;  // > P
  EXPECT_FALSE(schedule_valid(bad, kShape, 1));
  bad = s;
  bad.ptn = 3;  // does not divide threads=4
  EXPECT_FALSE(schedule_valid(bad, kShape, 4));
  bad = s;
  bad.vw = 28;  // beyond the generic kernel's bound
  EXPECT_FALSE(schedule_valid(bad, kShape, 1));
}

TEST(ScheduleSpace, SamplesAreAlwaysValid) {
  ScheduleSpace space(kShape, 4, 7);
  for (int i = 0; i < 200; ++i) {
    const Schedule s = space.sample();
    EXPECT_TRUE(schedule_valid(s, kShape, 4)) << s.to_string();
  }
}

TEST(ScheduleSpace, SamplesAreDiverse) {
  ScheduleSpace space(kShape, 4, 8);
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i) seen.insert(space.sample().to_string());
  EXPECT_GT(seen.size(), 30u);
}

TEST(ScheduleSpace, MutationChangesOneDimensionAndStaysValid) {
  ScheduleSpace space(kShape, 4, 9);
  const Schedule base = space.sample();
  for (int i = 0; i < 100; ++i) {
    const Schedule m = space.mutate(base);
    EXPECT_TRUE(schedule_valid(m, kShape, 4)) << m.to_string();
  }
}

TEST(ScheduleSpace, CrossoverMixesParents) {
  ScheduleSpace space(kShape, 1, 10);
  Schedule a{.vw = 4, .vk = 4, .tc = 1, .tk = 4, .th = 1, .ptn = 1,
             .aot_filter = false};
  Schedule b{.vw = 12, .vk = 8, .tc = 16, .tk = 32, .th = 14, .ptn = 1,
             .aot_filter = true};
  for (int i = 0; i < 50; ++i) {
    const Schedule c = space.crossover(a, b);
    EXPECT_TRUE(schedule_valid(c, kShape, 1));
    EXPECT_TRUE((c.vw == a.vw || c.vw == b.vw)) << c.to_string();
    EXPECT_TRUE((c.tc == a.tc || c.tc == b.tc)) << c.to_string();
  }
}

TEST(ScheduleSpace, SpaceIsLargeEnoughToNeedSearch) {
  ScheduleSpace space(kShape, 4, 11);
  EXPECT_GT(space.approximate_size(), 1000u);
}

TEST(CostModel, PrefersEq3FeasibleRegisterTiles) {
  CostModel model;
  model.cache = {32 << 10, 512 << 10, 0, false};
  Schedule good{.vw = 12, .vk = 8, .tc = 8, .tk = 16, .th = 14, .ptn = 1};
  Schedule spilling = good;
  spilling.vw = 24;
  spilling.vk = 20;  // 24*20/4 = 120 accumulator registers
  EXPECT_GT(model.score(good, kShape), model.score(spilling, kShape));
}

TEST(CostModel, PenalizesCacheOverflowingTiles) {
  CostModel model;
  model.cache = {16 << 10, 64 << 10, 0, false};
  const ConvParams p{.N = 1, .C = 512, .H = 14, .W = 14, .K = 512,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  Schedule fits{.vw = 12, .vk = 8, .tc = 4, .tk = 16, .th = 14, .ptn = 1};
  Schedule spills = fits;
  spills.tc = 512;  // L1 working set far beyond 16 KB
  EXPECT_GT(model.score(fits, p), model.score(spills, p));
}

TEST(CostModel, PenalizesRaggedRemainders) {
  CostModel model;
  model.cache = {32 << 10, 512 << 10, 0, false};
  // Q = 14: vw=12 covers 14 as 12+2 (58% useful second tile); vw=8
  // covers as 8+6. K=32: vk=8 divides exactly.
  Schedule clean{.vw = 8, .vk = 8, .tc = 16, .tk = 32, .th = 14, .ptn = 1};
  Schedule ragged = clean;
  ragged.vw = 12;
  const double s_clean = model.score(clean, kShape);
  const double s_ragged = model.score(ragged, kShape);
  // Not asserting which wins overall (FAI differs too); assert the
  // remainder factor is visible: scale both by FAI to isolate it.
  const double fai_clean = 2.0 * 3 * 8 * 8 / ((8 - 1) + 3.0 + 3 * 8);
  const double fai_ragged = 2.0 * 3 * 12 * 8 / ((12 - 1) + 3.0 + 3 * 8);
  EXPECT_GT(s_clean / fai_clean, s_ragged / fai_ragged);
}

TEST(CostModel, ThreadSplitFactorFollowsEq5) {
  CostModel model;
  model.cache = {32 << 10, 512 << 10, 0, false};
  model.threads = 8;
  model.alpha = 2.0;
  // Large-K layer: Eq. 5 wants threads on K, so ptn=8 (all threads on
  // rows) must score below ptn=1 or 2.
  const ConvParams p{.N = 1, .C = 64, .H = 14, .W = 14, .K = 2048,
                     .R = 1, .S = 1, .str = 1, .pad = 0};
  Schedule rows{.vw = 12, .vk = 8, .tc = 16, .tk = 32, .th = 14, .ptn = 8};
  Schedule cols = rows;
  cols.ptn = 1;
  EXPECT_GT(model.score(cols, p), model.score(rows, p));
}

TEST(TunedConv, ArbitraryValidSchedulesAreCorrect) {
  Tensor in = make_input_nchw(kShape.N, kShape.C, kShape.H, kShape.W);
  Tensor f = make_filter_kcrs(kShape.K, kShape.C, kShape.R, kShape.S);
  fill_random(in, 41);
  fill_random(f, 42);
  const Tensor ref = naive_conv_nchw(in, f, kShape);

  ScheduleSpace space(kShape, 2, 12);
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) {
    const Schedule s = space.sample();
    const Tensor out = tuned_conv(in, f, kShape, s, 2, &pool);
    EXPECT_TRUE(allclose(out, ref)) << s.to_string();
  }
}

TEST(Tuner, FindsScheduleAndRecordsTrials) {
  TuneOptions opts;
  opts.generations = 3;
  opts.population = 12;
  opts.measure_top = 2;
  opts.measure_seconds = 0.005;
  opts.threads = 1;
  const TuneResult r = tune_conv(kShape, opts);
  EXPECT_GT(r.best_gflops, 0.0);
  EXPECT_TRUE(schedule_valid(r.best, kShape, 1));
  EXPECT_EQ(r.cost_evaluations, 3 * 12);
  EXPECT_GT(r.measurements, 0);
  EXPECT_LE(r.measurements, 3 * 2);
  EXPECT_EQ(r.measured.size(), static_cast<std::size_t>(r.measurements));
}

TEST(Tuner, BestGflopsIsMaxOfMeasured) {
  TuneOptions opts;
  opts.generations = 2;
  opts.population = 8;
  opts.measure_top = 3;
  opts.measure_seconds = 0.005;
  opts.threads = 1;
  const TuneResult r = tune_conv(kShape, opts);
  double max_measured = 0;
  for (const TrialRecord& t : r.measured) {
    max_measured = std::max(max_measured, t.measured_gflops);
  }
  EXPECT_DOUBLE_EQ(r.best_gflops, max_measured);
}

TEST(Tuner, MoreGenerationsNeverHurt) {
  // The incumbent-best is monotone in the number of generations when
  // seeded identically (the early generations are a prefix).
  TuneOptions small;
  small.generations = 1;
  small.population = 8;
  small.measure_top = 2;
  small.measure_seconds = 0.004;
  small.threads = 1;
  small.seed = 5;
  TuneOptions large = small;
  large.generations = 4;
  const TuneResult rs = tune_conv(kShape, small);
  const TuneResult rl = tune_conv(kShape, large);
  // Measurement noise exists; allow 25% slack but require the larger
  // budget to stay in the same ballpark or better.
  EXPECT_GE(rl.best_gflops, 0.75 * rs.best_gflops);
}

TEST(Tuner, TunedResultRunsCorrectly) {
  TuneOptions opts;
  opts.generations = 2;
  opts.population = 8;
  opts.measure_top = 2;
  opts.measure_seconds = 0.004;
  opts.threads = 1;
  const TuneResult r = tune_conv(kShape, opts);

  Tensor in = make_input_nchw(kShape.N, kShape.C, kShape.H, kShape.W);
  Tensor f = make_filter_kcrs(kShape.K, kShape.C, kShape.R, kShape.S);
  fill_random(in, 51);
  fill_random(f, 52);
  const Tensor ref = naive_conv_nchw(in, f, kShape);
  const Tensor out = tuned_conv(in, f, kShape, r.best, 1);
  EXPECT_TRUE(allclose(out, ref));
}

}  // namespace
}  // namespace ndirect
