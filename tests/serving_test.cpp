// Deterministic serving-layer tests (DESIGN.md §15).
//
// Every timing-sensitive test here runs the server against a
// VirtualClock: time moves only when the test calls advance()/set(),
// so admission, batch sizing, lingering, in-queue shedding and
// shutdown are asserted with EXACT times — no sleeps, no "within 50ms"
// margins, no wall-clock flakiness (the suite must survive
// `ctest --repeat until-fail:100 -L serving`). The latency model is an
// injected AffineLatencyModel, so every predicted value in a plan is a
// number the test computed itself. Real-clock coverage is limited to
// one multi-producer smoke test whose assertions are order-insensitive
// conservation properties (also the TSan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/shutdown.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"
#include "serve/batching.h"
#include "serve/clock.h"
#include "serve/latency_model.h"
#include "serve/serve_report.h"
#include "serve/server.h"
#include "tensor/rng.h"

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
// The refcounted release of a future's stored exception runs inside
// the system libstdc++ (eh_ptr.cc, COW-string dtor), which is not
// built with TSan: the atomic decrement that orders "test thread read
// e.what()" before "executor thread frees the exception object" is
// invisible to the tool, so cross-thread teardown of a
// promise-delivered exception reports as a race. Suppress exactly
// that shape; everything else still trips.
extern "C" const char* __tsan_default_suppressions() {
  return "race:std::__exception_ptr::exception_ptr::_M_release\n"
         "race:std::runtime_error::~runtime_error\n";
}
#endif

namespace ndirect::serve {
namespace {

constexpr std::uint64_t kMs = 1'000'000;  ///< ns per millisecond

// ----------------------------------------------------------------------
// Test graph factory: input -> (poison?) -> conv3x3 -> relu on a tiny
// 2x8x8 image, weights fixed by seed so every batch size computes the
// same function.
// ----------------------------------------------------------------------

constexpr float kPoisonValue = 666.0f;

/// Pass-through op that throws when any input element equals
/// kPoisonValue — the hook for failure-injection tests.
class PoisonOp final : public Op {
 public:
  const char* name() const override { return "poison"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override {
    return in.at(0);
  }
  Tensor forward(const std::vector<const Tensor*>& in) const override {
    const Tensor& x = *in.at(0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] == kPoisonValue)
        throw std::runtime_error("poisoned input");
    }
    return x.clone();
  }
};

std::unique_ptr<Graph> make_test_graph(int batch, std::uint64_t seed,
                                       bool poison = false) {
  auto g = std::make_unique<Graph>(batch, 2, 8, 8);
  NodeId tail = 0;
  if (poison) tail = g->add(std::make_unique<PoisonOp>(), {tail});
  const ConvParams p{.N = batch, .C = 2, .H = 8, .W = 8, .K = 4,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  tail = g->add(
      std::make_unique<ConvOp>(p, ConvBackend::Ndirect, seed, true),
      {tail});
  g->add(std::make_unique<ReluOp>(), {tail});
  return g;
}

GraphFactory make_factory(std::uint64_t seed, bool poison = false) {
  return [seed, poison](int batch) {
    return make_test_graph(batch, seed, poison);
  };
}

Tensor make_image(std::uint64_t seed) {
  Tensor t = make_input_nchw(1, 2, 8, 8);
  fill_random(t, seed);
  return t;
}

/// Every submitted request is accounted exactly once.
void expect_conserved(const ServerStatsSnapshot& s) {
  EXPECT_EQ(s.submitted,
            s.served + s.shed_total() + s.failed + s.queued);
}

ShedReason shed_reason_of(std::future<ServeResult>& f) {
  try {
    (void)f.get();
  } catch (const ShedError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "future did not throw ShedError";
  return ShedReason::kShutdown;
}

// ----------------------------------------------------------------------
// VirtualClock
// ----------------------------------------------------------------------

TEST(VirtualClockTest, StartsAtConstructionTime) {
  EXPECT_EQ(VirtualClock().now_ns(), 0u);
  EXPECT_EQ(VirtualClock(42).now_ns(), 42u);
}

TEST(VirtualClockTest, AdvanceAccumulatesAndSetIsMonotonic) {
  VirtualClock clock;
  clock.advance(10);
  clock.advance(5);
  EXPECT_EQ(clock.now_ns(), 15u);
  clock.set(100);
  EXPECT_EQ(clock.now_ns(), 100u);
  clock.set(40);  // backwards jumps are ignored
  EXPECT_EQ(clock.now_ns(), 100u);
}

TEST(VirtualClockTest, WaitUntilPastTimeReturnsWithoutBlocking) {
  VirtualClock clock(50);
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lk(mu);
  clock.wait_until(cv, lk, 50);  // t == now: no wait
  clock.wait_until(cv, lk, 10);  // t < now: no wait
  EXPECT_TRUE(lk.owns_lock());
}

TEST(VirtualClockTest, AdvanceWakesBlockedWaiter) {
  VirtualClock clock;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> reached{false};
  std::thread waiter([&] {
    std::unique_lock<std::mutex> lk(mu);
    while (clock.now_ns() < 100) clock.wait_until(cv, lk, 100);
    reached.store(true);
  });
  clock.advance(60);
  EXPECT_FALSE(reached.load());  // time is 60: cannot have crossed 100
  clock.advance(60);             // 120: waiter must wake and finish
  waiter.join();
  EXPECT_TRUE(reached.load());
}

TEST(VirtualClockTest, SetWakesMultipleWaitersAcrossMutexes) {
  VirtualClock clock;
  std::atomic<int> done{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&clock, &done, i] {
      std::mutex mu;
      std::condition_variable cv;
      const std::uint64_t t = 10u * static_cast<std::uint64_t>(i + 1);
      {
        std::unique_lock<std::mutex> lk(mu);
        while (clock.now_ns() < t) clock.wait_until(cv, lk, t);
      }
      // The stack cv dies with this lambda while set() may still be
      // notifying from its snapshot: unregister (which drains any
      // in-flight pass) before letting it go out of scope.
      clock.unregister_waiter(&cv);
      done.fetch_add(1);
    });
  }
  clock.set(30);  // covers all three targets in one jump
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(done.load(), 3);
}

TEST(VirtualClockTest, UnregisterThenRewaitStillWakes) {
  // Unregistering must fully detach the cv (safe to destroy) without
  // poisoning it for later rounds: the same cv re-registered by a
  // fresh wait_until is woken like any other waiter.
  VirtualClock clock;
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<int> phase{0};
  std::thread waiter([&] {
    {
      std::unique_lock<std::mutex> lk(mu);
      while (clock.now_ns() < 100) clock.wait_until(cv, lk, 100);
    }
    clock.unregister_waiter(&cv);
    phase.store(1);
    {
      std::unique_lock<std::mutex> lk(mu);
      while (clock.now_ns() < 200) clock.wait_until(cv, lk, 200);
    }
    clock.unregister_waiter(&cv);
    phase.store(2);
  });
  clock.advance(100);
  while (phase.load() < 1) std::this_thread::yield();
  clock.advance(100);
  waiter.join();
  EXPECT_EQ(phase.load(), 2);
}

TEST(RealClockTest, PastDeadlineReturnsImmediately) {
  RealClock& clock = RealClock::instance();
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lk(mu);
  clock.wait_until(cv, lk, 0);  // long past: returns, no wait
  EXPECT_TRUE(lk.owns_lock());
  EXPECT_GT(clock.now_ns(), 0u);
}

TEST(RealClockTest, TimedWaitReturnsAfterDeadline) {
  RealClock& clock = RealClock::instance();
  std::mutex mu;
  std::condition_variable cv;
  const std::uint64_t t = clock.now_ns() + 2'000'000;  // 2ms
  std::unique_lock<std::mutex> lk(mu);
  while (clock.now_ns() < t) clock.wait_until(cv, lk, t);
  EXPECT_GE(clock.now_ns(), t);
}

// ----------------------------------------------------------------------
// plan_batch / admission: pure-function tests with exact numbers
// ----------------------------------------------------------------------

Request req(std::uint64_t arrival, std::uint64_t deadline) {
  Request r;
  r.arrival_ns = arrival;
  r.deadline_ns = deadline;
  return r;
}

TEST(PlanBatchTest, EmptyQueuePlansNothing) {
  const AffineLatencyModel model(10, 5);
  const std::deque<Request> empty;
  EXPECT_EQ(plan_batch(empty, 0, 8, model, true).size, 0);
}

TEST(PlanBatchTest, GrowsWhileTightestDeadlineHolds) {
  const AffineLatencyModel model(10, 10);  // predict(k) = 10 + 10k
  std::deque<Request> q;
  q.push_back(req(0, 100));
  q.push_back(req(1, 100));
  q.push_back(req(2, 35));  // predict(3)=40 > 35: stop at 2
  q.push_back(req(3, 100));
  const BatchPlan plan = plan_batch(q, 0, 8, model, true);
  EXPECT_EQ(plan.size, 2);
  EXPECT_EQ(plan.predicted_ns, 30u);
  EXPECT_EQ(plan.tightest_deadline_ns, 100u);
}

TEST(PlanBatchTest, HeadIsAlwaysTakenEvenWhenModelSaysInfeasible) {
  const AffineLatencyModel model(1000, 0);
  std::deque<Request> q;
  q.push_back(req(0, 5));  // hopeless, but expiry shedding owns that
  const BatchPlan plan = plan_batch(q, 0, 8, model, true);
  EXPECT_EQ(plan.size, 1);
}

TEST(PlanBatchTest, PartialBatchLingersUntilDeadlineBudgetExhausted) {
  const AffineLatencyModel model(10, 10);
  std::deque<Request> q;
  q.push_back(req(0, 200));
  q.push_back(req(5, 150));
  const BatchPlan plan = plan_batch(q, 20, 8, model, true);
  EXPECT_EQ(plan.size, 2);
  // launch_at = tightest - predict(2) = 150 - 30.
  EXPECT_EQ(plan.launch_at, 120u);
}

TEST(PlanBatchTest, FullBatchLaunchesNow) {
  const AffineLatencyModel model(10, 10);
  std::deque<Request> q;
  q.push_back(req(0, 1000));
  q.push_back(req(1, 1000));
  const BatchPlan plan = plan_batch(q, 7, 2, model, true);
  EXPECT_EQ(plan.size, 2);
  EXPECT_EQ(plan.launch_at, 7u);
}

TEST(PlanBatchTest, DrainingNeverLingers) {
  const AffineLatencyModel model(10, 10);
  std::deque<Request> q;
  q.push_back(req(0, 1000));
  const BatchPlan plan =
      plan_batch(q, 3, 8, model, /*more_arrivals_possible=*/false);
  EXPECT_EQ(plan.size, 1);
  EXPECT_EQ(plan.launch_at, 3u);
}

TEST(PlanBatchTest, NoDeadlineAndNoLingerCapLaunchesImmediately) {
  const AffineLatencyModel model(10, 10);
  std::deque<Request> q;
  q.push_back(req(0, kNeverNs));
  const BatchPlan plan = plan_batch(q, 9, 8, model, true);
  EXPECT_EQ(plan.size, 1);
  EXPECT_EQ(plan.launch_at, 9u);  // nothing bounds a longer wait
}

TEST(PlanBatchTest, MaxLingerCapsTheWait) {
  const AffineLatencyModel model(10, 10);
  std::deque<Request> q;
  q.push_back(req(100, kNeverNs));
  const BatchPlan capped =
      plan_batch(q, 110, 8, model, true, /*max_linger_ns=*/50);
  EXPECT_EQ(capped.launch_at, 150u);  // head arrival + linger cap

  // A deadline tighter than the cap wins.
  q.front().deadline_ns = 140;
  const BatchPlan tight = plan_batch(q, 110, 8, model, true, 50);
  EXPECT_EQ(tight.launch_at, 120u);  // 140 - predict(1)=20
}

TEST(PlanBatchTest, LaunchAtNeverPrecedesNow) {
  const AffineLatencyModel model(10, 10);
  std::deque<Request> q;
  q.push_back(req(0, 25));  // latest = 25 - 20 = 5, already past
  const BatchPlan plan = plan_batch(q, 10, 8, model, true);
  EXPECT_EQ(plan.launch_at, 10u);
}

TEST(AdmissionTest, EstimateAccountsBacklogLanesAndOwnBatch) {
  const AffineLatencyModel model(10, 0);  // predict(k) = 10
  // 5 queued, max_batch 2, 1 lane: 2 full batches (20) + own ride (10).
  EXPECT_EQ(estimate_finish_ns(0, 5, 0, 2, 1, model), 30u);
  // Two lanes split the backlog.
  EXPECT_EQ(estimate_finish_ns(0, 5, 0, 2, 2, model), 20u);
  // A busy lane pushes the start out.
  EXPECT_EQ(estimate_finish_ns(0, 0, 100, 2, 1, model), 110u);
}

TEST(AdmissionTest, DeadlineBoundaryIsInclusive) {
  const AffineLatencyModel model(10, 0);
  EXPECT_TRUE(admit(0, 30, 5, 0, 2, 1, model));   // finish == deadline
  EXPECT_FALSE(admit(0, 29, 5, 0, 2, 1, model));  // one ns short
  EXPECT_TRUE(admit(0, kNeverNs, 1'000'000, 0, 2, 1, model));
}

TEST(RequestQueueTest, TakeExpiredShedsOnlyHopelessRequests) {
  RequestQueue q;
  std::lock_guard<std::mutex> lk(q.mutex());
  q.push(req(0, 100));       // feasible: 100 >= now+predict = 60
  q.push(req(0, 59));        // hopeless
  q.push(req(0, 60));        // boundary: deadline == finish stays
  q.push(req(0, kNeverNs));  // no deadline never expires
  const std::vector<Request> shed = q.take_expired(50, 10);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].deadline_ns, 59u);
  EXPECT_EQ(q.size(), 3u);
}

TEST(RequestQueueTest, PopFrontIsFifo) {
  RequestQueue q;
  std::lock_guard<std::mutex> lk(q.mutex());
  for (std::uint64_t i = 0; i < 4; ++i) {
    Request r = req(i, kNeverNs);
    r.id = i;
    q.push(std::move(r));
  }
  const std::vector<Request> batch = q.pop_front(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[1].id, 1u);
  EXPECT_EQ(batch[2].id, 2u);
  EXPECT_EQ(q.pending().front().id, 3u);
}

// ----------------------------------------------------------------------
// GraphLatencyModel (synthetic spec: no host microbenchmarks)
// ----------------------------------------------------------------------

PlatformSpec synthetic_spec() {
  PlatformSpec s;
  s.name = "synthetic";
  s.cores = 4;
  s.freq_ghz = 2.0;
  s.peak_gflops = 64.0;
  s.bandwidth_gibs = 16.0;
  return s;
}

TEST(GraphLatencyModelTest, PredictionGrowsWithBatchAndCalibrates) {
  const PlatformSpec spec = synthetic_spec();
  auto g = make_test_graph(1, /*seed=*/7);
  GraphLatencyModel model(*g, &spec, /*threads=*/2,
                          /*fixed_overhead_ns=*/100'000);
  const std::uint64_t p1 = model.predict_ns(1);
  const std::uint64_t p4 = model.predict_ns(4);
  EXPECT_GT(p1, 100'000u);  // at least the fixed overhead
  EXPECT_GE(p4, p1);        // monotone in batch
  EXPECT_DOUBLE_EQ(model.scale(), 1.0);

  // Observing a 2x-slower reality moves the scale up (EWMA, not a
  // jump) and inflates future predictions by the same factor.
  model.observe(1, p1 * 2);
  EXPECT_GT(model.scale(), 1.0);
  EXPECT_LT(model.scale(), 2.0);
  EXPECT_GT(model.predict_ns(1), p1);

  // The clamp stops a pathological outlier from wedging admission.
  for (int i = 0; i < 50; ++i) model.observe(1, p1 * 10'000);
  EXPECT_LE(model.scale(), 20.0);
}

// ----------------------------------------------------------------------
// Server + VirtualClock: exact end-to-end serving behaviour
// ----------------------------------------------------------------------

struct Harness {
  VirtualClock clock;
  AffineLatencyModel model;
  Server server;

  explicit Harness(ServerOptions opts, std::uint64_t base_ns = kMs,
                   std::uint64_t per_item_ns = 0, bool poison = false)
      : model(base_ns, per_item_ns),
        server(make_factory(/*seed=*/11, poison), [&] {
          opts.clock = &clock;
          opts.model = &model;
          opts.calibrate = false;
          return opts;
        }()) {}
};

TEST(ServerTest, ServesSingleRequestWithoutDeadline) {
  ServerOptions opts;
  opts.max_batch = 4;
  Harness h(opts);
  std::future<ServeResult> f =
      h.server.submit(make_image(1), kNeverNs);
  const ServeResult res = f.get();
  EXPECT_EQ(res.stats.batch_size, 1);
  EXPECT_EQ(res.stats.queue_wait_ns, 0u);
  EXPECT_EQ(res.stats.deadline_slack_ns,
            std::numeric_limits<std::int64_t>::max());
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.served, 1u);
  EXPECT_EQ(s.admitted, 1u);
  expect_conserved(s);
}

TEST(ServerTest, BatchOutputBitwiseMatchesSingleImageForward) {
  // Generous equal deadlines force lingering until the batch is full,
  // so all four requests coalesce into one deterministic batch.
  ServerOptions opts;
  opts.max_batch = 4;
  Harness h(opts);
  auto ref_graph = make_test_graph(1, /*seed=*/11);

  std::vector<Tensor> inputs;
  std::vector<std::future<ServeResult>> futs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    Tensor img = make_image(100 + i);
    inputs.push_back(img.clone());
    futs.push_back(h.server.submit(std::move(img), 100 * kMs));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const ServeResult res = futs[i].get();
    EXPECT_EQ(res.stats.batch_size, 4);
    const Tensor expect = ref_graph->run(inputs[i]);
    ASSERT_EQ(res.output.size(), expect.size());
    EXPECT_EQ(std::memcmp(res.output.data(), expect.data(),
                          expect.size() * sizeof(float)),
              0)
        << "request " << i << " diverged from its solo forward";
  }
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.batched_requests, 4u);
  EXPECT_DOUBLE_EQ(s.mean_batch(), 4.0);
  expect_conserved(s);
}

TEST(ServerTest, PartialBatchLaunchesExactlyAtDeadlineBudget) {
  // predict(k) = 1ms flat; two requests with 10ms budgets linger until
  // launch_at = 10ms - 1ms = 9ms, which only the test can make happen.
  ServerOptions opts;
  opts.max_batch = 8;
  Harness h(opts);
  std::future<ServeResult> f1 =
      h.server.submit(make_image(1), 10 * kMs);
  std::future<ServeResult> f2 =
      h.server.submit(make_image(2), 10 * kMs);
  h.clock.advance(9 * kMs);
  for (std::future<ServeResult>* f : {&f1, &f2}) {
    const ServeResult res = f->get();
    EXPECT_EQ(res.stats.batch_size, 2);
    EXPECT_EQ(res.stats.launch_ns, 9 * kMs);
    EXPECT_EQ(res.stats.queue_wait_ns, 9 * kMs);
    EXPECT_EQ(res.stats.done_ns, 9 * kMs);  // virtual time stands still
    EXPECT_EQ(res.stats.deadline_slack_ns,
              static_cast<std::int64_t>(1 * kMs));
    EXPECT_EQ(res.stats.predicted_batch_ns, 1 * kMs);
  }
  expect_conserved(h.server.stats());
}

TEST(ServerTest, FifoPrefixBatchingWithinOneDeadlineClass) {
  // max_batch 2: r1+r2 fill a batch and launch at t=0 with zero wait;
  // r3 lingers alone until its deadline budget runs out at 99ms. Any
  // non-FIFO composition would produce different queue waits.
  ServerOptions opts;
  opts.max_batch = 2;
  Harness h(opts);
  std::future<ServeResult> f1 =
      h.server.submit(make_image(1), 100 * kMs);
  std::future<ServeResult> f2 =
      h.server.submit(make_image(2), 100 * kMs);
  const ServeResult r1 = f1.get();
  const ServeResult r2 = f2.get();
  EXPECT_EQ(r1.stats.batch_size, 2);
  EXPECT_EQ(r2.stats.batch_size, 2);
  EXPECT_EQ(r1.stats.queue_wait_ns, 0u);
  EXPECT_EQ(r2.stats.queue_wait_ns, 0u);

  std::future<ServeResult> f3 =
      h.server.submit(make_image(3), 100 * kMs);
  h.clock.advance(99 * kMs);
  const ServeResult r3 = f3.get();
  EXPECT_EQ(r3.stats.batch_size, 1);
  EXPECT_EQ(r3.stats.queue_wait_ns, 99 * kMs);
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.batches, 2u);
  expect_conserved(s);
}

TEST(ServerTest, ShedsOnArrivalWhenModelPredictsMiss) {
  // predict(1) = 10ms against a 1ms budget: reject at the door.
  ServerOptions opts;
  Harness h(opts, /*base_ns=*/10 * kMs);
  std::future<ServeResult> f = h.server.submit(make_image(1), 1 * kMs);
  EXPECT_EQ(shed_reason_of(f), ShedReason::kAdmission);
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.shed_admission, 1u);
  EXPECT_EQ(s.admitted, 0u);
  EXPECT_EQ(s.shed_total(), 1u);
  expect_conserved(s);
}

TEST(ServerTest, AdmissionControlOffShedsInQueueInstead) {
  ServerOptions opts;
  opts.admission_control = false;
  Harness h(opts, /*base_ns=*/10 * kMs);
  std::future<ServeResult> f = h.server.submit(make_image(1), 1 * kMs);
  EXPECT_EQ(shed_reason_of(f), ShedReason::kDeadlineExpired);
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.shed_expired, 1u);
  EXPECT_EQ(s.shed_total(), 1u);
  EXPECT_EQ(s.queued, 0u);
  expect_conserved(s);
}

TEST(ServerTest, ShedsQueuedRequestWhenClockJumpsPastDeadline) {
  // Feasible at submit (1ms predict vs 10ms budget), so it lingers for
  // company; jumping the clock straight past the deadline must shed it
  // through the expiry path, never launch it.
  ServerOptions opts;
  Harness h(opts);
  std::future<ServeResult> f = h.server.submit(make_image(1), 10 * kMs);
  h.clock.advance(20 * kMs);
  EXPECT_EQ(shed_reason_of(f), ShedReason::kDeadlineExpired);
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.shed_expired, 1u);
  EXPECT_EQ(s.served, 0u);
  expect_conserved(s);
}

TEST(ServerTest, ExceptionFailsExactlyTheAffectedBatch) {
  // Pairs [r1,r2] [r3,r4] [r5,r6] by the FIFO argument; r3 carries the
  // poison value, so exactly r3 and r4 must see the graph's exception
  // — and the server keeps serving r5, r6 afterwards.
  ServerOptions opts;
  opts.max_batch = 2;
  Harness h(opts, kMs, 0, /*poison=*/true);
  std::vector<std::future<ServeResult>> futs;
  for (std::uint64_t i = 1; i <= 6; ++i) {
    Tensor img = make_image(i);
    if (i == 3) img[0] = kPoisonValue;
    futs.push_back(h.server.submit(std::move(img), 100 * kMs));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const bool affected = i == 2 || i == 3;  // r3, r4
    if (affected) {
      EXPECT_THROW(
          {
            try {
              (void)futs[i].get();
            } catch (const std::runtime_error& e) {
              EXPECT_STREQ(e.what(), "poisoned input");
              throw;
            }
          },
          std::runtime_error)
          << "request " << i + 1;
    } else {
      EXPECT_NO_THROW((void)futs[i].get()) << "request " << i + 1;
    }
  }
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.served, 4u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.batches, 2u);  // the failed launch is not a completion
  expect_conserved(s);
}

TEST(ServerTest, DrainShutdownServesEveryInFlightRequest) {
  // Three lingering requests (1s budgets): shutdown(drain) must launch
  // them immediately as one batch instead of waiting for the budget.
  ServerOptions opts;
  opts.max_batch = 4;
  Harness h(opts);
  std::vector<std::future<ServeResult>> futs;
  for (std::uint64_t i = 1; i <= 3; ++i)
    futs.push_back(h.server.submit(make_image(i), 1000 * kMs));
  h.server.shutdown(/*drain=*/true);
  for (std::future<ServeResult>& f : futs) {
    const ServeResult res = f.get();
    EXPECT_EQ(res.stats.batch_size, 3);
  }
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.served, 3u);
  EXPECT_EQ(s.queued, 0u);
  expect_conserved(s);
}

TEST(ServerTest, NonDrainShutdownShedsTheQueue) {
  ServerOptions opts;
  opts.max_batch = 4;
  Harness h(opts);
  std::vector<std::future<ServeResult>> futs;
  for (std::uint64_t i = 1; i <= 3; ++i)
    futs.push_back(h.server.submit(make_image(i), 1000 * kMs));
  h.server.shutdown(/*drain=*/false);
  for (std::future<ServeResult>& f : futs)
    EXPECT_EQ(shed_reason_of(f), ShedReason::kShutdown);
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.shed_shutdown, 3u);
  EXPECT_EQ(s.served, 0u);
  expect_conserved(s);
}

TEST(ServerTest, SubmitAfterShutdownIsShed) {
  ServerOptions opts;
  Harness h(opts);
  h.server.shutdown();
  std::future<ServeResult> f = h.server.submit(make_image(1), kNeverNs);
  EXPECT_EQ(shed_reason_of(f), ShedReason::kShutdown);
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.shed_shutdown, 1u);
  expect_conserved(s);
}

TEST(ServerTest, RejectsMalformedInputShapes) {
  ServerOptions opts;
  Harness h(opts);
  Tensor wrong_c = make_input_nchw(1, 3, 8, 8);
  wrong_c.fill_zero();
  EXPECT_THROW((void)h.server.submit(std::move(wrong_c), kNeverNs),
               std::invalid_argument);
  Tensor batched = make_input_nchw(2, 2, 8, 8);
  batched.fill_zero();
  EXPECT_THROW((void)h.server.submit(std::move(batched), kNeverNs),
               std::invalid_argument);
  EXPECT_EQ(h.server.stats().submitted, 0u);
}

TEST(ServerTest, TelemetryCountersMirrorStats) {
  // A server name no other test uses, so its registry cells hold this
  // server's counts alone.
  ServerOptions opts;
  opts.name = "counters-mirror-stats";
  opts.max_batch = 2;
  Harness h(opts);
  std::vector<std::future<ServeResult>> futs;
  futs.push_back(h.server.submit(make_image(1), 100 * kMs));
  futs.push_back(h.server.submit(make_image(2), 100 * kMs));
  for (std::future<ServeResult>& f : futs) (void)f.get();
  std::future<ServeResult> rejected =
      h.server.submit(make_image(3), /*budget=*/1);  // 1ns: hopeless
  EXPECT_EQ(shed_reason_of(rejected), ShedReason::kAdmission);

  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.shed_admission, 1u);
  const ServeInstruments* obs = h.server.instruments();
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->admitted->value(), s.admitted);
  EXPECT_EQ(obs->shed[static_cast<int>(ShedReason::kAdmission)]->value(),
            s.shed_admission);
  EXPECT_EQ(obs->batches->value(), s.batches);
  expect_conserved(s);
}

TEST(ServerTest, ServeReportAggregatesBatchRecords) {
  ServerOptions opts;
  opts.max_batch = 2;
  Harness h(opts);
  std::vector<std::future<ServeResult>> futs;
  for (std::uint64_t i = 1; i <= 4; ++i)
    futs.push_back(h.server.submit(make_image(i), 100 * kMs));
  for (std::future<ServeResult>& f : futs) (void)f.get();

  const ServeReport rep = build_serve_report(h.server);
  EXPECT_EQ(rep.submitted, 4u);
  EXPECT_EQ(rep.served, 4u);
  EXPECT_EQ(rep.batches, 2u);
  EXPECT_DOUBLE_EQ(rep.mean_batch, 2.0);
  ASSERT_EQ(rep.rows.size(), 1u);
  EXPECT_EQ(rep.rows[0].batch_size, 2);
  EXPECT_EQ(rep.rows[0].count, 2u);
  EXPECT_GT(rep.rows[0].mean_measured_ms, 0.0);
  EXPECT_NE(rep.to_text().find("serve report"), std::string::npos);
  EXPECT_NE(rep.to_json().find("\"batches\": 2"), std::string::npos);
  EXPECT_EQ(rep.model_scale, 0.0);  // affine model: no calibration
}

TEST(ServerTest, MultipleExecutorLanesShareThePool) {
  ServerOptions opts;
  opts.executors = 2;
  opts.max_batch = 2;
  Harness h(opts);
  std::vector<std::future<ServeResult>> futs;
  for (std::uint64_t i = 1; i <= 8; ++i)
    futs.push_back(h.server.submit(make_image(i), kNeverNs));
  for (std::future<ServeResult>& f : futs) {
    const ServeResult res = f.get();
    EXPECT_GE(res.stats.batch_size, 1);
    EXPECT_LE(res.stats.batch_size, 2);
  }
  const ServerStatsSnapshot s = h.server.stats();
  EXPECT_EQ(s.served, 8u);
  expect_conserved(s);
}

// ----------------------------------------------------------------------
// Stress / fuzz: conservation under randomized arrivals and deadlines
// ----------------------------------------------------------------------

/// Seeded random traffic against the VirtualClock: arbitrary budget
/// mixes and clock jumps, with and without admission control. The
/// invariant is conservation: every request resolves exactly once —
/// a value, a ShedError, or a graph failure — and the stats ledger
/// agrees with the futures.
class ServingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ServingFuzz, EveryRequestServedOrShedExactlyOnce) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(seed * 9176 + 3);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };

  VirtualClock clock;
  AffineLatencyModel model(kMs, kMs / 4);
  ServerOptions opts;
  opts.clock = &clock;
  opts.model = &model;
  opts.calibrate = false;
  opts.max_batch = pick(1, 6);
  opts.executors = pick(1, 2);
  opts.admission_control = pick(0, 1) == 1;
  Server server(make_factory(seed), opts);

  const int n = 60;
  std::vector<std::future<ServeResult>> futs;
  for (int i = 0; i < n; ++i) {
    const int kind = pick(0, 3);
    const std::uint64_t budget =
        kind == 0 ? kNeverNs
        : kind == 1 ? static_cast<std::uint64_t>(pick(0, 2)) * kMs / 2
                    : static_cast<std::uint64_t>(pick(2, 80)) * kMs;
    futs.push_back(server.submit(make_image(seed * 1000 +
                                            static_cast<std::uint64_t>(i)),
                                 budget));
    if (pick(0, 2) == 0)
      clock.advance(static_cast<std::uint64_t>(pick(0, 30)) * kMs);
  }
  clock.advance(200 * kMs);
  server.shutdown(/*drain=*/true);

  std::uint64_t served = 0, shed = 0;
  for (std::future<ServeResult>& f : futs) {
    try {
      (void)f.get();
      ++served;
    } catch (const ShedError&) {
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, static_cast<std::uint64_t>(n))
      << "a request was lost or double-resolved";
  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(n));
  EXPECT_EQ(s.served, served);
  EXPECT_EQ(s.shed_total(), shed);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.queued, 0u);
  expect_conserved(s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingFuzz, ::testing::Range(0, 10));

/// Real-clock, multi-producer smoke test: 4 threads race submissions
/// against live executor lanes. Assertions are order-insensitive
/// (conservation only) — this is the TSan target for the serving
/// layer's locking.
TEST(ServingStress, MultiProducerRealClockConservation) {
  AffineLatencyModel model(kMs / 2, 0);
  ServerOptions opts;
  opts.model = &model;
  opts.calibrate = false;
  opts.max_batch = 4;
  opts.executors = 2;
  opts.max_linger_ns = kMs;  // keep no-deadline requests moving
  Server server(make_factory(99), opts);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 25;
  std::vector<std::future<ServeResult>> futs(
      static_cast<std::size_t>(kProducers * kPerProducer));
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t budget =
            (rng() % 3 == 0) ? kNeverNs : 200 * kMs;
        futs[static_cast<std::size_t>(p * kPerProducer + i)] =
            server.submit(
                make_image(static_cast<std::uint64_t>(p * 1000 + i)),
                budget);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  server.shutdown(/*drain=*/true);

  std::uint64_t served = 0, shed = 0;
  for (std::future<ServeResult>& f : futs) {
    try {
      (void)f.get();
      ++served;
    } catch (const ShedError&) {
      ++shed;
    }
  }
  EXPECT_EQ(served + shed,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.served, served);
  EXPECT_EQ(s.shed_total(), shed);
  EXPECT_EQ(s.queued, 0u);
  expect_conserved(s);
}

// ----------------------------------------------------------------------
// Observability: request ids, registry instruments, serve spans, the
// SLO watchdog and exit-hook shutdown (DESIGN.md §16)
// ----------------------------------------------------------------------

TEST(ObservabilityTest, RequestIdsAreAssignedInSubmitOrder) {
  ServerOptions opts;
  opts.name = "obs-ids";
  opts.max_batch = 2;
  Harness h(opts);
  std::vector<std::future<ServeResult>> futs;
  for (std::uint64_t i = 0; i < 4; ++i)
    futs.push_back(h.server.submit(make_image(i + 1), 100 * kMs));
  // A shed request consumes an id too: ids are submit-order, not
  // admit-order.
  std::future<ServeResult> rejected =
      h.server.submit(make_image(9), /*budget=*/1);
  EXPECT_EQ(shed_reason_of(rejected), ShedReason::kAdmission);
  // Advance to the linger launch boundary (budget - predict(1)), not
  // past the deadline: the executor may still be in its cold graph
  // build (real time) and must not find the requests expired.
  h.clock.advance(99 * kMs);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(futs[i].get().stats.request_id, i);
}

TEST(ObservabilityTest, RegistryPercentilesMatchExactStatsWithinOneBucket) {
  // The PR's acceptance criterion: the log-bucketed e2e histogram must
  // answer p50/p95/p99 within one bucket width of the exact
  // percentiles derived from per-request ServeStats — under a
  // VirtualClock, where every latency is an exact number the test
  // controls. Each request lingers alone until its deadline budget
  // forces a launch, so e2e_i = budget_i - predict(1) by construction.
  ServerOptions opts;
  opts.name = "obs-acceptance";
  opts.max_batch = 8;
  Harness h(opts);  // predict(k) = 1ms flat
  std::vector<std::uint64_t> exact;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const std::uint64_t budget = (i + 2) * kMs;  // waits 1ms..50ms
    std::future<ServeResult> f = h.server.submit(make_image(i + 1), budget);
    h.clock.advance(budget - kMs);  // reach launch_at exactly
    const ServeResult res = f.get();
    const std::uint64_t e2e = res.stats.done_ns - res.stats.arrival_ns;
    EXPECT_EQ(e2e, (i + 1) * kMs);
    exact.push_back(e2e);
    // Park the clock well past this request so the next one is alone.
    h.clock.advance(100 * kMs);
  }
  std::sort(exact.begin(), exact.end());

  ASSERT_NE(h.server.instruments(), nullptr);
  const HistogramSnapshot e2e_hist =
      h.server.instruments()->e2e_ns->snapshot();
  ASSERT_EQ(e2e_hist.count, exact.size());
  for (const double q : {0.50, 0.95, 0.99}) {
    const std::uint64_t rank = static_cast<std::uint64_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(
                                                exact.size()))));
    const std::uint64_t truth = exact[rank - 1];
    const std::uint64_t got = e2e_hist.quantile(q);
    // Same bucket = within one bucket width, the layout's guarantee.
    EXPECT_EQ(HistogramLayout::bucket_of(got),
              HistogramLayout::bucket_of(truth))
        << "q=" << q << " exact=" << truth << " histogram=" << got;
  }

  // The queue-wait histogram saw the same distribution shifted by
  // nothing (execution takes zero virtual time), so counts agree.
  EXPECT_EQ(h.server.instruments()->queue_wait_ns->snapshot().count,
            exact.size());
}

TEST(ObservabilityTest, InstrumentsMirrorStatsLedger) {
  ServerOptions opts;
  opts.name = "obs-ledger";
  opts.max_batch = 2;
  Harness h(opts);
  std::vector<std::future<ServeResult>> futs;
  for (std::uint64_t i = 0; i < 4; ++i)
    futs.push_back(h.server.submit(make_image(i + 1), 100 * kMs));
  for (std::future<ServeResult>& f : futs) (void)f.get();
  std::future<ServeResult> rejected =
      h.server.submit(make_image(9), /*budget=*/1);
  EXPECT_EQ(shed_reason_of(rejected), ShedReason::kAdmission);

  const ServerStatsSnapshot s = h.server.stats();
  const ServeInstruments* obs = h.server.instruments();
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->submitted->value(), s.submitted);
  EXPECT_EQ(obs->admitted->value(), s.admitted);
  EXPECT_EQ(obs->served->value(), s.served);
  EXPECT_EQ(obs->batches->value(), s.batches);
  EXPECT_EQ(obs->shed[static_cast<int>(ShedReason::kAdmission)]->value(),
            s.shed_admission);
  EXPECT_EQ(obs->queue_depth->value(), 0);
  EXPECT_EQ(obs->e2e_ns->snapshot().count, s.served);
  // Per-batch-size family: all four requests ran as two 2-batches.
  EXPECT_EQ(obs->execute_by_batch[2]->snapshot().count, s.batches);
  expect_conserved(s);

  // The exposition surface sees those same instruments.
  const std::string text = h.server.metrics_text();
  EXPECT_NE(
      text.find("ndirect_serve_requests_total{server=\"obs-ledger\"} 5"),
      std::string::npos);
  EXPECT_NE(text.find("# EOF"), std::string::npos);
}

TEST(ObservabilityTest, ObserveOffStaysOutOfTheRegistry) {
  ServerOptions opts;
  opts.name = "obs-off";
  opts.observe = false;
  Harness h(opts);
  std::future<ServeResult> f = h.server.submit(make_image(1), 100 * kMs);
  h.clock.advance(99 * kMs);  // lone request lingers until launch_at
  (void)f.get();
  EXPECT_EQ(h.server.instruments(), nullptr);
  EXPECT_EQ(h.server.metrics_text().find("server=\"obs-off\""),
            std::string::npos);
}

TEST(ObservabilityTest, ServeSpansCarryRequestIds) {
  TraceSession& ts = TraceSession::global();
  ts.start(8192);
  {
    ServerOptions opts;
    opts.name = "obs-spans";
    opts.max_batch = 2;
    Harness h(opts);
    std::vector<std::future<ServeResult>> futs;
    futs.push_back(h.server.submit(make_image(1), 100 * kMs));
    futs.push_back(h.server.submit(make_image(2), 100 * kMs));
    for (std::future<ServeResult>& f : futs) (void)f.get();
  }
  ts.stop();
  bool saw_queue = false, saw_execute = false, saw_respond = false;
  for (const TraceEvent& ev : ts.events()) {
    const std::string name = ev.name;
    if (name == "serve_queue") {
      ASSERT_EQ(ev.ph, 'X');
      ASSERT_STREQ(ev.arg1_name, "req");
      EXPECT_GE(ev.arg1, 0);
      EXPECT_LE(ev.arg1, 1);
      ASSERT_STREQ(ev.arg2_name, "batch");
      EXPECT_EQ(ev.arg2, 2);
      saw_queue = true;
    } else if (name == "serve_execute") {
      if (ev.ph == 'B') {
        ASSERT_STREQ(ev.arg1_name, "batch");
        EXPECT_EQ(ev.arg1, 2);
      }
      saw_execute = true;
    } else if (name == "serve_respond") {
      if (ev.ph == 'B') {
        ASSERT_STREQ(ev.arg1_name, "req");
        EXPECT_EQ(ev.arg1, 0);  // head request of the batch
      }
      saw_respond = true;
    }
  }
  ts.clear();
  // Tracing compiled out (-DNDIRECT_TELEMETRY=OFF): serving runs the
  // same, and records no span at all.
  EXPECT_EQ(saw_queue, kTelemetryCompiled);
  EXPECT_EQ(saw_execute, kTelemetryCompiled);
  EXPECT_EQ(saw_respond, kTelemetryCompiled);
}

TEST(ObservabilityTest, ExitHookDrainsLiveServerBeforeExporters) {
  // Satellite-6 regression test: a server still alive when the exit
  // chain runs is drained by its hook (LIFO: servers before the
  // metrics/trace exporters), and its later destruction is a clean
  // no-op double-shutdown.
  ServerOptions opts;
  opts.name = "obs-exit";
  auto h = std::make_unique<Harness>(opts);
  std::future<ServeResult> f = h->server.submit(make_image(1), kNeverNs);
  (void)f.get();
  run_exit_hooks();  // what atexit would do, with the server still live
  std::future<ServeResult> after =
      h->server.submit(make_image(2), kNeverNs);
  EXPECT_EQ(shed_reason_of(after), ShedReason::kShutdown);
  const ServerStatsSnapshot s = h->server.stats();
  EXPECT_EQ(s.served, 1u);
  EXPECT_EQ(s.queued, 0u);
  h.reset();  // destructor: unregister (already-run token) + shutdown
}

// ----------------------------------------------------------------------
// SloMonitor: rolling windows and rule-based diagnoses, on exact time
// ----------------------------------------------------------------------

constexpr std::uint64_t kSec = 1'000'000'000;

TEST(SloMonitorTest, WindowsRollOverExactSecondBoundaries) {
  SloMonitor mon;
  mon.record_served(0, 5 * kMs, true);
  mon.record_served(kSec / 2, 10 * kMs, true);     // second 0
  mon.record_served(3 * kSec, 20 * kMs, false);    // second 3
  mon.record_shed(3 * kSec + 1, ShedReason::kAdmission);

  // 1s window at t=3.5s: only second 3.
  SloWindowStats w1 = mon.window(3 * kSec + kSec / 2, 1);
  EXPECT_EQ(w1.served, 1u);
  EXPECT_EQ(w1.on_time, 0u);
  EXPECT_EQ(w1.shed, 1u);
  EXPECT_EQ(w1.shed_by_reason[static_cast<int>(ShedReason::kAdmission)],
            1u);
  EXPECT_DOUBLE_EQ(w1.goodput_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(w1.shed_fraction(), 0.5);

  // 10s window: everything so far.
  SloWindowStats w10 = mon.window(3 * kSec + kSec / 2, 10);
  EXPECT_EQ(w10.served, 3u);
  EXPECT_EQ(w10.on_time, 2u);
  EXPECT_EQ(w10.shed, 1u);
  EXPECT_EQ(w10.p99_ns,
            HistogramLayout::upper_bound(
                HistogramLayout::bucket_of(20 * kMs)));

  // Far in the future the ring has recycled those seconds: empty.
  SloWindowStats later = mon.window(200 * kSec, 60);
  EXPECT_EQ(later.finished(), 0u);
  EXPECT_DOUBLE_EQ(later.goodput_fraction(), 1.0);  // vacuous truth
}

TEST(SloMonitorTest, StaleRingSlicesAreNotResurrected) {
  SloMonitor mon;
  mon.record_served(0, kMs, true);
  // Exactly kRingSeconds later the same slice index recurs; the old
  // second-0 data must not leak into the new second's window.
  const std::uint64_t wrap =
      static_cast<std::uint64_t>(SloMonitor::kRingSeconds) * kSec;
  mon.record_served(wrap, 2 * kMs, true);
  SloWindowStats w = mon.window(wrap, 1);
  EXPECT_EQ(w.served, 1u);
  EXPECT_EQ(w.p99_ns, HistogramLayout::upper_bound(
                          HistogramLayout::bucket_of(2 * kMs)));
}

TEST(SloMonitorTest, P99BreachNamesCalibrationWhenModelUnderpredicts) {
  SloConfig cfg;
  cfg.target_p99_ns = 10 * kMs;
  SloMonitor mon(cfg);
  for (int i = 0; i < 100; ++i)
    mon.record_served(kSec / 2, 50 * kMs, true);
  SloEvidence ev;
  ev.model_ratio = 2.0;
  ev.model_scale = 1.4;
  const std::vector<std::string> diags = mon.evaluate(kSec / 2, ev);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find("e2e p99"), std::string::npos);
  EXPECT_NE(diags[0].find("EWMA calibration lagging"),
            std::string::npos);

  // Inside the SLO: silence.
  SloMonitor quiet(cfg);
  quiet.record_served(kSec / 2, 5 * kMs, true);
  EXPECT_TRUE(quiet.evaluate(kSec / 2, ev).empty());
}

TEST(SloMonitorTest, GoodputBreachAttributesDominantLossMode) {
  SloConfig cfg;
  cfg.min_goodput_fraction = 0.9;
  SloMonitor late(cfg);
  for (int i = 0; i < 10; ++i)
    late.record_served(0, 5 * kMs, /*on_time=*/i < 5);
  std::vector<std::string> diags = late.evaluate(0, SloEvidence{});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].find("goodput"), std::string::npos);
  EXPECT_NE(diags[0].find("served-late dominates"), std::string::npos);

  SloMonitor shedding(cfg);
  shedding.record_served(0, 5 * kMs, true);
  for (int i = 0; i < 9; ++i)
    shedding.record_shed(0, ShedReason::kDeadlineExpired);
  diags = shedding.evaluate(0, SloEvidence{});
  ASSERT_GE(diags.size(), 1u);
  EXPECT_NE(diags[0].find("shedding dominates"), std::string::npos);
  EXPECT_NE(diags[0].find("deadline_expired"), std::string::npos);
}

TEST(SloMonitorTest, ShedSpikeAgainstBaselineIsCalledOut) {
  SloConfig cfg;
  cfg.max_shed_fraction = 0.2;
  SloMonitor mon(cfg);
  // 59 quiet seconds of pure service, then one second of heavy shed.
  for (int s = 0; s < 59; ++s)
    for (int i = 0; i < 10; ++i)
      mon.record_served(static_cast<std::uint64_t>(s) * kSec, 2 * kMs,
                        true);
  const std::uint64_t now = 59 * kSec;
  mon.record_served(now, 2 * kMs, true);
  for (int i = 0; i < 9; ++i)
    mon.record_shed(now, ShedReason::kDeadlineExpired);
  SloEvidence ev;
  ev.graph_builds = 3;
  const std::vector<std::string> diags = mon.evaluate(now, ev);
  ASSERT_GE(diags.size(), 1u);
  const std::string& d = diags.back();
  EXPECT_NE(d.find("shed fraction"), std::string::npos);
  EXPECT_NE(d.find("1s spike"), std::string::npos);
  EXPECT_NE(d.find("cold graph builds seen: 3"), std::string::npos);
}

TEST(ObservabilityTest, ServerFeedsSloWindowsAndReport) {
  ServerOptions opts;
  opts.name = "obs-slo";
  opts.max_batch = 8;
  opts.slo.target_p99_ns = kMs;  // 1ms ceiling the traffic will breach
  Harness h(opts);  // predict(1) = 1ms flat
  // One lingering request: waits 9ms for company that never comes, so
  // e2e = 9ms — an exact, deliberate p99 breach.
  std::future<ServeResult> f = h.server.submit(make_image(1), 10 * kMs);
  h.clock.advance(9 * kMs);
  const ServeResult res = f.get();
  EXPECT_EQ(res.stats.done_ns - res.stats.arrival_ns, 9 * kMs);

  const SloWindowStats w = h.server.slo().window(h.server.now_ns(), 60);
  EXPECT_EQ(w.served, 1u);
  EXPECT_EQ(w.on_time, 1u);
  EXPECT_GT(w.p99_ns, kMs);

  const ServeReport rep = build_serve_report(h.server);
  ASSERT_EQ(rep.slo_windows.size(), 3u);
  EXPECT_EQ(rep.slo_windows[2].served, 1u);
  EXPECT_GT(rep.e2e_p99_ms, 1.0);
  bool has_breach = false;
  for (const std::string& d : rep.diagnoses)
    if (d.find("SLO breach: e2e p99") != std::string::npos)
      has_breach = true;
  EXPECT_TRUE(has_breach);
  // JSON stays a valid document with the SLO rows folded in — the
  // diagnoses strings are free text, so run the whole document through
  // a strict parser to prove the escaping holds.
  const std::string j = rep.to_json();
  EXPECT_NE(j.find("\"slo_windows\""), std::string::npos);
  if (std::system("python3 -c pass > /dev/null 2>&1") == 0) {
    const std::string path = testing::TempDir() + "serve_report.json";
    {
      std::ofstream out(path);
      out << j;
    }
    EXPECT_EQ(std::system(("python3 -m json.tool " + path +
                           " > /dev/null 2>&1")
                              .c_str()),
              0)
        << "json.tool rejected the serve report document";
  }
}

}  // namespace
}  // namespace ndirect::serve
