// Telemetry/trace layer: per-worker counter aggregation against the
// scheduler oracle, Chrome-trace well-formedness, zero-overhead
// gating, per-instance scheduler attribution, and the ConvReport
// predicted-vs-measured join.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/depthwise.h"
#include "core/ndirect.h"
#include "core/quantized.h"
#include "core/report.h"
#include "nn/graph.h"
#include "nn/op.h"
#include "platform/specs.h"
#include "platform/workloads.h"
#include "runtime/metrics.h"
#include "runtime/thread_pool.h"
#include "runtime/trace.h"
#include "runtime/work_queue.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

struct ConvData {
  Tensor input;
  Tensor filter;
};

ConvData make_data(const ConvParams& p, std::uint64_t seed) {
  ConvData d{make_input_nchw(p.N, p.C, p.H, p.W),
             make_filter_kcrs(p.K, p.C, p.R, p.S)};
  fill_random(d.input, seed);
  fill_random(d.filter, seed + 1);
  return d;
}

/// A conv big enough to produce several macro-tiles on a 4-worker grid.
ConvParams medium_conv() {
  return {.N = 2, .C = 16, .H = 24, .W = 24, .K = 32, .R = 3, .S = 3,
          .str = 1, .pad = 1};
}

/// Restores the runtime telemetry switch on scope exit, so a test that
/// flips it cannot leak the disabled state into later tests.
struct TelemetryGuard {
  ~TelemetryGuard() { set_telemetry_enabled(kTelemetryCompiled); }
};

/// Stops and clears the global trace session on scope exit.
struct TraceGuard {
  ~TraceGuard() { TraceSession::global().clear(); }
};

// ----------------------------------------------------------------------
// WorkerTelemetry / TelemetrySnapshot units
// ----------------------------------------------------------------------

TEST(WorkerTelemetry, SnapshotAggregatesSlots) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  WorkerTelemetry tel(3);
  tel.add(0, Counter::kTilesClaimed, 4);
  tel.add(1, Counter::kTilesClaimed, 2);
  tel.add(2, Counter::kMicrokernelNs, 500'000'000);  // 0.5 s
  tel.add(-1, Counter::kTilesClaimed, 99);  // out of range: dropped
  tel.add(3, Counter::kTilesClaimed, 99);
  EXPECT_EQ(tel.total(Counter::kTilesClaimed), 6u);

  const TelemetrySnapshot snap = tel.snapshot(1.0);
  ASSERT_EQ(snap.workers.size(), 3u);
  EXPECT_EQ(snap.total(Counter::kTilesClaimed), 6u);
  EXPECT_DOUBLE_EQ(snap.phase_seconds(Counter::kMicrokernelNs), 0.5);
  EXPECT_DOUBLE_EQ(snap.busy_fraction(2), 0.5);
  EXPECT_DOUBLE_EQ(snap.busy_fraction(0), 0.0);

  tel.reset();
  EXPECT_EQ(tel.total(Counter::kTilesClaimed), 0u);
}

TEST(WorkerTelemetry, MergeAddsPerWorkerRowsAndGrows) {
  TelemetrySnapshot a, b;
  a.workers.resize(1);
  a.workers[0].v[0] = 3;
  a.wall_seconds = 0.25;
  b.workers.resize(2);
  b.workers[0].v[0] = 1;
  b.workers[1].v[0] = 7;
  b.wall_seconds = 0.5;
  a.merge(b);
  ASSERT_EQ(a.workers.size(), 2u);
  EXPECT_EQ(a.workers[0].v[0], 4u);
  EXPECT_EQ(a.workers[1].v[0], 7u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.75);
}

TEST(WorkerTelemetry, SnapshotJsonRoundTripsThroughAStrictParser) {
  // The exported document must satisfy a real parser, not just our own
  // substring checks: pipe it through `python3 -m json.tool`, which
  // rejects bare control bytes, trailing commas and unbalanced
  // braces. (The escaping bug this guards against: un-escaped control
  // characters in string fields made strict parsers reject the dump.)
  if (std::system("python3 -c pass > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 not available";
  TelemetrySnapshot snap;
  snap.workers.resize(3);
  snap.workers[0].v[static_cast<int>(Counter::kTilesClaimed)] = 41;
  snap.workers[1].v[static_cast<int>(Counter::kLocalSteals)] = 7;
  snap.workers[2].v[static_cast<int>(Counter::kPackNs)] = 123456789;
  snap.wall_seconds = 0.125;
  const std::string path =
      testing::TempDir() + "telemetry_roundtrip.json";
  {
    std::ofstream out(path);
    out << snap.to_json();
  }
  const std::string cmd =
      "python3 -m json.tool " + path + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "json.tool rejected the snapshot document";
}

TEST(WorkerTelemetry, SnapshotJsonCarriesCountersAndFractions) {
  TelemetrySnapshot snap;
  snap.workers.resize(2);
  snap.workers[0].v[static_cast<int>(Counter::kTilesClaimed)] = 5;
  snap.wall_seconds = 0.1;
  const std::string j = snap.to_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"tiles_claimed\": 5"), std::string::npos);
  EXPECT_NE(j.find("\"phase_fractions\""), std::string::npos);
  EXPECT_NE(j.find("\"busy_fraction\""), std::string::npos);
  EXPECT_NE(j.find("\"per_worker\""), std::string::npos);
}

// ----------------------------------------------------------------------
// Engine counters vs the scheduler oracle
// ----------------------------------------------------------------------

TEST(EngineTelemetry, TileClaimsSumToMacroTileCount) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const ConvParams p = medium_conv();
  const ConvData d = make_data(p, 7);
  ThreadPool pool(4);

  TelemetrySnapshot snap;
  SchedulerStats stats;
  NdirectOptions opts;
  opts.pool = &pool;
  opts.threads = 4;
  opts.telemetry = &snap;
  opts.sched_stats = &stats;
  (void)ndirect_conv(d.input, d.filter, p, opts);

  ASSERT_FALSE(snap.empty());
  ASSERT_EQ(static_cast<int>(snap.workers.size()), stats.workers);
  // The acceptance invariant: per-worker claims sum to exactly the
  // macro-tile count the scheduler handed out.
  EXPECT_EQ(snap.total(Counter::kTilesClaimed), stats.tiles);
  EXPECT_GT(stats.tiles, 0u);
  // Steal attribution agrees with the scheduler's own breakdown.
  EXPECT_EQ(snap.total(Counter::kLocalSteals), stats.local_steals);
  EXPECT_EQ(snap.total(Counter::kNeighbourSteals), stats.neighbour_steals);
  EXPECT_EQ(snap.total(Counter::kGlobalSteals), stats.global_steals);
  EXPECT_EQ(stats.local_steals + stats.neighbour_steals +
                stats.global_steals,
            stats.steals);
  EXPECT_GT(snap.wall_seconds, 0.0);
  for (int w = 0; w < stats.workers; ++w) {
    EXPECT_GE(snap.busy_fraction(w), 0.0);
    EXPECT_LE(snap.busy_fraction(w), 1.0);
  }
}

TEST(EngineTelemetry, SerialRunMatchesSerialOracle) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const ConvParams p = medium_conv();
  const ConvData d = make_data(p, 8);

  TelemetrySnapshot snap;
  SchedulerStats stats;
  NdirectOptions opts;
  opts.threads = 1;
  opts.telemetry = &snap;
  opts.sched_stats = &stats;
  (void)ndirect_conv(d.input, d.filter, p, opts);

  ASSERT_EQ(snap.workers.size(), 1u);
  EXPECT_EQ(snap.workers[0].value(Counter::kTilesClaimed), stats.tiles);
  EXPECT_EQ(snap.workers[0].steals(), 0u);
  EXPECT_GT(snap.phase_seconds(Counter::kMicrokernelNs), 0.0);
}

TEST(EngineTelemetry, PhaseTimerWorksAtAnyWorkerCount) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const ConvParams p = medium_conv();
  const ConvData d = make_data(p, 9);
  ThreadPool pool(4);

  PhaseTimer pt;
  TelemetrySnapshot snap;
  NdirectOptions opts;
  opts.pool = &pool;
  opts.threads = 4;  // the seed only supported phase timing at 1 thread
  opts.phase_timer = &pt;
  opts.telemetry = &snap;
  (void)ndirect_conv(d.input, d.filter, p, opts);

  EXPECT_GT(pt.seconds("transform"), 0.0);
  EXPECT_GT(pt.seconds("packing"), 0.0);
  EXPECT_GT(pt.seconds("micro-kernel"), 0.0);
  // The compatibility view is an aggregation of the per-worker phase
  // counters, not an independent measurement.
  EXPECT_DOUBLE_EQ(pt.seconds("micro-kernel"),
                   snap.phase_seconds(Counter::kMicrokernelNs));
  EXPECT_DOUBLE_EQ(pt.seconds("transform"),
                   snap.phase_seconds(Counter::kTransformNs));
}

TEST(EngineTelemetry, RuntimeDisableClearsSinkAndRecordsNothing) {
  TelemetryGuard guard;
  const ConvParams p = medium_conv();
  const ConvData d = make_data(p, 10);

  set_telemetry_enabled(false);
  TelemetrySnapshot snap;
  snap.workers.resize(3);  // stale data from an imagined earlier run
  snap.wall_seconds = 42;
  NdirectOptions opts;
  opts.threads = 2;
  opts.telemetry = &snap;
  (void)ndirect_conv(d.input, d.filter, p, opts);
  // A disabled run must not leave stale telemetry behind.
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.wall_seconds, 0.0);
}

TEST(EngineTelemetry, PackedFilterRunRecordsNoTransform) {
  // A run on a pack_filter() tensor is identified by transform_ns == 0:
  // the loop nest has no filter tile to transform.
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const ConvParams p = medium_conv();
  const ConvData d = make_data(p, 11);

  TelemetrySnapshot snap;
  NdirectOptions opts;
  opts.threads = 2;
  opts.telemetry = &snap;
  const NdirectConv conv(p, opts);
  (void)conv.run(d.input, conv.pack_filter(d.filter.data()));
  EXPECT_GT(snap.total(Counter::kTilesClaimed), 0u);
  EXPECT_EQ(snap.total(Counter::kTransformNs), 0u);
}

// ----------------------------------------------------------------------
// Per-instance scheduler attribution
// ----------------------------------------------------------------------

TEST(SchedulerTelemetry, PerInstanceStealEventsAndClasses) {
  // Worker 1 owns no tiles on a 1x1 grid: every claim it makes is a
  // distance-0 alias steal of worker 0's seed.
  TileScheduler sched(8, 1, 1, 1, /*workers=*/2, /*stealing=*/true);
  TileScheduler idle(8, 1, 1, 1, 2, true);
  int row = 0, col = 0;
  std::uint64_t claimed = 0;
  while (sched.claim(1, &row, &col)) ++claimed;
  EXPECT_EQ(claimed, 8u);
  EXPECT_EQ(sched.worker_executed(1), 8u);
  EXPECT_EQ(sched.worker_steals(1, StealClass::kLocal), 8u);
  EXPECT_EQ(sched.worker_steals(1, StealClass::kNeighbour), 0u);
  EXPECT_EQ(sched.worker_steals(1, StealClass::kGlobal), 0u);
  EXPECT_EQ(sched.steal_events(), 8u);
  // Attribution is per instance: the untouched scheduler saw nothing
  // (the process-global scheduler_steal_events() would not tell these
  // two apart).
  EXPECT_EQ(idle.steal_events(), 0u);

  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.steals, 8u);
  EXPECT_EQ(stats.local_steals, 8u);
  EXPECT_EQ(stats.neighbour_steals + stats.global_steals, 0u);
}

TEST(SchedulerTelemetry, StealClassesPartitionTheStealCount) {
  // One worker drains a 2x2-partitioned grid: its own seed first, then
  // pass-1 (same row) and pass-2 (Manhattan) victims.
  TileScheduler sched(6, 6, 2, 2, 4, true);
  int row = 0, col = 0;
  while (sched.claim(0, &row, &col)) {
  }
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.tiles, 36u);
  EXPECT_GT(stats.steals, 0u);
  EXPECT_EQ(stats.local_steals + stats.neighbour_steals +
                stats.global_steals,
            stats.steals);
  std::uint64_t by_class = 0;
  for (int c = 0; c < kStealClassCount; ++c) {
    by_class += sched.worker_steals(0, static_cast<StealClass>(c));
  }
  EXPECT_EQ(by_class, stats.steals);
}

// ----------------------------------------------------------------------
// Trace session
// ----------------------------------------------------------------------

/// Per-tid LIFO check over the session's (ts-sorted) events: every 'E'
/// closes the innermost open 'B' of the same name on the same lane, and
/// no lane ends with an open span.
void expect_balanced(const std::vector<TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<std::string>> open;
  std::uint64_t last_ts = 0;
  for (const TraceEvent& e : events) {
    ASSERT_NE(e.name, nullptr);
    EXPECT_GE(e.ts_ns, last_ts) << "events not sorted by timestamp";
    last_ts = e.ts_ns;
    if (e.ph == 'B') {
      open[e.tid].emplace_back(e.name);
    } else if (e.ph == 'E') {
      auto& stack = open[e.tid];
      ASSERT_FALSE(stack.empty())
          << "'E' " << e.name << " with no open span on tid " << e.tid;
      EXPECT_EQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST(Trace, ConvRunProducesBalancedSortedEvents) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  TraceGuard guard;
  const ConvParams p = medium_conv();
  const ConvData d = make_data(p, 12);
  ThreadPool pool(4);

  TraceSession& tr = TraceSession::global();
  tr.start(std::size_t{1} << 14);
  NdirectOptions opts;
  opts.pool = &pool;
  opts.threads = 4;
  (void)ndirect_conv(d.input, d.filter, p, opts);
  tr.stop();

  EXPECT_EQ(tr.dropped(), 0u);
  const std::vector<TraceEvent> events = tr.events();
  ASSERT_FALSE(events.empty());
  expect_balanced(events);

  int runs = 0, tiles = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "ndirect.run" && e.ph == 'B') ++runs;
    if (std::string(e.name) == "tile") {
      ++tiles;
      EXPECT_EQ(e.ph, 'X');
    }
  }
  EXPECT_EQ(runs, 1);
  EXPECT_GT(tiles, 0);
}

TEST(Trace, JsonIsChromeTraceShaped) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  TraceGuard guard;
  const ConvParams p = medium_conv();
  const ConvData d = make_data(p, 13);

  TraceSession& tr = TraceSession::global();
  tr.start(std::size_t{1} << 12);
  NdirectOptions opts;
  opts.threads = 2;
  (void)ndirect_conv(d.input, d.filter, p, opts);
  tr.stop();

  const std::string j = tr.json();
  EXPECT_EQ(j.front(), '{');
  ASSERT_GE(j.size(), 3u);
  EXPECT_EQ(j.substr(j.size() - 3), "]}\n");
  EXPECT_NE(j.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(j.find("\"ndirect.run\""), std::string::npos);
  // Lane labels ride along as Chrome metadata events.
  EXPECT_NE(j.find("thread_name"), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"M\""), std::string::npos);
}

TEST(Trace, ControlBytesInNamesExportEscaped) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  TraceGuard guard;
  TraceSession& tr = TraceSession::global();
  tr.start(16);
  tr.instant("ctl\x01name");
  tr.stop();
  const std::string j = tr.json();
  EXPECT_NE(j.find("\"ctl\\u0001name\""), std::string::npos) << j;
}

TEST(Trace, FullRingCountsDropsInsteadOfBlocking) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  TraceGuard guard;
  TraceSession& tr = TraceSession::global();
  tr.start(8);
  EXPECT_EQ(tr.capacity(), 8u);
  for (int i = 0; i < 20; ++i) tr.complete("ev", 0, 1);
  tr.stop();
  EXPECT_EQ(tr.size(), 8u);
  EXPECT_EQ(tr.dropped(), 12u);
  EXPECT_EQ(tr.events().size(), 8u);
}

TEST(Trace, EdgeOrphanedSpansArePrunedFromExport) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  TraceGuard guard;
  TraceSession& tr = TraceSession::global();
  // A session started mid-span (over the admin plane's POST
  // /trace/start) sees the 'E' of a 'B' it never recorded; one
  // stopped mid-span records a 'B' whose 'E' never arrives. Both
  // unmatched halves must vanish from the export while matched pairs
  // — including pairs nested inside the dangling 'B' — survive.
  tr.start(64);
  tr.end("pre-session");    // its 'B' predates the session
  tr.begin("matched");
  tr.end("matched");
  tr.begin("cut-by-stop");  // its 'E' never arrives
  tr.begin("inner");
  tr.end("inner");
  tr.stop();

  const std::vector<TraceEvent> evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  for (const TraceEvent& e : evs) {
    const std::string name = e.name;
    EXPECT_TRUE(name == "matched" || name == "inner") << name;
  }
  expect_balanced(evs);
}

TEST(Trace, OffSessionRecordsNothing) {
  TraceGuard guard;
  TraceSession& tr = TraceSession::global();
  tr.clear();
  EXPECT_FALSE(trace_on());
  tr.complete("ignored", 0, 1);
  tr.begin("ignored");
  tr.end("ignored");
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.events().size(), 0u);
}

// ----------------------------------------------------------------------
// Concurrent graph lanes
// ----------------------------------------------------------------------

// Holds each runner that enters a RendezvousOp until `parties` runners
// are inside one at once. The wait is bounded, so a runner that never
// comes fails the test instead of hanging it.
struct Rendezvous {
  int parties = 2;
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  bool timed_out = false;
};

class RendezvousOp final : public Op {
 public:
  explicit RendezvousOp(Rendezvous& rv) : rv_(rv) {}
  const char* name() const override { return "rendezvous"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override {
    return in.at(0);
  }
  Tensor forward(const std::vector<const Tensor*>& in) const override {
    std::unique_lock<std::mutex> lock(rv_.m);
    ++rv_.arrived;
    rv_.cv.notify_all();
    if (!rv_.cv.wait_for(lock, std::chrono::seconds(10),
                         [&] { return rv_.arrived >= rv_.parties; })) {
      rv_.timed_out = true;
    }
    return in.at(0)->clone();
  }

 private:
  Rendezvous& rv_;
};

TEST(Trace, ConcurrentGraphProducesPerRunnerLanes) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  TraceGuard guard;
  // Two independent branches merged by add: width 2, so the concurrent
  // executor spawns a second runner thread. Each branch node waits until
  // both runners are inside one, so each runner records its own node
  // span whatever the thread timing.
  Rendezvous rv;
  Graph g(1, 4, 8, 8);
  const NodeId a = g.add(std::make_unique<RendezvousOp>(rv), {0});
  const NodeId b = g.add(std::make_unique<RendezvousOp>(rv), {0});
  g.add(std::make_unique<AddOp>(), {a, b});
  Tensor input = make_input_nchw(1, 4, 8, 8);
  fill_random(input, 3);

  TraceSession& tr = TraceSession::global();
  tr.start(std::size_t{1} << 14);
  GraphRunOptions conc;
  conc.runners = 2;
  (void)g.run(input, conc);
  tr.stop();
  EXPECT_FALSE(rv.timed_out) << "the second runner never entered a node";

  const std::vector<TraceEvent> events = tr.events();
  ASSERT_FALSE(events.empty());
  expect_balanced(events);
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_GE(tids.size(), 2u) << "expected events from several lanes";

  bool has_runner_lane = false;
  for (const std::string& name : trace_lane_names()) {
    if (name.rfind("graph-runner-", 0) == 0) has_runner_lane = true;
  }
  EXPECT_TRUE(has_runner_lane);
}

// ----------------------------------------------------------------------
// ConvReport
// ----------------------------------------------------------------------

TEST(ConvReportTest, JoinsMeasuredAndPredicted) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const ConvParams p = medium_conv();
  const ConvData d = make_data(p, 14);
  ThreadPool pool(4);

  // Synthetic spec: keeps the test off the host-probing microbenchmarks
  // and makes the prediction deterministic.
  PlatformSpec spec;
  spec.name = "synthetic";
  spec.cores = 4;
  spec.freq_ghz = 2.0;
  spec.peak_gflops = 100.0;
  spec.bandwidth_gibs = 10.0;
  spec.cache.l1d = 32 << 10;
  spec.cache.l2 = 1 << 20;
  spec.cache.l3 = 0;

  TelemetrySnapshot snap;
  NdirectOptions opts;
  opts.pool = &pool;
  opts.threads = 4;
  opts.telemetry = &snap;
  const NdirectConv conv(p, opts);
  (void)conv.run(d.input, d.filter);
  ASSERT_FALSE(snap.empty());

  const ConvReport report = build_conv_report(conv, snap, &spec);
  EXPECT_EQ(report.platform, "synthetic");
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.measured_gflops, 0.0);
  EXPECT_GT(report.predicted_gflops, 0.0);
  EXPECT_GT(report.model_ratio, 0.0);
  EXPECT_DOUBLE_EQ(report.peak_gflops, 100.0);
  EXPECT_GT(report.mapping_fai, 0.0);
  EXPECT_GE(report.best_fai, report.mapping_fai);
  EXPECT_EQ(report.tiles, snap.total(Counter::kTilesClaimed));
  EXPECT_EQ(report.workers.size(), snap.workers.size());
  for (const ConvReport::Worker& w : report.workers) {
    EXPECT_GE(w.busy_fraction, 0.0);
    EXPECT_LE(w.busy_fraction, 1.0);
  }

  const std::string text = report.to_text();
  EXPECT_NE(text.find("ConvReport"), std::string::npos);
  EXPECT_NE(text.find("predicted"), std::string::npos);
  EXPECT_NE(text.find("measured"), std::string::npos);

  const std::string j = report.to_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"measured_gflops\""), std::string::npos);
  EXPECT_NE(j.find("\"predicted_gflops\""), std::string::npos);
  EXPECT_NE(j.find("\"per_worker\""), std::string::npos);
}

TEST(ConvReportTest, JsonRoundTripsHostileStrings) {
  // The platform name comes from the host (/proc/cpuinfo); it and the
  // kernel strings must reach the document escaped, or a quote,
  // backslash or newline in them breaks every consumer of the report.
  if (std::system("python3 -c pass > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "python3 not available";
  ConvReport report;
  report.platform = "vendor \"x\" \\ model\nrev 2";
  report.kernel_class = "generic\t";
  report.kernel_reason = "block \"13x7\"\r\n";
  report.diagnoses.push_back("line one\nline \"two\"\x01");
  const std::string path = testing::TempDir() + "conv_report_escape.json";
  {
    std::ofstream out(path);
    out << report.to_json();
  }
  const std::string cmd =
      "python3 -m json.tool " + path + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "json.tool rejected the ConvReport document: "
      << report.to_json();
}

// ----------------------------------------------------------------------
// Generic-fallback counter (the issue's acceptance invariant)
// ----------------------------------------------------------------------

TEST(EngineTelemetry, ZeroGenericFallbackAcrossTable4) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  // Every Table 4 layer — shrunk to test size but keeping each layer's
  // (R, S, stride, padding) shape — must run entirely on registry
  // kernels: the policy table covers the main block, the W-tail block,
  // and every ragged edge tile, so the generic runtime-loop kernel is
  // never invoked.
  ThreadPool pool(2);
  for (const ConvLayer& layer : table4_layers(1)) {
    ConvParams p = layer.params;
    p.C = std::min(p.C, 32);
    p.K = std::min(p.K, 32);
    p.H = std::min(p.H, 28);
    p.W = std::min(p.W, 28);
    const ConvData d = make_data(p, 77);
    TelemetrySnapshot snap;
    NdirectOptions opts;
    opts.pool = &pool;
    opts.threads = 2;
    opts.telemetry = &snap;
    (void)ndirect_conv(d.input, d.filter, p, opts);
    EXPECT_EQ(snap.total(Counter::kGenericFallback), 0u)
        << "layer " << layer.id << " (" << p.R << "x" << p.S << " str"
        << p.str << ") hit the generic kernel";
  }
}

TEST(EngineTelemetry, ForcedUnregisteredBlockCountsFallbacks) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  // Forcing a block outside the Eq. 3 feasible set drives every tile
  // through the generic path, and the counter must say so.
  const ConvParams p = medium_conv();
  const ConvData d = make_data(p, 78);
  TelemetrySnapshot snap;
  NdirectOptions opts;
  opts.force_rb = {20, 8};  // infeasible: no registry or runtime kernel
  opts.telemetry = &snap;
  (void)ndirect_conv(d.input, d.filter, p, opts);
  EXPECT_GT(snap.total(Counter::kGenericFallback), 0u);
}

// ----------------------------------------------------------------------
// The shared execution core: quantized and depthwise engines
// ----------------------------------------------------------------------

TEST(EngineTelemetry, QuantizedConvOpFillsPerWorkerSnapshot) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  // ConvOp::set_telemetry reaches the int8 engine the same way it
  // reaches the fp32 one: the sink rides the engine options and the
  // execution core fills it with one row per worker.
  const ConvParams p{.N = 2, .C = 8, .H = 14, .W = 14, .K = 12, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  ThreadPool pool(3);
  ConvOp op(p, ConvBackend::Ndirect, 41, /*bias=*/true);
  op.set_pool(&pool);
  op.set_quantized(true);
  TelemetrySnapshot snap;
  op.set_telemetry(&snap);
  const ConvData d = make_data(p, 42);
  (void)op.forward({&d.input});

  const Int8RunStats& st = op.quantized_stats();
  ASSERT_EQ(snap.workers.size(), 3u);
  // One tile per Vw-wide output window (3x3 convs are not flattened).
  const std::uint64_t windows =
      static_cast<std::uint64_t>(p.N) * p.P() * ((p.Q() + st.vw - 1) / st.vw);
  EXPECT_EQ(st.tiles, windows);
  EXPECT_EQ(snap.total(Counter::kTilesClaimed), st.tiles);
  EXPECT_EQ(snap.total(Counter::kGenericFallback), st.generic_fallback);
  EXPECT_GT(snap.phase_seconds(Counter::kMicrokernelNs), 0.0);
  EXPECT_GT(snap.wall_seconds, 0.0);

  // Detaching the sink stops collection; the old snapshot is kept.
  op.set_telemetry(nullptr);
  (void)op.forward({&d.input});
  EXPECT_EQ(snap.total(Counter::kTilesClaimed), st.tiles);
}

TEST(EngineTelemetry, ScalarInt8FallbacksReachTheSink) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  const ConvParams p{.N = 1, .C = 4, .H = 6, .W = 6, .K = 4, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  std::vector<std::uint8_t> in(static_cast<std::size_t>(p.input_elems()),
                               130);
  std::vector<std::int8_t> flt(static_cast<std::size_t>(p.filter_elems()),
                               3);
  std::vector<std::int32_t> out(static_cast<std::size_t>(p.output_elems()));
  TelemetrySnapshot snap;
  Int8ConvOptions opt;
  opt.backend = Int8Backend::kScalar;
  opt.telemetry = &snap;
  Int8RunStats st;
  Int8Output dst;
  dst.i32 = out.data();
  Int8Conv(p, opt).run(in.data(), 128, flt.data(), {}, dst, &st);
  EXPECT_GT(st.generic_fallback, 0u);
  EXPECT_EQ(st.generic_fallback, st.tiles);
  EXPECT_EQ(snap.total(Counter::kGenericFallback), st.generic_fallback);
}

/// Registry total of one re-exported engine counter.
std::uint64_t published(Counter c) {
  return MetricsRegistry::global()
      .counter(std::string("ndirect_engine_") + counter_name(c))
      ->value();
}

TEST(EngineTelemetry, UnobservedRunsTakeTheNoCollectPath) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  // A run with no sink, no PhaseTimer and no trace must not collect:
  // the collecting path always publishes its tile claims to the
  // metrics registry, so an unchanged registry proves it was skipped.
  ASSERT_FALSE(trace_on());
  ThreadPool pool(2);
  const ConvParams p{.N = 1, .C = 8, .H = 10, .W = 10, .K = 8, .R = 3,
                     .S = 3, .str = 1, .pad = 1};
  const ConvData d = make_data(p, 43);
  ConvOp op(p, ConvBackend::Ndirect, 44, /*bias=*/false);
  op.set_pool(&pool);
  op.set_quantized(true);
  const DepthwiseParams dw{.N = 1, .C = 8, .H = 10, .W = 10, .R = 3,
                           .S = 3, .str = 1, .pad = 1};
  Tensor dw_filter = make_filter_kcrs(dw.C, 1, dw.R, dw.S);
  fill_random(dw_filter, 45);

  const std::uint64_t before = published(Counter::kTilesClaimed);
  (void)op.forward({&d.input});
  (void)depthwise_conv_nchw(d.input, dw_filter, dw, &pool);
  EXPECT_EQ(published(Counter::kTilesClaimed), before);

  // The same int8 run with a sink attached does publish its tiles.
  TelemetrySnapshot snap;
  op.set_telemetry(&snap);
  (void)op.forward({&d.input});
  EXPECT_EQ(published(Counter::kTilesClaimed),
            before + op.quantized_stats().tiles);
}

TEST(EngineTelemetry, DepthwiseConvOpFillsPerWorkerSnapshot) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  // DepthwiseConvOp::set_telemetry reaches the depthwise engine the way
  // ConvOp's reaches the fp32 and int8 ones: one tile per (n, c) plane.
  ASSERT_FALSE(trace_on());
  const DepthwiseParams dw{.N = 2, .C = 6, .H = 12, .W = 12, .R = 3,
                           .S = 3, .str = 2, .pad = 1};
  ThreadPool pool(3);
  DepthwiseConvOp op(dw, 48);
  op.set_pool(&pool);
  Tensor in = make_input_nchw(dw.N, dw.C, dw.H, dw.W);
  fill_random(in, 49);
  const auto planes = static_cast<std::uint64_t>(dw.N * dw.C);

  // No sink: the run takes the no-collect path and publishes nothing.
  const std::uint64_t before = published(Counter::kTilesClaimed);
  (void)op.forward({&in});
  EXPECT_EQ(published(Counter::kTilesClaimed), before);

  TelemetrySnapshot snap;
  op.set_telemetry(&snap);
  (void)op.forward({&in});
  ASSERT_EQ(snap.workers.size(), 3u);
  EXPECT_EQ(snap.total(Counter::kTilesClaimed), planes);
  EXPECT_GT(snap.phase_seconds(Counter::kMicrokernelNs), 0.0);
  EXPECT_GT(snap.wall_seconds, 0.0);
  EXPECT_EQ(published(Counter::kTilesClaimed), before + planes);

  // Detaching the sink stops collection; the old snapshot is kept.
  op.set_telemetry(nullptr);
  (void)op.forward({&in});
  EXPECT_EQ(snap.total(Counter::kTilesClaimed), planes);
  EXPECT_EQ(published(Counter::kTilesClaimed), before + planes);
}

TEST(EngineTelemetry, TracedDepthwiseRunEmitsTileSpans) {
  if (!kTelemetryCompiled) GTEST_SKIP() << "telemetry compiled out";
  TraceGuard guard;
  const DepthwiseParams dw{.N = 2, .C = 6, .H = 9, .W = 9, .R = 3, .S = 3,
                           .str = 1, .pad = 1};
  Tensor in = make_input_nchw(dw.N, dw.C, dw.H, dw.W);
  Tensor f = make_filter_kcrs(dw.C, 1, dw.R, dw.S);
  fill_random(in, 46);
  fill_random(f, 47);
  ThreadPool pool(2);
  TraceSession& tr = TraceSession::global();
  tr.start(4096);
  (void)depthwise_conv_nchw(in, f, dw, &pool);
  tr.stop();
  // One run span and one tile span per (n, c) plane.
  int runs = 0, tiles = 0;
  for (const TraceEvent& e : tr.events()) {
    if (std::string(e.name) == "ndirect.run" && e.ph == 'B') ++runs;
    if (std::string(e.name) == "tile") ++tiles;
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(tiles, dw.N * dw.C);
}

}  // namespace
}  // namespace ndirect
