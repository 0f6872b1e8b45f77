// Metrics-plane tests: histogram bucket math, lock-free instruments,
// registry semantics, OpenMetrics exposition, the exit-hook chain and
// the background exporter (DESIGN.md §16).
//
// Everything here runs against the process-global registry, so each
// test uses metric names prefixed with its own test name — get-or-
// create semantics make cross-test interference a silent corruption
// vector otherwise. The multi-writer tests are in the `threading`
// ctest label and must stay TSan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/shutdown.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"

namespace ndirect {
namespace {

using Layout = HistogramLayout;

// ----------------------------------------------------------------------
// HistogramLayout: bucket boundary math
// ----------------------------------------------------------------------

TEST(HistogramLayoutTest, UnitBucketsBelowSubBucketCount) {
  for (std::uint64_t v = 0; v < Layout::kSubBuckets; ++v) {
    EXPECT_EQ(Layout::bucket_of(v), static_cast<int>(v));
    EXPECT_EQ(Layout::lower_bound(static_cast<int>(v)), v);
    EXPECT_EQ(Layout::upper_bound(static_cast<int>(v)), v);
  }
}

TEST(HistogramLayoutTest, BucketsAreContiguousAndOrdered) {
  // Every bucket's lower bound is exactly the previous bucket's upper
  // bound + 1: no gaps, no overlaps, across the whole range.
  for (int b = 1; b < Layout::kOverflowBucket; ++b) {
    EXPECT_EQ(Layout::lower_bound(b), Layout::upper_bound(b - 1) + 1)
        << "gap/overlap at bucket " << b;
    EXPECT_GE(Layout::upper_bound(b), Layout::lower_bound(b));
  }
}

TEST(HistogramLayoutTest, BoundsRoundTripThroughBucketOf) {
  // bucket_of(lower_bound(b)) == bucket_of(upper_bound(b)) == b, and
  // the values just outside land in the neighbours.
  for (int b = 0; b < Layout::kOverflowBucket; ++b) {
    const std::uint64_t lo = Layout::lower_bound(b);
    const std::uint64_t hi = Layout::upper_bound(b);
    EXPECT_EQ(Layout::bucket_of(lo), b);
    EXPECT_EQ(Layout::bucket_of(hi), b);
    if (lo > 0) {
      EXPECT_EQ(Layout::bucket_of(lo - 1), b - 1);
    }
    EXPECT_EQ(Layout::bucket_of(hi + 1), b + 1);
  }
}

TEST(HistogramLayoutTest, RelativeBucketWidthIsBounded) {
  // Past the unit buckets, width / lower_bound <= 1 / kSubBuckets.
  for (int b = Layout::kSubBuckets + 1; b < Layout::kOverflowBucket;
       ++b) {
    const double lo = static_cast<double>(Layout::lower_bound(b));
    const double width =
        static_cast<double>(Layout::upper_bound(b) -
                            Layout::lower_bound(b) + 1);
    EXPECT_LE(width / lo, 1.0 / Layout::kSubBuckets + 1e-12)
        << "bucket " << b << " too wide";
  }
}

TEST(HistogramLayoutTest, OverflowSaturates) {
  const std::uint64_t top =
      Layout::lower_bound(Layout::kOverflowBucket);
  EXPECT_EQ(Layout::bucket_of(top - 1), Layout::kOverflowBucket - 1);
  EXPECT_EQ(Layout::bucket_of(top), Layout::kOverflowBucket);
  EXPECT_EQ(Layout::bucket_of(~std::uint64_t{0}),
            Layout::kOverflowBucket);
  EXPECT_EQ(Layout::upper_bound(Layout::kOverflowBucket),
            ~std::uint64_t{0});
}

// ----------------------------------------------------------------------
// HistogramCell / HistogramSnapshot
// ----------------------------------------------------------------------

TEST(HistogramCellTest, QuantilesExactToOneBucket) {
  HistogramCell cell;
  for (std::uint64_t v = 1; v <= 1000; ++v) cell.record(v);
  const HistogramSnapshot snap = cell.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500'500u);
  for (const double q : {0.5, 0.95, 0.99}) {
    // The exact rank-th value, same rank definition as quantile().
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * 1000.0 + 0.9999);
    const std::uint64_t exact = rank;  // values are 1..1000
    const std::uint64_t got = snap.quantile(q);
    // Within the one bucket that holds the exact value.
    EXPECT_EQ(got, Layout::upper_bound(Layout::bucket_of(exact)))
        << "q=" << q;
    EXPECT_GE(got, exact);
  }
  EXPECT_EQ(snap.quantile(0.0), Layout::upper_bound(Layout::bucket_of(1)));
  EXPECT_EQ(snap.quantile(1.0),
            Layout::upper_bound(Layout::bucket_of(1000)));
}

TEST(HistogramCellTest, EmptyQuantileIsZero) {
  EXPECT_EQ(HistogramCell().snapshot().quantile(0.5), 0u);
}

TEST(HistogramCellTest, OverflowCountsAreConservedAndQueryable) {
  HistogramCell cell;
  cell.record(1);
  cell.record(~std::uint64_t{0});  // overflow bucket (sum saturates by
                                   // wrapping; count must not)
  const HistogramSnapshot snap = cell.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.counts[Layout::kOverflowBucket], 1u);
  EXPECT_EQ(snap.quantile(1.0), ~std::uint64_t{0});
}

TEST(HistogramCellTest, ConcurrentWritersConserveEveryCount) {
  // 8 writers x 50k records into ONE cell: total count, per-bucket
  // sums and the value sum must all come out exact — the lock-free
  // claim is precisely this conservation.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  HistogramCell cell;
  std::atomic<std::uint64_t> expect_sum{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&cell, &expect_sum, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 7919 + 1);
      std::uint64_t local = 0;
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t v = rng() % 1'000'000;
        cell.record(v);
        local += v;
      }
      expect_sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : writers) w.join();
  const HistogramSnapshot snap = cell.snapshot();
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.sum, expect_sum.load());
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(HistogramSnapshotTest, MergeMatchesSingleWriterGroundTruth) {
  // Per-worker cells merged after the fact == one cell that saw
  // everything: same counts, same sum, same quantiles.
  constexpr int kWorkers = 4;
  HistogramCell all;
  HistogramCell per[kWorkers];
  std::mt19937_64 rng(42);
  for (int i = 0; i < 40'000; ++i) {
    const std::uint64_t v = rng() % 10'000'000;
    all.record(v);
    per[i % kWorkers].record(v);
  }
  HistogramSnapshot merged;
  for (const HistogramCell& c : per) merged.merge(c.snapshot());
  const HistogramSnapshot truth = all.snapshot();
  EXPECT_EQ(merged.count, truth.count);
  EXPECT_EQ(merged.sum, truth.sum);
  for (int b = 0; b < Layout::kBuckets; ++b)
    ASSERT_EQ(merged.counts[b], truth.counts[b]) << "bucket " << b;
  for (const double q : {0.01, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(merged.quantile(q), truth.quantile(q)) << "q=" << q;
}

// ----------------------------------------------------------------------
// MetricsRegistry
// ----------------------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateReturnsStableIdentity) {
  MetricsRegistry reg;
  CounterCell* a = reg.counter("reqs", {{"server", "a"}});
  CounterCell* b = reg.counter("reqs", {{"server", "b"}});
  EXPECT_NE(a, b);  // different label sets = different instruments
  EXPECT_EQ(reg.counter("reqs", {{"server", "a"}}), a);
  EXPECT_EQ(reg.size(), 2u);
  a->inc(3);
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(b->value(), 0u);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry reg;
  (void)reg.counter("thing");
  EXPECT_THROW((void)reg.gauge("thing"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("thing"), std::logic_error);
}

TEST(MetricsRegistryTest, ResetValuesKeepsHandlesValid) {
  MetricsRegistry reg;
  CounterCell* c = reg.counter("c");
  GaugeCell* g = reg.gauge("g");
  HistogramCell* h = reg.histogram("h");
  c->inc(5);
  g->set(-7);
  h->record(123);
  reg.reset_values();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->snapshot().count, 0u);
  EXPECT_EQ(reg.counter("c"), c);  // registration survived
}

// ----------------------------------------------------------------------
// OpenMetrics exposition
// ----------------------------------------------------------------------

TEST(ExpositionTest, FormatLabelsEscapes) {
  EXPECT_EQ(format_labels({}), "");
  EXPECT_EQ(format_labels({{"a", "x"}, {"b", "y"}}),
            "{a=\"x\",b=\"y\"}");
  EXPECT_EQ(format_labels({{"a", "q\"b\\c\nd"}}),
            "{a=\"q\\\"b\\\\c\\nd\"}");
}

TEST(ExpositionTest, TextRendersAllKindsAndTerminates) {
  MetricsRegistry reg;
  reg.counter("hits", {{"server", "a"}}, "hit count")->inc(7);
  reg.counter("hits", {{"server", "b"}})->inc(2);
  reg.gauge("depth", {}, "queue depth")->set(-3);
  HistogramCell* h = reg.histogram("lat_ns", {}, "latency");
  h->record(5);
  h->record(100);
  const std::string text = reg.text();

  // Family block: HELP/TYPE once per name, counters exported with the
  // _total suffix, every label set sampled.
  EXPECT_NE(text.find("# HELP hits hit count"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hits counter"), std::string::npos);
  EXPECT_NE(text.find("hits_total{server=\"a\"} 7"), std::string::npos);
  EXPECT_NE(text.find("hits_total{server=\"b\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth -3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ns histogram"), std::string::npos);
  // Cumulative buckets: the le="+Inf" bucket equals _count.
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum 105"), std::string::npos);
  // Required terminator, exactly at the end.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(ExpositionTest, HistogramBucketsAreCumulativeNonDecreasing) {
  MetricsRegistry reg;
  HistogramCell* h = reg.histogram("d_ns");
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) h->record(rng() % 100'000);
  const std::string text = reg.text();
  std::istringstream in(text);
  std::string line;
  double prev = -1.0;
  int buckets = 0;
  while (std::getline(in, line)) {
    if (line.rfind("d_ns_bucket{", 0) != 0) continue;
    const double v = std::stod(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(v, prev) << "cumulative bucket series decreased: " << line;
    prev = v;
    ++buckets;
  }
  EXPECT_GT(buckets, 1);
  EXPECT_EQ(prev, 1000.0);  // +Inf bucket == count
}

// ----------------------------------------------------------------------
// Exit-hook chain (runtime/shutdown.h)
// ----------------------------------------------------------------------

TEST(ExitHooksTest, RunLifoAndOnlyOnce) {
  std::vector<int> order;
  const std::uint64_t t1 =
      register_exit_hook("one", [&order] { order.push_back(1); });
  const std::uint64_t t2 =
      register_exit_hook("two", [&order] { order.push_back(2); });
  run_exit_hooks();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));  // LIFO
  run_exit_hooks();                            // idempotent
  EXPECT_EQ(order.size(), 2u);
  unregister_exit_hook(t1);  // already-run tokens: no-op
  unregister_exit_hook(t2);
}

TEST(ExitHooksTest, UnregisteredHookNeverRuns) {
  bool ran = false;
  const std::uint64_t t =
      register_exit_hook("gone", [&ran] { ran = true; });
  unregister_exit_hook(t);
  run_exit_hooks();
  EXPECT_FALSE(ran);
}

TEST(ExitHooksTest, HooksRegisteredDuringRunStillExecute) {
  // A hook that registers another hook must not deadlock the chain,
  // and the new hook still runs in the same pass (the chain drains
  // until empty — nothing registered at exit time is silently lost).
  bool inner = false;
  register_exit_hook("outer", [&inner] {
    register_exit_hook("inner", [&inner] { inner = true; });
  });
  run_exit_hooks();
  EXPECT_TRUE(inner);
}

// ----------------------------------------------------------------------
// MetricsExporter
// ----------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(MetricsExporterTest, DumpNowWritesTheGlobalExposition) {
  MetricsRegistry::global()
      .counter("metrics_test_dump_marker")
      ->inc(41);
  const std::string path =
      testing::TempDir() + "metrics_test_dump.prom";
  MetricsExporter& exp = MetricsExporter::global();
  exp.start(path, /*interval_ms=*/3'600'000);  // no periodic firing
  ASSERT_TRUE(exp.running());
  const std::uint64_t before = exp.dump_count();
  ASSERT_TRUE(exp.dump_now());
  EXPECT_GT(exp.dump_count(), before);
  const std::string text = read_file(path);
  EXPECT_NE(text.find("metrics_test_dump_marker_total 41"),
            std::string::npos);
  EXPECT_NE(text.find("# EOF"), std::string::npos);
  exp.stop();
  EXPECT_FALSE(exp.running());
  exp.stop();  // idempotent
}

TEST(MetricsExporterTest, FlightRecordExportsTraceRingToo) {
  const std::string path =
      testing::TempDir() + "metrics_test_flight.prom";
  std::remove((path + ".trace.json").c_str());
  MetricsExporter& exp = MetricsExporter::global();
  exp.start(path, /*interval_ms=*/3'600'000);
  TraceSession& ts = TraceSession::global();
  ts.start(1024);
  ts.instant("metrics_test_flight_marker");
  exp.flight_record();
  ts.clear();
  exp.stop();
  EXPECT_NE(read_file(path).find("# EOF"), std::string::npos);
  // Tracing compiled out: the metrics dump still lands, but an empty
  // ring writes no trace file beside it.
  EXPECT_EQ(std::ifstream(path + ".trace.json").good(), kTelemetryCompiled);
  const std::string trace = read_file(path + ".trace.json");
  EXPECT_EQ(trace.find("metrics_test_flight_marker") != std::string::npos,
            kTelemetryCompiled);
  std::remove((path + ".trace.json").c_str());
}

// ----------------------------------------------------------------------
// Engine telemetry re-export
// ----------------------------------------------------------------------

TEST(PublishMetricsTest, SnapshotTotalsLandInRegistryCounters) {
  TelemetrySnapshot snap;
  snap.workers.resize(2);
  snap.workers[0].v[static_cast<int>(Counter::kTilesClaimed)] = 3;
  snap.workers[1].v[static_cast<int>(Counter::kTilesClaimed)] = 4;
  CounterCell* cell = MetricsRegistry::global().counter(
      "ndirect_engine_tiles_claimed");
  const std::uint64_t before = cell->value();
  snap.publish_metrics();
  EXPECT_EQ(cell->value(), before + 7);
  snap.publish_metrics();  // deltas add, they do not overwrite
  EXPECT_EQ(cell->value(), before + 14);
  TelemetrySnapshot empty;
  empty.publish_metrics();  // no workers: no-op, no crash
  EXPECT_EQ(cell->value(), before + 14);
}

}  // namespace
}  // namespace ndirect
