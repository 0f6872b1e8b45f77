// PMU backend (runtime/perf_counters.h): null-backend fallback, delta
// arithmetic, runtime gating, and the engine integration that fills the
// Counter::kPmu* telemetry rows. Hardware-dependent assertions skip
// when perf_event_open is unavailable (non-Linux, perf_event_paranoid,
// seccomp) — the fallback tests run everywhere, which is exactly the
// acceptance contract: binaries behave identically with zeroed fields.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "core/ndirect.h"
#include "platform/workloads.h"
#include "runtime/perf_counters.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

/// Restores the process PMU mode on scope exit so a test that flips it
/// cannot leak into later tests (mirrors telemetry_test's guards).
struct PmuGuard {
  int saved = pmu_mode();
  ~PmuGuard() { set_pmu_mode(saved); }
};

ConvParams small_conv() {
  return {.N = 1, .C = 16, .H = 20, .W = 20, .K = 32, .R = 3, .S = 3,
          .str = 1, .pad = 1};
}

/// Run one conv with a telemetry sink and return the snapshot.
TelemetrySnapshot run_with_telemetry(const ConvParams& p) {
  Tensor input = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor filter = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(input, 11);
  fill_random(filter, 12);
  TelemetrySnapshot snap;
  NdirectOptions opts;
  opts.telemetry = &snap;
  const NdirectConv conv(p, opts);
  (void)conv.run(input, filter);
  return snap;
}

// ----------------------------------------------------------------------
// Null backend / fallback
// ----------------------------------------------------------------------

TEST(PmuNullBackend, UnopenedCountersReadZeroWithoutCrashing) {
  PmuThreadCounters counters;
  EXPECT_FALSE(counters.active());
  for (int i = 0; i < kPmuEventCount; ++i)
    EXPECT_FALSE(counters.event_available(static_cast<PmuEvent>(i)));
  const PmuSample s = counters.read();
  EXPECT_FALSE(s.valid);
  for (int i = 0; i < kPmuEventCount; ++i)
    EXPECT_EQ(s.v[i], 0u);
  counters.close();  // idempotent on a never-opened group
  EXPECT_FALSE(counters.active());
}

TEST(PmuNullBackend, DeltaOfInvalidSamplesIsInvalidAndZero) {
  PmuSample a, b;
  b.valid = true;
  b.v[0] = 100;
  const PmuSample d = pmu_delta(a, b);
  EXPECT_FALSE(d.valid);
  for (int i = 0; i < kPmuEventCount; ++i)
    EXPECT_EQ(d.v[i], 0u);
}

TEST(PmuSampleTest, DeltaSubtractsPerEventAndSaturates) {
  PmuSample a, b;
  a.valid = b.valid = true;
  a.v[0] = 10;
  b.v[0] = 25;
  a.v[1] = 50;
  b.v[1] = 40;  // multiplex-scaled counters can regress
  const PmuSample d = pmu_delta(a, b);
  ASSERT_TRUE(d.valid);
  EXPECT_EQ(d.value(PmuEvent::kCycles), 15u);
  EXPECT_EQ(d.value(PmuEvent::kInstructions), 0u);  // saturated
}

TEST(PmuModeTest, SetClampsAndCompiledOutStaysZero) {
  PmuGuard guard;
  set_pmu_mode(7);
  EXPECT_EQ(pmu_mode(), kPmuCompiled ? 2 : 0);
  set_pmu_mode(-3);
  EXPECT_EQ(pmu_mode(), 0);
  set_pmu_mode(1);
  EXPECT_EQ(pmu_mode(), kPmuCompiled ? 1 : 0);
}

TEST(PmuEventNames, AreStableSnakeCase) {
  EXPECT_STREQ(pmu_event_name(PmuEvent::kCycles), "cycles");
  EXPECT_STREQ(pmu_event_name(PmuEvent::kL1DMisses), "l1d_misses");
  EXPECT_STREQ(pmu_event_name(PmuEvent::kStalledCycles),
               "stalled_cycles");
}

// ----------------------------------------------------------------------
// Hardware sanity (skipped when the host forbids perf_event_open)
// ----------------------------------------------------------------------

TEST(PmuHardware, CountsInstructionsAcrossParallelWork) {
  if (!pmu_available()) GTEST_SKIP() << "perf_event_open unavailable";
  ThreadPool pool(2);
  std::atomic<std::uint64_t> total_instr{0};
  std::atomic<int> active_groups{0};
  std::atomic<int> instr_groups{0};
  pool.run(2, [&](std::size_t) {
    PmuThreadCounters& counters = this_thread_pmu();
    if (!counters.open()) return;
    active_groups.fetch_add(1);
    if (counters.event_available(PmuEvent::kInstructions))
      instr_groups.fetch_add(1);
    const PmuSample t0 = counters.read();
    // Enough user-space work to register (volatile defeats DCE).
    volatile double acc = 0;
    for (int i = 0; i < 100000; ++i) acc = acc + 1.0;
    const PmuSample d = pmu_delta(t0, counters.read());
    EXPECT_TRUE(d.valid);
    EXPECT_GT(d.value(PmuEvent::kCycles), 0u);
    total_instr.fetch_add(d.value(PmuEvent::kInstructions));
  });
  // pmu_available() means groups open; each thread measured its own.
  EXPECT_GT(active_groups.load(), 0);
  if (instr_groups.load() > 0) EXPECT_GT(total_instr.load(), 0u);
}

// ----------------------------------------------------------------------
// Engine integration: the acceptance contract, one ctest case each way
// ----------------------------------------------------------------------

TEST(PmuEngine, DisabledModeYieldsZeroedPmuFields) {
  if (!telemetry_enabled()) GTEST_SKIP() << "telemetry disabled";
  PmuGuard guard;
  set_pmu_mode(0);
  const TelemetrySnapshot snap = run_with_telemetry(small_conv());
  ASSERT_FALSE(snap.empty());
  EXPECT_FALSE(snap.has_pmu());
  EXPECT_EQ(snap.total(Counter::kPmuCycles), 0u);
  EXPECT_EQ(snap.total(Counter::kPmuInstructions), 0u);
  EXPECT_EQ(snap.total(Counter::kPmuL1DMisses), 0u);
  EXPECT_EQ(snap.total(Counter::kPmuLLCMisses), 0u);
  EXPECT_EQ(snap.total(Counter::kPmuStalledCycles), 0u);
  // The non-PMU telemetry is unaffected either way.
  EXPECT_GT(snap.total(Counter::kTilesClaimed), 0u);
}

TEST(PmuEngine, EnabledModeFillsPerTaskDeltas) {
  if (!telemetry_enabled()) GTEST_SKIP() << "telemetry disabled";
  if (!pmu_available()) GTEST_SKIP() << "perf_event_open unavailable";
  PmuGuard guard;
  set_pmu_mode(1);
  const TelemetrySnapshot snap = run_with_telemetry(small_conv());
  ASSERT_FALSE(snap.empty());
  EXPECT_TRUE(snap.has_pmu());
  EXPECT_GT(snap.total(Counter::kPmuCycles), 0u);
  // Mode 1 never attributes phases.
  EXPECT_EQ(snap.total(Counter::kPmuPackL1DMisses), 0u);
  EXPECT_EQ(snap.total(Counter::kPmuMicroL1DMisses), 0u);
}

TEST(PmuEngine, PhaseModeSplitsL1DConservatively) {
  if (!telemetry_enabled()) GTEST_SKIP() << "telemetry disabled";
  if (!pmu_available()) GTEST_SKIP() << "perf_event_open unavailable";
  PmuGuard guard;
  set_pmu_mode(2);
  const TelemetrySnapshot snap = run_with_telemetry(small_conv());
  ASSERT_FALSE(snap.empty());
  EXPECT_TRUE(snap.has_pmu());
  // Per construction pack + micro == the task L1D total (the split is
  // clamped against the same group's task delta), so the totals agree
  // exactly — including the all-zero case where L1D was unavailable.
  EXPECT_EQ(snap.total(Counter::kPmuPackL1DMisses) +
                snap.total(Counter::kPmuMicroL1DMisses),
            snap.total(Counter::kPmuL1DMisses));
}

TEST(PmuSnapshot, MergeConservesPmuCounters) {
  TelemetrySnapshot a, b;
  a.workers.resize(1);
  b.workers.resize(2);
  a.workers[0].v[static_cast<int>(Counter::kPmuCycles)] = 100;
  b.workers[0].v[static_cast<int>(Counter::kPmuCycles)] = 40;
  b.workers[1].v[static_cast<int>(Counter::kPmuCycles)] = 60;
  b.workers[1].v[static_cast<int>(Counter::kPmuLLCMisses)] = 7;
  a.merge(b);
  ASSERT_EQ(a.workers.size(), 2u);
  EXPECT_EQ(a.total(Counter::kPmuCycles), 200u);
  EXPECT_EQ(a.total(Counter::kPmuLLCMisses), 7u);
  EXPECT_TRUE(a.has_pmu());
}

TEST(PmuSnapshot, JsonCarriesPmuCountersAndPerWorkerMisses) {
  TelemetrySnapshot snap;
  snap.workers.resize(1);
  snap.workers[0].v[static_cast<int>(Counter::kPmuL1DMisses)] = 123;
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"pmu_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"pmu_l1d_misses\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"l1d_misses\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"llc_misses\": 0"), std::string::npos);
}

}  // namespace
}  // namespace ndirect
