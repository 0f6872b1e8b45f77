#include "runtime/telemetry.h"

#include <cstdio>
#include <mutex>

#include "runtime/env.h"
#include "runtime/json.h"
#include "runtime/metrics.h"

namespace ndirect {
namespace {

std::atomic<bool> g_enabled{
    kTelemetryCompiled && env_flag("NDIRECT_TELEMETRY", true)};

constexpr Counter kPhaseCounters[] = {Counter::kPackNs, Counter::kTransformNs,
                                      Counter::kMicrokernelNs,
                                      Counter::kEpilogueNs};

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

}  // namespace

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kTilesClaimed: return "tiles_claimed";
    case Counter::kLocalSteals: return "local_steals";
    case Counter::kNeighbourSteals: return "neighbour_steals";
    case Counter::kGlobalSteals: return "global_steals";
    case Counter::kPackNs: return "pack_ns";
    case Counter::kTransformNs: return "transform_ns";
    case Counter::kMicrokernelNs: return "microkernel_ns";
    case Counter::kEpilogueNs: return "epilogue_ns";
    case Counter::kGenericFallback: return "generic_fallback";
    case Counter::kPmuCycles: return "pmu_cycles";
    case Counter::kPmuInstructions: return "pmu_instructions";
    case Counter::kPmuL1DMisses: return "pmu_l1d_misses";
    case Counter::kPmuLLCMisses: return "pmu_llc_misses";
    case Counter::kPmuStalledCycles: return "pmu_stalled_cycles";
    case Counter::kPmuPackL1DMisses: return "pmu_pack_l1d_misses";
    case Counter::kPmuMicroL1DMisses: return "pmu_micro_l1d_misses";
  }
  return "unknown";
}

bool telemetry_enabled() {
  return kTelemetryCompiled && g_enabled.load(std::memory_order_relaxed);
}

void set_telemetry_enabled(bool on) {
  g_enabled.store(kTelemetryCompiled && on, std::memory_order_relaxed);
}

double TelemetrySnapshot::Worker::busy_seconds() const {
  std::uint64_t ns = 0;
  for (Counter c : kPhaseCounters) ns += value(c);
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t TelemetrySnapshot::total(Counter c) const {
  std::uint64_t t = 0;
  for (const Worker& w : workers) t += w.value(c);
  return t;
}

double TelemetrySnapshot::phase_seconds(Counter c) const {
  return static_cast<double>(total(c)) * 1e-9;
}

double TelemetrySnapshot::phase_fraction(Counter c) const {
  std::uint64_t all = 0;
  for (Counter pc : kPhaseCounters) all += total(pc);
  return all > 0 ? static_cast<double>(total(c)) /
                       static_cast<double>(all)
                 : 0.0;
}

double TelemetrySnapshot::busy_fraction(int worker) const {
  if (worker < 0 ||
      static_cast<std::size_t>(worker) >= workers.size() ||
      wall_seconds <= 0)
    return 0.0;
  const double f =
      workers[static_cast<std::size_t>(worker)].busy_seconds() /
      wall_seconds;
  return f > 1.0 ? 1.0 : f;
}

void TelemetrySnapshot::merge(const TelemetrySnapshot& other) {
  if (other.workers.size() > workers.size())
    workers.resize(other.workers.size());
  for (std::size_t w = 0; w < other.workers.size(); ++w)
    for (int c = 0; c < kCounterCount; ++c)
      workers[w].v[c] += other.workers[w].v[c];
  wall_seconds += other.wall_seconds;
}

std::string TelemetrySnapshot::to_json() const {
  std::string s = "{\"workers\": " + std::to_string(workers.size()) +
                  ", \"wall_seconds\": " + fmt_double(wall_seconds) +
                  ", \"counters\": {";
  for (int c = 0; c < kCounterCount; ++c) {
    if (c > 0) s += ", ";
    s += json_string(counter_name(static_cast<Counter>(c))) + ": " +
         std::to_string(total(static_cast<Counter>(c)));
  }
  s += "}, \"phase_fractions\": {";
  bool first = true;
  for (Counter pc : kPhaseCounters) {
    if (!first) s += ", ";
    first = false;
    s += json_string(counter_name(pc)) + ": " +
         fmt_double(phase_fraction(pc));
  }
  s += "}, \"busy_fraction\": {";
  double mn = 1.0, mx = 0.0, sum = 0.0;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const double f = busy_fraction(static_cast<int>(w));
    mn = f < mn ? f : mn;
    mx = f > mx ? f : mx;
    sum += f;
  }
  if (workers.empty()) mn = 0.0;
  s += "\"min\": " + fmt_double(mn) + ", \"max\": " + fmt_double(mx) +
       ", \"mean\": " +
       fmt_double(workers.empty() ? 0.0
                                  : sum / static_cast<double>(
                                              workers.size()));
  s += "}, \"per_worker\": [";
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (w > 0) s += ", ";
    s += "{\"tiles\": " +
         std::to_string(workers[w].value(Counter::kTilesClaimed)) +
         ", \"steals\": " + std::to_string(workers[w].steals()) +
         ", \"busy\": " + fmt_double(workers[w].busy_seconds()) +
         ", \"l1d_misses\": " +
         std::to_string(workers[w].value(Counter::kPmuL1DMisses)) +
         ", \"llc_misses\": " +
         std::to_string(workers[w].value(Counter::kPmuLLCMisses)) + "}";
  }
  s += "]}";
  return s;
}

void TelemetrySnapshot::publish_metrics() const {
  if (workers.empty()) return;
  // One registry counter per engine counter, resolved once per
  // process (the handles are stable for the registry's lifetime) and
  // then bumped with relaxed adds — safe from any thread.
  static CounterCell* cells[kCounterCount];
  static std::once_flag once;
  std::call_once(once, [] {
    MetricsRegistry& reg = MetricsRegistry::global();
    for (int c = 0; c < kCounterCount; ++c) {
      cells[c] = reg.counter(
          std::string("ndirect_engine_") +
              counter_name(static_cast<Counter>(c)),
          {}, "engine telemetry counter re-exported per conv run");
    }
  });
  for (int c = 0; c < kCounterCount; ++c) {
    const std::uint64_t v = total(static_cast<Counter>(c));
    if (v > 0) cells[c]->inc(v);
  }
}

WorkerTelemetry::WorkerTelemetry(int workers)
    : slots_(static_cast<std::size_t>(
          !kTelemetryCompiled || workers < 0 ? 0 : workers)) {}

std::uint64_t WorkerTelemetry::value(int worker, Counter c) const {
  if (worker < 0 || static_cast<std::size_t>(worker) >= slots_.size())
    return 0;
  return slots_[static_cast<std::size_t>(worker)]
      .v[static_cast<int>(c)]
      .load(std::memory_order_relaxed);
}

std::uint64_t WorkerTelemetry::total(Counter c) const {
  std::uint64_t t = 0;
  for (const Slot& s : slots_)
    t += s.v[static_cast<int>(c)].load(std::memory_order_relaxed);
  return t;
}

void WorkerTelemetry::reset() {
  for (Slot& s : slots_)
    for (auto& a : s.v) a.store(0, std::memory_order_relaxed);
}

TelemetrySnapshot WorkerTelemetry::snapshot(double wall_seconds) const {
  TelemetrySnapshot snap;
  snap.wall_seconds = wall_seconds;
  snap.workers.resize(slots_.size());
  for (std::size_t w = 0; w < slots_.size(); ++w)
    for (int c = 0; c < kCounterCount; ++c)
      snap.workers[w].v[c] =
          slots_[w].v[c].load(std::memory_order_relaxed);
  return snap;
}

}  // namespace ndirect
