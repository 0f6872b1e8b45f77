// Static vs work-stealing schedule on the PTn x PTk grid.
//
// The paper's Eq. 5/6 mapping is static: each thread owns one slice of
// the (row, K-block) space, so wall time is the slowest slice. That is
// optimal when slices are even and cores are equal, and pessimal when
// either fails:
//
//   1. skewed layers — ResNet-50 conv5_x at batch 1 has 7 output rows,
//      so a PTn > 1 grid hands some threads one row chunk and others
//      two (a 2x imbalance baked in at plan time),
//   2. non-divisor thread counts — 7 threads force a degenerate 1x7 or
//      7x1 static grid, while the stealing scheduler seeds the best
//      partial grid (e.g. 3x2) and lets the remainder steal,
//   3. unequal cores (big.LITTLE, co-tenants) — not reproducible here,
//      but the same mechanism covers it.
//
// Each case runs both schedules on the same pool and tensors; stealing
// also reports its steal count and per-worker tile imbalance from
// SchedulerStats. Results go to stdout and BENCH_scheduler.json.
// Single-core hosts still run everything (the comparison degenerates to
// scheduler-overhead-only, which is itself worth tracking).
#include <cstdio>
#include <string>
#include <vector>

#include "core/ndirect.h"
#include "core/report.h"
#include "platform/workloads.h"
#include "runtime/thread_pool.h"
#include "tensor/rng.h"

#include "bench_util.h"

using namespace ndirect;
using namespace ndirect::bench;

namespace {

struct Case {
  std::string name;
  ConvParams params;
  int threads;  ///< worker count for both schedules
};

struct Result {
  double static_gflops = 0;
  double steal_gflops = 0;
  SchedulerStats stats{};        ///< from the stealing run
  TelemetrySnapshot telemetry;   ///< from one extra untimed stealing run
  std::string report_text;       ///< ConvReport for that run
  double alpha = 0;              ///< plan's pack/compute cost ratio
  int ptn = 0, ptk = 0;          ///< the solved stealing-grid split
};

Result run_case(const Case& c, ThreadPool& pool, const BenchConfig& cfg) {
  Tensor input = make_input_nchw(c.params.N, c.params.C, c.params.H,
                                 c.params.W);
  Tensor filter = make_filter_kcrs(c.params.K, c.params.C, c.params.R,
                                   c.params.S);
  fill_random(input, 5);
  fill_random(filter, 6);
  const double flops = static_cast<double>(c.params.flops());

  Result r;
  NdirectOptions stat;
  stat.pool = &pool;
  stat.threads = c.threads;
  stat.schedule = SchedulePolicy::kStatic;
  const NdirectConv sconv(c.params, stat);
  r.static_gflops = time_gflops([&] { (void)sconv.run(input, filter); },
                                flops, cfg.min_seconds);

  NdirectOptions steal = stat;
  steal.schedule = SchedulePolicy::kStealing;
  steal.sched_stats = &r.stats;
  const NdirectConv wconv(c.params, steal);
  r.steal_gflops = time_gflops([&] { (void)wconv.run(input, filter); },
                               flops, cfg.min_seconds);
  r.alpha = wconv.plan().alpha;
  r.ptn = wconv.plan().mapping.ptn;
  r.ptk = wconv.plan().mapping.ptk;

  // Telemetry is collected in one extra run OUTSIDE the timed loops so
  // the GFLOPS columns measure the same code the ≤1%-overhead claim is
  // made about.
  if (telemetry_enabled()) {
    NdirectOptions tele = steal;
    tele.sched_stats = nullptr;
    tele.telemetry = &r.telemetry;
    const NdirectConv tconv(c.params, tele);
    (void)tconv.run(input, filter);
    r.report_text = build_conv_report(tconv, r.telemetry).to_text();
  }
  return r;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  print_header("Scheduler: static slice vs locality-aware stealing");

  const int hw = static_cast<int>(ThreadPool::global().size());
  // A divisor-friendly count for the balanced case, a prime count for
  // the non-divisor case; both capped so oversubscription stays mild on
  // small hosts.
  const int even_threads = std::max(4, hw - hw % 4);
  const int prime_threads = 7;
  ThreadPool pool(static_cast<std::size_t>(
      std::max(even_threads, prime_threads)));

  std::vector<Case> cases;
  // Balanced reference: conv3_x-scale layer, rows and K divide evenly
  // (batch fixed at 4 regardless of quick-mode scaling so the row space
  // actually covers the grid).
  ConvParams balanced = scale_layer(table4_layer(9, 4).params, cfg);
  balanced.N = 4;
  cases.push_back({"balanced conv3_x N=4", balanced, even_threads});
  // Skew 1: conv5_x at batch 1 — 7 output rows against a PTn > 1 grid.
  cases.push_back({"skewed conv5_x N=1", table4_layer(21, 1).params,
                   even_threads});
  // Skew 2: ragged K tail — K = 84 splits unevenly over 8 K-groups.
  cases.push_back(
      {"ragged-K 28x28 K=84",
       {.N = 1, .C = 64, .H = 28, .W = 28, .K = 84, .R = 3, .S = 3,
        .str = 1, .pad = 1},
       even_threads});
  // Non-divisor: 7 threads; static is stuck with 1x7 / 7x1.
  cases.push_back({"non-divisor 7T conv4_x N=1",
                   table4_layer(16, 1).params, prime_threads});

  const std::vector<int> w = {28, 10, 10, 9, 8, 11};
  print_row({"case", "static", "steal", "ratio", "steals", "imbalance"},
            w);
  std::string rows_json = "[";
  std::string skew_report;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const Result r = run_case(c, pool, cfg);
    const double ratio =
        r.static_gflops > 0 ? r.steal_gflops / r.static_gflops : 0;
    const std::uint64_t imbalance =
        r.stats.max_worker_tiles - r.stats.min_worker_tiles;
    print_row({c.name, fmt(r.static_gflops, 2), fmt(r.steal_gflops, 2),
               fmt(ratio, 3), std::to_string(r.stats.steals),
               std::to_string(imbalance)},
              w);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"case\": \"%s\", \"threads\": %d, \"oversubscribed\": %s, "
        "\"static_gflops\": %.3f, \"stealing_gflops\": %.3f, "
        "\"ratio\": %.4f, \"tiles\": %llu, \"steals\": %llu, "
        "\"imbalance\": %llu, \"alpha\": %.3f, \"ptn\": %d, "
        "\"ptk\": %d",
        i == 0 ? "" : ", ", c.name.c_str(), c.threads,
        c.threads > hw ? "true" : "false", r.static_gflops,
        r.steal_gflops, ratio,
        static_cast<unsigned long long>(r.stats.tiles),
        static_cast<unsigned long long>(r.stats.steals),
        static_cast<unsigned long long>(imbalance), r.alpha, r.ptn,
        r.ptk);
    rows_json += buf;
    if (!r.telemetry.empty())
      rows_json += ", \"telemetry\": " + r.telemetry.to_json();
    rows_json += "}";
    // Full predicted-vs-measured report for the case the scheduler
    // exists for: the skewed layer where the static split idles.
    if (c.name.rfind("skewed", 0) == 0 && !r.report_text.empty())
      skew_report = r.report_text;
  }
  rows_json += "]";
  if (!skew_report.empty()) std::printf("\n%s", skew_report.c_str());

  std::printf(
      "\nratio > 1 means stealing wins; expected ~1.0 on the balanced\n"
      "case (seed assignment identical, claim overhead only) and > 1 on\n"
      "the skewed/non-divisor cases when cores > 1.\n");

  JsonReport report("scheduler");
  report.add("hardware_threads", static_cast<std::uint64_t>(hw));
  report.add_raw("cases", rows_json);
  report.write();
  return 0;
}
