// Sequential vs concurrent graph execution on ResNet-style split
// blocks (the tentpole workload of the scheduler-aware executor).
//
// A projection-shortcut bottleneck forks into two conv branches whose
// FLOPs differ ~4x; at small batch the late-stage shapes (14x14, 7x7)
// cannot fill the machine from one conv, so op-at-a-time execution
// leaves cores idle exactly where the paper's Fig. 7 end-to-end numbers
// hurt most. The concurrent executor runs both branches at once on ONE
// shared pool: each conv seeds a sub-rectangle of the worker grid
// (plan_concurrency) and exposes the rest of the pool as pure stealer
// tasks, so a core that drains one branch's tiles steals the sibling's
// ("idle-core soak", observable as steal events). Outputs are verified
// bitwise-identical before timing.
//
// On single-core hosts the comparison degenerates to executor overhead
// (speedup ~<= 1); the speedup column is meaningful on multi-core
// machines, while steal events and max-inflight prove the mechanism
// works anywhere. Results go to stdout and BENCH_graph.json.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/graph.h"
#include "runtime/thread_pool.h"
#include "runtime/work_queue.h"
#include "tensor/rng.h"

#include "bench_util.h"

using namespace ndirect;
using namespace ndirect::bench;

namespace {

std::unique_ptr<ConvOp> conv(const TensorShape& s, int k, int r, int str,
                             std::uint64_t seed) {
  ConvParams p{.N = s.N, .C = s.C, .H = s.H, .W = s.W, .K = k,
               .R = r, .S = r, .str = str, .pad = r / 2};
  return std::make_unique<ConvOp>(p, ConvBackend::Ndirect, seed,
                                  /*bias=*/false);
}

/// ResNet-50 conv4_x-scale projection bottleneck: main path
/// 1x1 -> 3x3 -> 1x1(4x) against a 1x1 projection shortcut, merged by
/// add + relu. Channels stay at a quick-mode-friendly scale.
std::unique_ptr<Graph> build_split_block(int batch) {
  auto g = std::make_unique<Graph>(batch, 64, 14, 14);
  const TensorShape in = g->shape_of(0);
  const NodeId m1 = g->add(conv(in, 32, 1, 1, 1), {0});
  const NodeId m2 = g->add(conv(g->shape_of(m1), 32, 3, 1, 2), {m1});
  const NodeId m3 = g->add(conv(g->shape_of(m2), 128, 1, 1, 3), {m2});
  const NodeId proj = g->add(conv(in, 128, 1, 1, 4), {0});
  const NodeId sum = g->add(std::make_unique<AddOp>(), {m3, proj});
  g->add(std::make_unique<ReluOp>(), {sum});
  return g;
}

struct Result {
  double seq_gflops = 0;
  double conc_gflops = 0;
  std::uint64_t steals = 0;  ///< steal events during the concurrent runs
  int max_inflight = 0;
  bool identical = false;
  TelemetrySnapshot telemetry;  ///< all convs, one extra untimed run
};

Result run_case(int batch, ThreadPool& pool, const BenchConfig& cfg) {
  auto g = build_split_block(batch);
  g->set_conv_pool(&pool);
  g->plan_concurrency();
  const TensorShape& s = g->shape_of(0);
  Tensor input = make_input_nchw(s.N, s.C, s.H, s.W);
  fill_random(input, 42);
  const double flops = static_cast<double>(g->conv_flops());

  GraphRunOptions seq;
  seq.runners = 1;

  Result r;
  // Identity first: concurrent must be bitwise-equal to sequential.
  const Tensor a = g->run(input, seq);
  const Tensor b = g->run(input, {});
  r.identical = a.size() == b.size() &&
                std::memcmp(a.data(), b.data(),
                            a.size() * sizeof(float)) == 0;

  r.seq_gflops = time_gflops([&] { (void)g->run(input, seq); }, flops,
                             cfg.min_seconds);
  GraphRunStats stats;
  GraphRunOptions conc;
  conc.stats = &stats;
  const std::uint64_t steals0 = scheduler_steal_events();
  r.conc_gflops = time_gflops([&] { (void)g->run(input, conc); }, flops,
                              cfg.min_seconds);
  r.steals = scheduler_steal_events() - steals0;
  r.max_inflight = stats.max_inflight;

  // Telemetry comes from one extra concurrent run after the timed
  // loops: each conv writes its own sink (concurrent branches must not
  // share one), then the per-conv snapshots fold into a single
  // worker-indexed row for the JSON report.
  if (telemetry_enabled()) {
    std::vector<ConvOp*> convs = g->conv_ops();
    std::vector<TelemetrySnapshot> sinks(convs.size());
    for (std::size_t i = 0; i < convs.size(); ++i) {
      convs[i]->set_telemetry(&sinks[i]);
    }
    (void)g->run(input, {});
    for (const TelemetrySnapshot& s : sinks) r.telemetry.merge(s);
    for (ConvOp* c : convs) c->set_telemetry(nullptr);
  }
  return r;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::from_env();
  print_header("Graph executor: sequential vs concurrent split blocks");

  const int hw = static_cast<int>(ThreadPool::global().size());
  // At least 2 workers so branch concurrency and stealing exist even on
  // single-core CI hosts (there the speedup column measures overhead
  // only; steals/inflight still validate the mechanism).
  ThreadPool pool(static_cast<std::size_t>(std::max(2, hw)));

  const std::vector<int> w = {18, 10, 10, 9, 9, 9, 10};
  print_row({"case", "seq", "conc", "speedup", "steals", "inflight",
             "identical"},
            w);
  double best_speedup = 0;
  std::uint64_t best_steals = 0;
  bool all_identical = true;
  std::string rows_json = "[";
  const std::vector<int> batches = {1, 2, 4};
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const int n = batches[i];
    const Result r = run_case(n, pool, cfg);
    const double speedup =
        r.seq_gflops > 0 ? r.conc_gflops / r.seq_gflops : 0;
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_steals = r.steals;
    }
    all_identical = all_identical && r.identical;
    const std::string name = "split-block N=" + std::to_string(n);
    print_row({name, fmt(r.seq_gflops, 2), fmt(r.conc_gflops, 2),
               fmt(speedup, 3), std::to_string(r.steals),
               std::to_string(r.max_inflight),
               r.identical ? "yes" : "NO"},
              w);
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"batch\": %d, \"seq_gflops\": %.3f, "
                  "\"conc_gflops\": %.3f, \"speedup\": %.4f, "
                  "\"steals\": %llu, \"max_inflight\": %d, "
                  "\"identical\": %s",
                  i == 0 ? "" : ", ", n, r.seq_gflops, r.conc_gflops,
                  speedup, static_cast<unsigned long long>(r.steals),
                  r.max_inflight, r.identical ? "true" : "false");
    rows_json += buf;
    if (!r.telemetry.empty())
      rows_json += ", \"telemetry\": " + r.telemetry.to_json();
    rows_json += "}";
  }
  rows_json += "]";

  std::printf(
      "\nspeedup > 1 means concurrent branches win; expect ~1.15x+ at\n"
      "N=1 when cores > 1 (one 14x14 conv cannot fill the machine) and\n"
      "~1.0 on single-core hosts (executor overhead only). steals > 0\n"
      "shows idle cores soaking the sibling branch's tiles.\n");

  JsonReport report("graph");
  report.add("hardware_threads", static_cast<std::uint64_t>(hw));
  report.add("pool_threads",
             static_cast<std::uint64_t>(std::max(2, hw)));
  report.add("best_speedup", best_speedup);
  report.add("best_steals", best_steals);
  report.add("all_identical", std::string(all_identical ? "true" : "false"));
  report.add_raw("cases", rows_json);
  report.write();
  return all_identical ? 0 : 1;
}
