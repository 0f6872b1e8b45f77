// The benchmark's workloads. Each fills a RunResult: the gated metrics,
// numbers reported beside them, the correctness tally and the thread
// stamp.
//
//   resnet50_fp32   ResNet-50, 224x224, batch 1, fp32 after BN fold and
//                   conv+ReLU fusion; one caller, closed loop.
//   mobilenet_int8  MobileNetV1, 224x224, batch 1, every conv int8;
//                   one caller, closed loop.
//   serve_small     serve::Server (max_batch 8, one lane) serving
//                   ResNet-50 at channels/8 and 64x64, fed open-loop
//                   Poisson arrivals at a fixed rate.
//
// run_traced() is the separate per-layer run: it replays both offline
// graphs node by node and traces the served requests, whatever the
// workload, so every per-layer metric is measured in every traced run.
#pragma once

#include <string>

#include "bench.h"

namespace perfbench {

struct RunResult {
  Metrics metrics;  ///< what the run is judged on
  Metrics extra;    ///< reported beside the run, not gated
  Checks checks;
  ThreadStamp stamp;
};

bool known_workload(const std::string& workload);

/// Threads that drive load besides the pool workers: the closed-loop
/// caller (1), or the open-loop generator plus one executor lane (2).
int load_threads_for(const std::string& workload);

void run_offline(const RunConfig& cfg, RunResult& out);
void run_serve(const RunConfig& cfg, RunResult& out);
void run_traced(const RunConfig& cfg, RunResult& out);

}  // namespace perfbench
