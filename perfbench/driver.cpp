// Benchmark driver: runs one workload and prints one JSON line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--trace-out <path>]
//
// The line carries the correctness tally, the thread stamp, the gated
// metrics (end-to-end, or per-layer when --trace 1) and the numbers
// reported beside them. run.py builds this program, runs it and turns
// the line into the benchmark's result.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "runtime/cpu_info.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <resnet50_fp32|"
               "mobilenet_int8|serve_small> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n");
}

bool parse(int argc, char** argv, perfbench::RunConfig& cfg) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        cfg.workload = val;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (key == "--trace") {
        cfg.trace = val == "1";
      } else if (key == "--trace-out") {
        cfg.trace_path = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && perfbench::known_workload(cfg.workload) &&
         cfg.seconds > 0 && (!cfg.trace || !cfg.trace_path.empty());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  if (!parse(argc, argv, cfg)) {
    usage();
    return 2;
  }

  // Size the process-wide pool before anything touches it: half the
  // host's cores, caller or executor lane included. On a shared virtual
  // host, a forward that needs every vCPU stalls whenever the hypervisor
  // deschedules one of them, and run-to-run spread grows from a few
  // percent to tens of percent.
  perfbench::RunResult r;
  r.stamp.nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  r.stamp.load_threads = perfbench::load_threads_for(cfg.workload);
  const int pool = std::max(1, r.stamp.nproc / 2);
  setenv("NDIRECT_THREADS", std::to_string(pool).c_str(), 1);
  r.stamp.pool_threads =
      static_cast<int>(ndirect::ThreadPool::global().size());

  try {
    if (cfg.trace) {
      perfbench::run_traced(cfg, r);
    } else if (cfg.workload == "serve_small") {
      perfbench::run_serve(cfg, r);
    } else {
      perfbench::run_offline(cfg, r);
    }
  } catch (const std::exception& e) {
    r.checks.fail(std::string("workload aborted: ") + e.what());
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < r.checks.errors.size(); ++i) {
    errors += (i ? ", " : "") + perfbench::json_quote(r.checks.errors[i]);
  }
  errors += "]";
  const perfbench::ThreadStamp& t = r.stamp;
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"errors\": %s, \"stamp\": {\"cpu_model\": %s, \"nproc\": %d, "
      "\"pool_threads\": %d, \"load_threads\": %d, \"graph_runners\": %d, "
      "\"threads\": %d, \"oversubscribed\": %s}, "
      "\"metrics\": %s, \"extra\": %s}\n",
      perfbench::json_quote(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
      r.checks.failed == 0 && r.checks.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(r.checks.attempted),
      static_cast<unsigned long long>(r.checks.failed), errors.c_str(),
      perfbench::json_quote(ndirect::probe_host_cpu().name).c_str(), t.nproc,
      t.pool_threads, t.load_threads, t.graph_runners, t.threads(),
      t.oversubscribed() ? "true" : "false", r.metrics.json().c_str(),
      r.extra.json().c_str());
  return 0;
}
