#include "core/report.h"

#include <algorithm>
#include <cstdio>

#include "core/microkernel.h"
#include "core/threading.h"
#include "runtime/json.h"

namespace ndirect {
namespace {

std::string fmt1(double v, const char* spec = "%.1f") {
  char buf[48];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

std::string fmt_json(double v) { return fmt1(v, "%.9g"); }

}  // namespace

ConvReport build_conv_report(const NdirectConv& conv,
                             const TelemetrySnapshot& telemetry,
                             const PlatformSpec* spec, ConvDtype dtype) {
  const PlatformSpec& plat = spec != nullptr ? *spec : host_platform();
  const NdirectPlan& plan = conv.plan();
  const ConvParams& p = conv.params();
  const ConvParams& exec = conv.exec_params();
  const int threads = plan.mapping.total() + plan.stealers;

  ConvReport r;
  r.platform = plat.name;
  r.params = p;
  r.mapping = plan.mapping;
  r.stealers = plan.stealers;
  r.alpha = plan.alpha;

  r.dtype = dtype;
  const PerfEstimate est =
      estimate_conv_perf(plat, p, ConvMethod::Ndirect, threads, dtype);
  r.predicted_gflops = est.gflops;
  r.peak_gflops = plat.peak_gflops;
  r.roofline_compute = est.compute_bound;
  r.roofline_memory = est.memory_bound;
  r.predicted_ai = est.ai;

  r.wall_seconds = telemetry.wall_seconds;
  if (r.wall_seconds > 0) {
    r.measured_gflops =
        static_cast<double>(p.flops()) / r.wall_seconds * 1e-9;
    if (r.predicted_gflops > 0)
      r.model_ratio = r.measured_gflops / r.predicted_gflops;
  }

  // Eq. 5/6 on the executed (row-flattened) problem — the shape the
  // planner actually solved the grid for.
  r.mapping_fai = thread_fai(exec, plan.alpha, plan.mapping.ptn);
  r.ptn_star = ptn_continuous(exec, plan.alpha);
  for (int ptn = 1; ptn <= std::max(1, threads); ++ptn)
    r.best_fai = std::max(r.best_fai, thread_fai(exec, plan.alpha, ptn));

  // Kernel resolution: mirror the engine's once-per-conv resolve (same
  // stride compaction rule) so the report names the class the tiles
  // actually dispatched to.
  const int kstr = exec.S == 1 && exec.str > 1 ? 1 : exec.str;
  if (conv.options().generic_kernel_only) {
    r.kernel_class = "generic (forced)";
    r.kernel_reason = "NdirectOptions::generic_kernel_only";
  } else {
    const KernelResolution kres =
        resolve_kernel(plan.rb.vw, plan.rb.vk, exec.S, kstr);
    r.kernel_class = kernel_class_name(kres.cls);
    r.kernel_reason = kres.reason;
  }
  r.generic_fallback = telemetry.total(Counter::kGenericFallback);
  r.kernel_lanes = kKernelLanes;

  r.tiles = telemetry.total(Counter::kTilesClaimed);
  r.local_steals = telemetry.total(Counter::kLocalSteals);
  r.neighbour_steals = telemetry.total(Counter::kNeighbourSteals);
  r.global_steals = telemetry.total(Counter::kGlobalSteals);
  r.steals = r.local_steals + r.neighbour_steals + r.global_steals;

  r.has_pmu = telemetry.has_pmu();
  if (r.has_pmu) {
    r.pmu_cycles = telemetry.total(Counter::kPmuCycles);
    r.pmu_instructions = telemetry.total(Counter::kPmuInstructions);
    r.l1d_misses = telemetry.total(Counter::kPmuL1DMisses);
    r.llc_misses = telemetry.total(Counter::kPmuLLCMisses);
    r.stalled_cycles = telemetry.total(Counter::kPmuStalledCycles);
    r.pack_l1d_misses = telemetry.total(Counter::kPmuPackL1DMisses);
    r.micro_l1d_misses = telemetry.total(Counter::kPmuMicroL1DMisses);
    if (r.pmu_cycles > 0) {
      r.ipc = static_cast<double>(r.pmu_instructions) /
              static_cast<double>(r.pmu_cycles);
      r.stall_fraction = static_cast<double>(r.stalled_cycles) /
                         static_cast<double>(r.pmu_cycles);
    }
    if (r.pmu_instructions > 0)
      r.l1d_mpki = 1000.0 * static_cast<double>(r.l1d_misses) /
                   static_cast<double>(r.pmu_instructions);
    // Each LLC miss moves one cache line from DRAM; flops over that
    // byte count is the run's measured arithmetic intensity.
    if (r.llc_misses > 0)
      r.measured_ai = static_cast<double>(p.flops()) /
                      (static_cast<double>(r.llc_misses) * 64.0);
  }

  r.busy_min = telemetry.workers.empty() ? 0.0 : 1.0;
  double busy_sum = 0;
  for (std::size_t w = 0; w < telemetry.workers.size(); ++w) {
    const TelemetrySnapshot::Worker& tw = telemetry.workers[w];
    ConvReport::Worker row;
    row.id = static_cast<int>(w);
    row.tiles = tw.value(Counter::kTilesClaimed);
    row.steals = tw.steals();
    row.busy_seconds = tw.busy_seconds();
    row.busy_fraction = telemetry.busy_fraction(static_cast<int>(w));
    row.l1d_misses = tw.value(Counter::kPmuL1DMisses);
    row.llc_misses = tw.value(Counter::kPmuLLCMisses);
    r.busy_min = std::min(r.busy_min, row.busy_fraction);
    r.busy_max = std::max(r.busy_max, row.busy_fraction);
    busy_sum += row.busy_fraction;
    r.workers.push_back(row);
  }
  if (!r.workers.empty())
    r.busy_mean = busy_sum / static_cast<double>(r.workers.size());

  // Diagnoses: the mismatches a reader would otherwise dig out of the
  // raw numbers.
  for (const ConvReport::Worker& w : r.workers) {
    if (r.busy_max > 0.2 && w.busy_fraction < 0.5 * r.busy_max) {
      r.diagnoses.push_back(
          "worker " + std::to_string(w.id) + " starves (busy " +
          fmt1(100 * w.busy_fraction) + "% vs max " +
          fmt1(100 * r.busy_max) +
          "%): its grid lane ran out of tiles; finer sched_row_chunk "
          "or a different PTn x PTk split would feed it");
    }
  }
  if (r.tiles > 0 && r.steals * 4 > r.tiles) {
    r.diagnoses.push_back(
        "steal rate " + fmt1(100.0 * static_cast<double>(r.steals) /
                             static_cast<double>(r.tiles)) +
        "% of tiles: the seed slices are ragged for this shape; the "
        "static Eq. 5/6 split would have idled here");
  }
  if (r.generic_fallback > 0) {
    r.diagnoses.push_back(
        std::to_string(r.generic_fallback) +
        " micro-kernel calls fell back to the generic runtime-loop "
        "kernel (" + r.kernel_reason +
        "): those tiles pay runtime loops and scalar stores — add the "
        "block to the policy registry (core/microkernel_generator.h)");
  }
  if (r.model_ratio > 0 && r.model_ratio < 0.5) {
    r.diagnoses.push_back(
        "measured is " + fmt1(r.model_ratio, "%.2f") +
        "x the model prediction: the machine is not delivering the "
        "spec'd roofline (co-tenants, thermal limits, or a stale "
        "platform spec)");
  }
  if (r.mapping_fai > 0 && r.best_fai > r.mapping_fai * 1.25) {
    r.diagnoses.push_back(
        "planned PTn=" + std::to_string(r.mapping.ptn) + " has FAI " +
        fmt1(r.mapping_fai) + " but PTn near " + fmt1(r.ptn_star) +
        " would reach " + fmt1(r.best_fai) +
        ": the divisor constraint cost this shape; the stealing "
        "schedule's partial grids can close the gap");
  }

  // Measured-vs-model diagnoses, only when hardware counters ran.
  if (r.has_pmu) {
    if (r.measured_ai > 0 && r.predicted_ai > 0 &&
        r.measured_ai < 0.5 * r.predicted_ai) {
      r.diagnoses.push_back(
          "measured arithmetic intensity " + fmt1(r.measured_ai, "%.2f") +
          " flops/B is under half the model's " +
          fmt1(r.predicted_ai, "%.2f") + ": the run moved ~" +
          fmt1(r.predicted_ai / r.measured_ai) +
          "x the essential DRAM traffic — the Tc x Th working set "
          "likely overflows this host's cache (re-solve the tiling "
          "against a measured CacheInfo)");
    }
    if (r.stall_fraction > 0.4 && r.roofline_compute <= r.roofline_memory) {
      r.diagnoses.push_back(
          "backend stalled " + fmt1(100 * r.stall_fraction) +
          "% of cycles though the model calls this layer compute-bound: "
          "latency the roofline does not see (TLB walks, prefetch "
          "misses, port pressure) is the real limiter");
    }
    const std::uint64_t phase_l1d = r.pack_l1d_misses + r.micro_l1d_misses;
    if (phase_l1d > 0) {
      const double miss_share =
          static_cast<double>(r.pack_l1d_misses) /
          static_cast<double>(phase_l1d);
      const double time_share =
          telemetry.phase_fraction(Counter::kPackNs);
      if (miss_share > 0.2 && miss_share > 2.0 * time_share) {
        r.diagnoses.push_back(
            "pack phase takes " + fmt1(100 * time_share) +
            "% of phase time but " + fmt1(100 * miss_share) +
            "% of L1D misses: the Tc x packw pack buffer overflows L1 "
            "on this host — a smaller Tc would keep the window resident");
      }
    }
  }
  return r;
}

std::string ConvReport::to_text() const {
  std::string s;
  s += "ConvReport " + params.to_string() + " on " + platform + "\n";
  s += "  grid PTn x PTk = " + std::to_string(mapping.ptn) + " x " +
       std::to_string(mapping.ptk) + " (+" + std::to_string(stealers) +
       " stealers), " + std::to_string(workers.size()) + " workers\n";
  s += "  model: FAI(PTn=" + std::to_string(mapping.ptn) + ") = " +
       fmt1(mapping_fai) + ", best " + fmt1(best_fai) + " near PTn* = " +
       fmt1(ptn_star, "%.2f") + ", alpha = " + fmt1(alpha, "%.3f") + "\n";
  s += "  predicted " + fmt1(predicted_gflops) +
       " GFLOPS (roofline: compute " + fmt1(roofline_compute) +
       ", memory " + fmt1(roofline_memory) + "; peak " +
       fmt1(peak_gflops) + ")\n";
  s += "  measured  " + fmt1(measured_gflops) + " GFLOPS";
  if (model_ratio > 0)
    s += " (" + fmt1(model_ratio, "%.2f") + "x predicted";
  if (peak_gflops > 0)
    s += std::string(model_ratio > 0 ? ", " : " (") +
         fmt1(100 * measured_gflops / peak_gflops) + "% of peak)";
  else if (model_ratio > 0)
    s += ")";
  s += " over " + fmt1(wall_seconds * 1e3, "%.3f") + " ms\n";
  s += "  kernel: " + kernel_class +
       (kernel_reason.empty() ? std::string()
                              : " (" + kernel_reason + ")") +
       ", " + std::to_string(kernel_lanes) + " fp32 lanes, dtype " +
       conv_dtype_name(dtype) + ", generic fallback calls " +
       std::to_string(generic_fallback) + "\n";
  s += "  tiles " + std::to_string(tiles) + ", steals " +
       std::to_string(steals) + " (local " + std::to_string(local_steals) +
       " / neighbour " + std::to_string(neighbour_steals) + " / global " +
       std::to_string(global_steals) + ")\n";
  s += "  busy fraction: min " + fmt1(busy_min, "%.2f") + "  mean " +
       fmt1(busy_mean, "%.2f") + "  max " + fmt1(busy_max, "%.2f") + "\n";
  if (has_pmu) {
    s += "  pmu: IPC " + fmt1(ipc, "%.2f") + ", backend stalls " +
         fmt1(100 * stall_fraction) + "% of cycles\n";
    s += "  pmu: AI measured " + fmt1(measured_ai, "%.2f") +
         " flops/B vs model " + fmt1(predicted_ai, "%.2f") + " (L1D " +
         std::to_string(l1d_misses) + " misses, " +
         fmt1(l1d_mpki, "%.2f") + " MPKI; LLC " +
         std::to_string(llc_misses) + ")\n";
    if (pack_l1d_misses + micro_l1d_misses > 0) {
      s += "  pmu: L1D split — pack " + std::to_string(pack_l1d_misses) +
           " / compute " + std::to_string(micro_l1d_misses) + "\n";
    }
  }
  for (const Worker& w : workers) {
    s += "    worker " + std::to_string(w.id) + ": tiles " +
         std::to_string(w.tiles) + "  steals " + std::to_string(w.steals) +
         "  busy " + fmt1(100 * w.busy_fraction) + "%";
    if (has_pmu)
      s += "  l1d " + std::to_string(w.l1d_misses) + "  llc " +
           std::to_string(w.llc_misses);
    s += "\n";
  }
  if (diagnoses.empty()) {
    s += "  diagnosis: run matches the model\n";
  } else {
    for (const std::string& d : diagnoses) s += "  diagnosis: " + d + "\n";
  }
  return s;
}

std::string ConvReport::to_json() const {
  std::string s = "{";
  s += "\"platform\": \"" + json_escape(platform) + "\"";
  s += ", \"conv\": \"" + json_escape(params.to_string()) + "\"";
  s += ", \"ptn\": " + std::to_string(mapping.ptn);
  s += ", \"ptk\": " + std::to_string(mapping.ptk);
  s += ", \"stealers\": " + std::to_string(stealers);
  s += ", \"alpha\": " + fmt_json(alpha);
  s += ", \"wall_seconds\": " + fmt_json(wall_seconds);
  s += ", \"measured_gflops\": " + fmt_json(measured_gflops);
  s += ", \"predicted_gflops\": " + fmt_json(predicted_gflops);
  s += ", \"peak_gflops\": " + fmt_json(peak_gflops);
  s += ", \"roofline_compute\": " + fmt_json(roofline_compute);
  s += ", \"roofline_memory\": " + fmt_json(roofline_memory);
  s += ", \"model_ratio\": " + fmt_json(model_ratio);
  s += ", \"mapping_fai\": " + fmt_json(mapping_fai);
  s += ", \"best_fai\": " + fmt_json(best_fai);
  s += ", \"ptn_star\": " + fmt_json(ptn_star);
  s += ", \"dtype\": \"" + std::string(conv_dtype_name(dtype)) + "\"";
  s += ", \"kernel_class\": \"" + json_escape(kernel_class) + "\"";
  s += ", \"kernel_reason\": \"" + json_escape(kernel_reason) + "\"";
  s += ", \"generic_fallback\": " + std::to_string(generic_fallback);
  s += ", \"kernel_lanes\": " + std::to_string(kernel_lanes);
  s += ", \"tiles\": " + std::to_string(tiles);
  s += ", \"steals\": " + std::to_string(steals);
  s += ", \"local_steals\": " + std::to_string(local_steals);
  s += ", \"neighbour_steals\": " + std::to_string(neighbour_steals);
  s += ", \"global_steals\": " + std::to_string(global_steals);
  s += ", \"busy_min\": " + fmt_json(busy_min);
  s += ", \"busy_mean\": " + fmt_json(busy_mean);
  s += ", \"busy_max\": " + fmt_json(busy_max);
  s += std::string(", \"has_pmu\": ") + (has_pmu ? "true" : "false");
  s += ", \"pmu\": {\"cycles\": " + std::to_string(pmu_cycles);
  s += ", \"instructions\": " + std::to_string(pmu_instructions);
  s += ", \"l1d_misses\": " + std::to_string(l1d_misses);
  s += ", \"llc_misses\": " + std::to_string(llc_misses);
  s += ", \"stalled_cycles\": " + std::to_string(stalled_cycles);
  s += ", \"ipc\": " + fmt_json(ipc);
  s += ", \"stall_fraction\": " + fmt_json(stall_fraction);
  s += ", \"l1d_mpki\": " + fmt_json(l1d_mpki);
  s += ", \"measured_ai\": " + fmt_json(measured_ai);
  s += ", \"predicted_ai\": " + fmt_json(predicted_ai);
  s += ", \"pack_l1d_misses\": " + std::to_string(pack_l1d_misses);
  s += ", \"micro_l1d_misses\": " + std::to_string(micro_l1d_misses) + "}";
  s += ", \"per_worker\": [";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const Worker& w = workers[i];
    if (i > 0) s += ", ";
    s += "{\"id\": " + std::to_string(w.id) +
         ", \"tiles\": " + std::to_string(w.tiles) +
         ", \"steals\": " + std::to_string(w.steals) +
         ", \"busy_seconds\": " + fmt_json(w.busy_seconds) +
         ", \"busy_fraction\": " + fmt_json(w.busy_fraction) +
         ", \"l1d_misses\": " + std::to_string(w.l1d_misses) +
         ", \"llc_misses\": " + std::to_string(w.llc_misses) + "}";
  }
  s += "], \"diagnoses\": [";
  for (std::size_t i = 0; i < diagnoses.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + json_escape(diagnoses[i]) + "\"";
  }
  s += "]}";
  return s;
}

}  // namespace ndirect
