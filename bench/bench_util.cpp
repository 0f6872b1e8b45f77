#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "autotune/tuner.h"
#include "baselines/acl_direct.h"
#include "baselines/acl_gemm.h"
#include "baselines/im2col_conv.h"
#include "baselines/indirect_conv.h"
#include "baselines/nchwc_conv.h"
#include "core/alpha.h"
#include "core/ndirect.h"
#include "runtime/cpu_info.h"
#include "runtime/timer.h"
#include "simd/vec.h"
#include "tensor/rng.h"
#include "tensor/transforms.h"

// Build-identity stamps, injected by bench/CMakeLists.txt so each
// BENCH_*.json records what produced it; the fallbacks keep non-CMake
// builds compiling.
#ifndef NDIRECT_GIT_SHA
#define NDIRECT_GIT_SHA "unknown"
#endif
#ifndef NDIRECT_COMPILER_ID
#define NDIRECT_COMPILER_ID "unknown"
#endif
#ifndef NDIRECT_BUILD_FLAGS
#define NDIRECT_BUILD_FLAGS ""
#endif

namespace ndirect::bench {

BenchConfig BenchConfig::from_env() {
  BenchConfig cfg;
  cfg.full = env_flag("NDIRECT_BENCH_FULL");
  if (cfg.full) {
    cfg.batch = static_cast<int>(ThreadPool::global().size());
    cfg.spatial_divisor = 1;
    cfg.min_seconds = 0.5;
  }
  cfg.batch = static_cast<int>(env_long("NDIRECT_BENCH_BATCH", cfg.batch));
  cfg.min_seconds = env_long("NDIRECT_BENCH_MS", 0) > 0
                        ? env_long("NDIRECT_BENCH_MS", 0) / 1000.0
                        : cfg.min_seconds;
  cfg.threads =
      static_cast<int>(env_long("NDIRECT_THREADS",
                                static_cast<long>(
                                    ThreadPool::global().size())));
  return cfg;
}

ConvParams scale_layer(const ConvParams& paper, const BenchConfig& cfg) {
  ConvParams p = paper;
  p.N = cfg.batch;
  if (cfg.spatial_divisor > 1) {
    // Keep the input large enough for the kernel plus a couple of
    // output rows so every layer still exercises the tiled loops.
    const int min_hw = std::max(p.R + 2 * p.str, 14);
    p.H = std::max(min_hw, p.H / cfg.spatial_divisor);
    p.W = std::max(min_hw, p.W / cfg.spatial_divisor);
  }
  return p;
}

double time_gflops(const std::function<void()>& fn, double flops,
                   double min_seconds) {
  fn();  // warm-up
  // Best-repetition timing: clocks on shared/thermally-limited hosts
  // drift by 2x and more between reps; the fastest rep is the least
  // contaminated estimate and is applied identically to every method.
  double best_rep = 1e30;
  WallTimer total;
  do {
    WallTimer t;
    fn();
    best_rep = std::min(best_rep, t.seconds());
  } while (total.seconds() < min_seconds);
  return flops / best_rep / 1e9;
}

double measure_method_gflops(ConvMethod method, const ConvParams& p,
                             const BenchConfig& cfg) {
  Tensor input = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor filter = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(input, 1);
  fill_random(filter, 2);
  const double flops = static_cast<double>(p.flops());

  switch (method) {
    case ConvMethod::Ndirect: {
      NdirectOptions opts;
      opts.threads = cfg.threads;
      const NdirectConv conv(p, opts);
      return time_gflops([&] { (void)conv.run(input, filter); }, flops,
                         cfg.min_seconds);
    }
    case ConvMethod::Im2colGemm: {
      return time_gflops([&] { (void)im2col_conv_nchw(input, filter, p); },
                         flops, cfg.min_seconds);
    }
    case ConvMethod::LibxsmmStyle: {
      // Section 7.3: the NCHW->NCHWc transform is excluded ("we only
      // measure the performance of LIBXSMM's micro-kernels").
      const NchwcConvConfig ncfg{};
      const Tensor in_b = nchwc_transform_input(input, p, ncfg.c_block);
      const Tensor f_b =
          nchwc_transform_filter(filter, p, ncfg.c_block, ncfg.k_block);
      return time_gflops(
          [&] { (void)nchwc_conv_blocked(in_b, f_b, p, ncfg); }, flops,
          cfg.min_seconds);
    }
    case ConvMethod::XnnpackStyle: {
      // Native NHWC layout, operator pre-built (XNNPACK's setup phase).
      const Tensor in_nhwc = nchw_to_nhwc(input);
      const IndirectConvOperator op(kcrs_to_krsc(filter), p);
      return time_gflops([&] { (void)op.run(in_nhwc); }, flops,
                         cfg.min_seconds);
    }
    case ConvMethod::AclDirect: {
      return time_gflops(
          [&] { (void)acl_direct_conv_nchw(input, filter, p); }, flops,
          cfg.min_seconds);
    }
    case ConvMethod::AclGemm: {
      return time_gflops(
          [&] { (void)acl_gemm_conv_nchw(input, filter, p); }, flops,
          cfg.min_seconds);
    }
    case ConvMethod::AnsorTuned: {
      TuneOptions topts;
      topts.generations = cfg.full ? 8 : 3;
      topts.population = cfg.full ? 32 : 12;
      topts.measure_top = cfg.full ? 4 : 2;
      topts.measure_seconds = cfg.full ? 0.05 : 0.02;
      topts.threads = cfg.threads;
      const TuneResult r = tune_conv(p, topts);
      const Schedule best = r.best;
      return time_gflops(
          [&] { (void)tuned_conv(input, filter, p, best, cfg.threads); },
          flops, cfg.min_seconds);
    }
  }
  return 0;
}

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 10;
    std::printf("%*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

std::string json_quote(const std::string& v) {
  std::string quoted = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

std::string host_key() {
  const CpuInfo info = probe_host_cpu();
  std::string key;
  bool dash = true;  // suppress leading/duplicate dashes
  for (char c : info.name) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      key += c;
      dash = false;
    } else if (c >= 'A' && c <= 'Z') {
      key += static_cast<char>(c - 'A' + 'a');
      dash = false;
    } else if (!dash) {
      key += '-';
      dash = true;
    }
  }
  while (!key.empty() && key.back() == '-') key.pop_back();
  if (key.empty()) key = "host";
  // The fp32 kernels' lane count is part of the key: a 16-lane build's
  // numbers are no baseline for a 4-lane build on the same CPU.
  return key + "-" + std::to_string(info.logical_cores) + "c-f32x" +
         std::to_string(kKernelLanes);
}

std::string host_metadata_json() {
  const CpuInfo info = probe_host_cpu();
  char alpha_buf[32];
  std::snprintf(alpha_buf, sizeof(alpha_buf), "%.3f", host_alpha());
  std::string s = "{";
  s += "\"key\": " + json_quote(host_key());
  s += ", \"cpu\": " + json_quote(info.name);
  s += ", \"cores\": " + std::to_string(info.logical_cores);
  // Dot-product capability stamp: per-host baselines must distinguish
  // machines whose int8 rows ran UDOT/SDOT or VPDPBUSD from
  // emulation-only hosts.
  s += ", \"asimddp\": ";
  s += info.asimddp ? "true" : "false";
  s += ", \"avx512vnni\": ";
  s += info.avx512vnni ? "true" : "false";
  s += ", \"i8mm\": ";
  s += info.i8mm ? "true" : "false";
  s += ", \"fp32_lanes\": " + std::to_string(kKernelLanes);
  s += ", \"alpha\": " + std::string(alpha_buf);
  s += ", \"git_sha\": " + json_quote(NDIRECT_GIT_SHA);
  s += ", \"compiler\": " + json_quote(NDIRECT_COMPILER_ID);
  s += ", \"flags\": " + json_quote(NDIRECT_BUILD_FLAGS);
  s += "}";
  return s;
}

void JsonReport::add(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  fields_.emplace_back(key, buf);
}

void JsonReport::add(const std::string& key, std::uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
}

void JsonReport::add(const std::string& key, const std::string& v) {
  std::string quoted = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  fields_.emplace_back(key, quoted);
}

void JsonReport::add_raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
}

void JsonReport::add_telemetry(const std::string& key,
                               const TelemetrySnapshot& t) {
  if (t.empty()) return;
  add_raw(key, t.to_json());
}

bool JsonReport::write() const {
  std::string path = "BENCH_" + name_ + ".json";
  if (const char* dir = std::getenv("NDIRECT_BENCH_DIR");
      dir != nullptr && *dir != '\0') {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best-effort
    path = (std::filesystem::path(dir) / path).string();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host\": %s%s\n", host_metadata_json().c_str(),
               fields_.empty() ? "" : ",");
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    std::fprintf(f, "  \"%s\": %s%s\n", fields_[i].first.c_str(),
                 fields_[i].second.c_str(),
                 i + 1 < fields_.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace ndirect::bench
