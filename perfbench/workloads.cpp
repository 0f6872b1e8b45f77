#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/filter_transform.h"
#include "nn/models.h"
#include "nn/optimize.h"
#include "platform/perf_model.h"
#include "platform/specs.h"
#include "runtime/thread_pool.h"
#include "serve/server.h"
#include "tensor/rng.h"

namespace perfbench {

using ndirect::ConvBackend;
using ndirect::ConvOp;
using ndirect::ConvParams;
using ndirect::Graph;
using ndirect::monotonic_ns;
using ndirect::Tensor;

namespace {

// Model weights are fixed; the run seed drives only the input images
// and the arrival schedule.
constexpr std::uint64_t kWeightSeed = 1234;
constexpr int kSetupReps = 5;

// Offline workloads.
constexpr int kOfflineImages = 4;
constexpr int kOfflineImageSize = 224;
// With random weights the softmax is nearly uniform (its range is a few
// 1e-4), so an absolute bound alone would pass almost any output. Each
// check therefore also bounds the difference relative to the range
// (max - min) of the reference softmax.
/// fp32 nDirect vs im2col+GEMM of the same weights: accumulation-order
/// differences only.
constexpr double kFp32SpreadTol = 1e-3;
/// Softmax L-inf drift of the int8 graph against fp32 (the bound the
/// quantized test suite holds ResNet-50 to), and relative to the range.
constexpr double kInt8SoftmaxDrift = 0.05;
constexpr double kInt8SpreadDrift = 0.05;

// serve_small. The offered rate is a constant, not re-derived per run,
// so every commit sees the same load: about half the batched execution
// capacity measured on a 4-core x86 host.
constexpr double kServeQps = 300.0;
constexpr std::uint64_t kServeDeadlineNs = 100'000'000;
constexpr int kServeMaxBatch = 8;
constexpr int kServeImages = 16;
constexpr int kServeImageSize = 64;
constexpr int kServeChannelDivisor = 8;

double ns_to_ms(double ns) { return ns / 1e6; }

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(monotonic_ns() - t0) / 1e9;
}

std::string image_label(int i) { return "image " + std::to_string(i); }

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.size() != b.size()) return INFINITY;
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return d;
}

std::vector<Tensor> make_images(std::uint64_t seed, int count, int size) {
  std::vector<Tensor> images;
  for (int i = 0; i < count; ++i) {
    Tensor t = ndirect::make_input_nchw(1, 3, size, size);
    ndirect::fill_random(t, seed * 1000003ULL + static_cast<std::uint64_t>(i));
    images.push_back(std::move(t));
  }
  return images;
}

struct OfflineModel {
  const char* name;
  bool int8;
};

OfflineModel offline_model(const std::string& workload) {
  if (workload == "mobilenet_int8") return {"MobileNet", true};
  return {"ResNet-50", false};
}

/// Build, BN-fold, fuse conv+ReLU and (int8) quantize a batch-1 model.
std::unique_ptr<Graph> build_offline(const char* model, ConvBackend backend,
                                     bool int8) {
  ndirect::ModelOptions o;
  o.backend = backend;
  o.image_size = kOfflineImageSize;
  o.seed = kWeightSeed;
  auto g = ndirect::build_model(model, 1, o);
  ndirect::fold_batchnorm(*g);
  ndirect::fuse_conv_relu(*g);
  if (int8) ndirect::quantize_convs(*g);
  return g;
}

std::unique_ptr<Graph> build_served(int batch) {
  ndirect::ModelOptions o;
  o.channel_divisor = kServeChannelDivisor;
  o.image_size = kServeImageSize;
  o.seed = kWeightSeed;
  auto g = ndirect::build_resnet50(batch, o);
  ndirect::fold_batchnorm(*g);
  ndirect::fuse_conv_relu(*g);
  return g;
}

ndirect::serve::ServerOptions serve_options() {
  ndirect::serve::ServerOptions o;
  o.name = "perfbench";
  o.max_batch = kServeMaxBatch;
  o.executors = 1;
  o.default_deadline_ns = kServeDeadlineNs;
  return o;
}

/// Check every image's verified output against the reference graph
/// (im2col+GEMM for fp32, the fp32 graph for int8).
void check_reference(const OfflineModel& m, const std::vector<Tensor>& images,
                     const std::vector<Tensor>& verified, Checks& checks,
                     Metrics& extra) {
  auto ref = build_offline(
      m.name, m.int8 ? ConvBackend::Ndirect : ConvBackend::Im2colGemm,
      /*int8=*/false);
  const double abs_tol = m.int8 ? kInt8SoftmaxDrift : 1.0;
  const double rel_tol = m.int8 ? kInt8SpreadDrift : kFp32SpreadTol;
  double worst_abs = 0, worst_rel = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Tensor want = ref->run(images[i]);
    const auto [lo, hi] =
        std::minmax_element(want.data(), want.data() + want.size());
    const double d = max_abs_diff(verified[i], want);
    const double rel = d / static_cast<double>(*hi - *lo);
    worst_abs = std::max(worst_abs, d);
    worst_rel = std::max(worst_rel, rel);
    checks.expect(d < abs_tol && rel <= rel_tol,
                  image_label(static_cast<int>(i)) +
                      ": softmax differs from the reference by " +
                      std::to_string(d) + " (" + std::to_string(rel) +
                      " of its range)");
  }
  extra.set("check.softmax_max_abs_diff", worst_abs, "1");
  extra.set("check.softmax_diff_over_range", worst_rel, "1");
}

}  // namespace

bool known_workload(const std::string& w) {
  return w == "resnet50_fp32" || w == "mobilenet_int8" || w == "serve_small";
}

int load_threads_for(const std::string& workload) {
  return workload == "serve_small" ? 2 : 1;
}

// ---------------------------------------------------------------------------
// Offline closed loop
// ---------------------------------------------------------------------------

void run_offline(const RunConfig& cfg, RunResult& out) {
  const OfflineModel m = offline_model(cfg.workload);
  const std::vector<Tensor> images =
      make_images(cfg.seed, kOfflineImages, kOfflineImageSize);

  // Set-up: build + graph passes + the first (filter-packing) forward.
  std::vector<double> setup_s;
  std::unique_ptr<Graph> g;
  std::vector<Tensor> verified;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    g.reset();
    verified.clear();
    const std::uint64_t t0 = monotonic_ns();
    g = build_offline(m.name, ConvBackend::Ndirect, m.int8);
    verified.push_back(g->run(images[0]));
    setup_s.push_back(seconds_since(t0));
  }
  ndirect::GraphRunStats gs;
  ndirect::GraphRunOptions go;
  go.stats = &gs;
  for (int i = 1; i < kOfflineImages; ++i) {
    verified.push_back(g->run(images[static_cast<std::size_t>(i)], go));
  }
  out.stamp.graph_runners = std::max(1, gs.runners);

  // Closed loop: every forward must reproduce its image's first output
  // bit for bit (the engine is deterministic for any worker split).
  // Per slice: latencies, and the busy time and count of correct
  // forwards behind the slice's rates.
  Windows latency_ms(kWindows);
  std::vector<double> busy_ms(kWindows, 0.0), passed(kWindows, 0.0);
  std::uint64_t forwards = 0, failed = 0;
  const std::uint64_t start = monotonic_ns();
  const auto span = static_cast<std::uint64_t>(cfg.seconds * 1e9);
  for (std::uint64_t t0 = start; t0 < start + span; ++forwards) {
    const std::size_t img = forwards % images.size();
    const Tensor y = g->run(images[img]);
    const std::uint64_t t1 = monotonic_ns();
    const int w = window_of(t0 - start, span);
    const double ms = ns_to_ms(static_cast<double>(t1 - t0));
    latency_ms[w].push_back(ms);
    busy_ms[w] += ms;
    const bool ok = same_bits(y, verified[img]);
    passed[w] += ok;
    failed += !ok;
    out.checks.expect(ok, "forward " + std::to_string(forwards) + " on " +
                              image_label(static_cast<int>(img)) +
                              " differs from its first output");
    t0 = t1;
  }
  const double rss = peak_rss_mb();  // before the reference graph exists
  g.reset();
  check_reference(m, images, verified, out.checks, out.extra);

  std::vector<double> throughput, goodput;
  for (int w = 0; w < kWindows; ++w) {
    if (latency_ms[w].empty()) continue;
    const double n = static_cast<double>(latency_ms[w].size());
    throughput.push_back(1e3 * n / busy_ms[w]);
    // Closed loop, no deadline: every correct forward is on time.
    goodput.push_back(1e3 * passed[w] / busy_ms[w]);
  }
  out.metrics.set("setup_s", median(setup_s), "s");
  out.metrics.set("latency_ms_p50", windowed_percentile(latency_ms, 50), "ms");
  out.metrics.set("latency_ms_p90", windowed_percentile(latency_ms, 90), "ms");
  out.metrics.set("throughput_ips", median(throughput), "1/s");
  out.metrics.set("goodput_qps", median(goodput), "1/s");
  out.metrics.set("peak_rss_mb", rss, "MB");
  out.extra.set("forwards", static_cast<double>(forwards), "count");
  out.extra.set("miss_frac",
                static_cast<double>(failed) / static_cast<double>(forwards),
                "fraction");
}

// ---------------------------------------------------------------------------
// Open-loop serving
// ---------------------------------------------------------------------------

namespace {

using ndirect::serve::Server;
using ndirect::serve::ServeResult;
using ndirect::serve::ShedError;
using ndirect::serve::ShedReason;

struct OpenLoop {
  std::vector<double> latency_ms;  ///< served requests, from due time
  std::vector<double> gen_late_ms, submit_us, queue_wait_ms;
  std::uint64_t submitted = 0, on_time = 0, late = 0;
  std::uint64_t shed_admission = 0, shed_expired = 0, failed = 0;
  double batch_mean = 0, model_ratio = 0, execute_ms_per_image = 0;
  /// Images per second of batch execution: median over slices of the
  /// launched batches (in launch order) of images / forward wall time.
  double capacity_ips = 0;
  Windows latency_win = Windows(kWindows);  ///< latency_ms by due time

  /// On-time share of the offered rate (the Poisson arrival count's own
  /// noise stays out of the number).
  double goodput_qps() const { return kServeQps * frac(on_time); }
  double frac(std::uint64_t n) const {
    return static_cast<double>(n) / static_cast<double>(submitted);
  }
  double miss_frac() const {
    return frac(submitted - on_time);
  }
};

/// One submitted request until its future is harvested.
struct Pending {
  std::uint64_t due, s0, s1;
  std::size_t image;
  int window;
  std::future<ServeResult> fut;
};

/// Record a finished request: outcome, latency from its due time, and
/// (with `rec`) a request span tiled by its gen_late, submit, queue_wait
/// and execute children on track `track`.
void harvest(Pending& p, std::size_t i, const std::vector<Tensor>& solo,
             OpenLoop& r, Checks& checks, SpanRecorder* rec, int track) {
  r.gen_late_ms.push_back(ns_to_ms(static_cast<double>(p.s0 - p.due)));
  r.submit_us.push_back(static_cast<double>(p.s1 - p.s0) / 1e3);
  std::uint64_t req = 0;
  if (rec != nullptr) {
    req = rec->open("serve.request", "serve", p.due, 0, track);
    rec->add("serve.gen_late", "serve", p.due, p.s0, req, track);
    rec->add("serve.submit", "serve", p.s0, p.s1, req, track);
    rec->close(req, p.s1);
  }
  try {
    const ServeResult res = p.fut.get();
    if (!same_bits(res.output, solo[p.image])) {
      ++r.failed;
      checks.fail("served request " + std::to_string(i) + " (" +
                  image_label(static_cast<int>(p.image)) +
                  ") differs from the solo batch-1 forward");
      return;
    }
    checks.pass();
    const std::uint64_t done = std::max(res.stats.done_ns, p.s1);
    const double latency = static_cast<double>(done - p.due);
    r.latency_ms.push_back(ns_to_ms(latency));
    r.latency_win[p.window].push_back(ns_to_ms(latency));
    r.queue_wait_ms.push_back(
        ns_to_ms(static_cast<double>(res.stats.queue_wait_ns)));
    if (latency <= static_cast<double>(kServeDeadlineNs)) {
      ++r.on_time;
    } else {
      ++r.late;
    }
    if (rec != nullptr) {
      const std::uint64_t launch = std::max(res.stats.launch_ns, p.s1);
      rec->add("serve.queue_wait", "serve", p.s1, launch, req, track);
      rec->add("serve.execute", "serve", launch, done, req, track);
      rec->close(req, done);
    }
  } catch (const ShedError& e) {
    checks.pass();  // shedding is a served decision, not an error
    if (e.reason() == ShedReason::kAdmission) {
      ++r.shed_admission;
    } else {
      ++r.shed_expired;
    }
  } catch (const std::exception& e) {
    ++r.failed;
    checks.fail("served request " + std::to_string(i) + " failed: " +
                e.what());
  }
}

/// Replay a seeded Poisson schedule at kServeQps for `duration_s`.
/// Every request is timed from its scheduled due time, so a generator
/// stall counts against latency instead of silently lowering the load.
/// Between arrivals the generator harvests finished requests in order,
/// so the harness holds only the requests in flight.
OpenLoop open_loop(Server& server, const std::vector<Tensor>& images,
                   const std::vector<Tensor>& solo, std::uint64_t seed,
                   double duration_s, Checks& checks, SpanRecorder* rec,
                   int track_base) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::exponential_distribution<double> gap(kServeQps);
  std::uniform_int_distribution<std::size_t> pick(0, images.size() - 1);
  const auto stats0 = server.stats();
  const std::size_t records0 = server.batch_records().size();

  OpenLoop r;
  const auto span = static_cast<std::uint64_t>(duration_s * 1e9);
  std::deque<Pending> pending;
  std::size_t harvested = 0;
  const auto harvest_front = [&] {
    harvest(pending.front(), harvested, solo, r, checks, rec,
            track_base + static_cast<int>(harvested));
    pending.pop_front();
    ++harvested;
  };
  constexpr std::uint64_t kHarvestSlackNs = 200'000;
  const std::uint64_t start = monotonic_ns() + 1'000'000;
  for (double t = gap(rng); t < duration_s; t += gap(rng)) {
    const std::uint64_t due = start + static_cast<std::uint64_t>(t * 1e9);
    const std::size_t img = pick(rng);
    Tensor in = images[img].clone();
    while (!pending.empty() && monotonic_ns() + kHarvestSlackNs < due &&
           pending.front().fut.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      harvest_front();
    }
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    const std::uint64_t s0 = monotonic_ns();
    auto fut = server.submit(std::move(in));
    const int w = window_of(due - start, span);
    pending.push_back({due, s0, monotonic_ns(), img, w, std::move(fut)});
    ++r.submitted;
  }
  while (!pending.empty()) harvest_front();

  const auto stats1 = server.stats();
  const auto records = server.batch_records();
  double measured = 0, predicted = 0, images_run = 0;
  std::vector<double> slice_ns(kWindows, 0.0), slice_images(kWindows, 0.0);
  for (std::size_t i = records0; i < records.size(); ++i) {
    measured += static_cast<double>(records[i].measured_ns);
    predicted += static_cast<double>(records[i].predicted_ns);
    images_run += records[i].batch_size;
    const int w = window_of(i - records0, records.size() - records0);
    slice_ns[w] += static_cast<double>(records[i].measured_ns);
    slice_images[w] += records[i].batch_size;
  }
  std::vector<double> capacity;
  for (int w = 0; w < kWindows; ++w) {
    if (slice_ns[w] > 0)
      capacity.push_back(slice_images[w] * 1e9 / slice_ns[w]);
  }
  r.capacity_ips = median(std::move(capacity));
  const double batches =
      static_cast<double>(stats1.batches - stats0.batches);
  r.batch_mean = batches > 0 ? static_cast<double>(stats1.batched_requests -
                                                   stats0.batched_requests) /
                                   batches
                             : 0;
  r.model_ratio = predicted > 0 ? measured / predicted : NAN;
  r.execute_ms_per_image = images_run > 0 ? ns_to_ms(measured / images_run)
                                          : NAN;
  return r;
}

/// Outputs of the solo batch-1 forward of every image (the bitwise
/// reference every served slice must equal).
std::vector<Tensor> solo_outputs(const std::vector<Tensor>& images) {
  auto g = build_served(1);
  std::vector<Tensor> solo;
  for (const Tensor& img : images) solo.push_back(g->run(img));
  return solo;
}

/// Build the graph instance of every batch size before timing, so no
/// cold graph build lands inside the measured traffic: for k = 1..max
/// batch, submit k no-deadline requests at once and wait for them.
void warm_batch_sizes(Server& server, const std::vector<Tensor>& images,
                      const std::vector<Tensor>& solo, Checks& checks) {
  for (std::size_t k = 1; k <= kServeMaxBatch; ++k) {
    std::vector<std::future<ServeResult>> futs;
    for (std::size_t i = 0; i < k; ++i) {
      futs.push_back(server.submit(images[i % images.size()].clone(),
                                   ndirect::serve::kNeverNs));
    }
    for (std::size_t i = 0; i < k; ++i) {
      checks.expect(same_bits(futs[i].get().output, solo[i % images.size()]),
                    "warm-up request differs from the solo batch-1 forward");
    }
  }
}

}  // namespace

void run_serve(const RunConfig& cfg, RunResult& out) {
  // The host probe behind the default latency model runs once per
  // process; keep it out of every set-up sample alike.
  (void)ndirect::host_platform();
  const std::vector<Tensor> images =
      make_images(cfg.seed, kServeImages, kServeImageSize);
  const std::vector<Tensor> solo = solo_outputs(images);
  out.stamp.graph_runners = std::min(8, build_served(1)->max_width());

  // Set-up: Server construction (probe graph, latency model, packed-
  // filter warm-up) until ready().
  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const std::uint64_t t0 = monotonic_ns();
    server = std::make_unique<Server>(build_served, serve_options());
    out.checks.expect(server->ready(), "server not ready after construction");
    setup_s.push_back(seconds_since(t0));
  }
  warm_batch_sizes(*server, images, solo, out.checks);

  const OpenLoop ol = open_loop(*server, images, solo, cfg.seed, cfg.seconds,
                                out.checks, nullptr, 0);
  server->shutdown(/*drain=*/true);

  out.metrics.set("setup_s", median(setup_s), "s");
  out.metrics.set("latency_ms_p50", windowed_percentile(ol.latency_win, 50),
                  "ms");
  out.metrics.set("latency_ms_p90", windowed_percentile(ol.latency_win, 90),
                  "ms");
  out.metrics.set("throughput_ips", ol.capacity_ips, "1/s");
  out.metrics.set("goodput_qps", ol.goodput_qps(), "1/s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  // About 6000 requests per 20 s run, so p99 has some 60 samples beyond
  // it; a closed-loop run of ResNet-50 has fewer than 100 forwards in all.
  out.extra.set("latency_ms_p99", windowed_percentile(ol.latency_win, 99),
                "ms");
  out.extra.set("offered_qps", kServeQps, "1/s");
  out.extra.set("deadline_ms", ns_to_ms(kServeDeadlineNs), "ms");
  out.extra.set("submitted", static_cast<double>(ol.submitted), "count");
  out.extra.set("miss_frac", ol.miss_frac(), "fraction");
  out.extra.set("shed_admission_frac", ol.frac(ol.shed_admission),
                "fraction");
  out.extra.set("shed_expired_frac", ol.frac(ol.shed_expired), "fraction");
  out.extra.set("late_frac", ol.frac(ol.late), "fraction");
  out.extra.set("batch_mean", ol.batch_mean, "count");
  out.extra.set("harness.gen_late_ms_p99", percentile(ol.gen_late_ms, 99),
                "ms");
}

// ---------------------------------------------------------------------------
// Traced per-layer run
// ---------------------------------------------------------------------------

namespace {

/// What one model's node-by-node replay measured.
struct Replay {
  struct Shape {
    ConvParams conv{};
    ndirect::DepthwiseParams dw{};
    bool depthwise = false;
    ndirect::Int8Backend backend = ndirect::Int8Backend::kScalar;
    std::vector<double> ns;  ///< one sample per node execution
  };
  std::map<std::string, Shape> shapes;  ///< key: metric prefix
  std::vector<double> run_ms;           ///< untraced Graph::run
  std::vector<double> replay_ms;        ///< traced node-by-node forward
  std::vector<double> node_sum_ms;
  std::map<std::string, std::vector<double>> class_ms;  ///< per forward
  std::uint64_t forwards = 0, transforms = 0, fallbacks = 0, steals = 0;
  double busy_s = 0, capacity_s = 0;
  std::vector<double> imbalance;  ///< max/min tiles per worker, per forward
  int runners = 1;                ///< Graph::run runner crew size
};

std::string conv_key(const ConvParams& p) {
  return "c" + std::to_string(p.C) + "h" + std::to_string(p.H) + "k" +
         std::to_string(p.K) + "r" + std::to_string(p.R) + "s" +
         std::to_string(p.str);
}

std::string dw_key(const ndirect::DepthwiseParams& p) {
  return "c" + std::to_string(p.C) + "h" + std::to_string(p.H) + "r" +
         std::to_string(p.R) + "s" + std::to_string(p.str);
}

/// Layer class a node's time is charged to (nn.<class>_ms).
const char* op_class(const std::string& op) {
  if (op == "conv") return "conv";
  if (op == "dwconv") return "dwconv";
  if (op == "maxpool" || op == "gavgpool") return "pool";
  if (op == "fc") return "fc";
  return "eltwise";  // relu, add, identity, batchnorm, softmax, concat
}

/// Run `g` once node by node through Op::forward, recording a forward
/// span with one child span per node, and charge node times to `st`.
Tensor replay_forward(Graph& g, const Tensor& input, bool int8,
                      SpanRecorder& rec, int track, const char* label,
                      Replay& st) {
  const int n = g.node_count();
  std::vector<Tensor> values(static_cast<std::size_t>(n));
  std::map<std::string, double> class_ns;
  ndirect::TelemetrySnapshot merged;
  double node_sum = 0;
  const std::uint64_t f0 = monotonic_ns();
  const std::uint64_t fwd = rec.open(label, "forward", f0, 0, track);
  for (int id = 1; id < n; ++id) {
    ndirect::Op* op = g.op_of(id);
    std::vector<const Tensor*> args;
    for (const int in : g.inputs_of(id)) {
      args.push_back(in == 0 ? &input : &values[static_cast<std::size_t>(in)]);
    }
    const std::uint64_t t0 = monotonic_ns();
    values[static_cast<std::size_t>(id)] = op->forward(args);
    const std::uint64_t t1 = monotonic_ns();
    const double ns = static_cast<double>(t1 - t0);
    node_sum += ns;
    const std::string name = op->name();
    class_ns[op_class(name)] += ns;
    std::string span = name;
    if (const auto* c = dynamic_cast<const ConvOp*>(op)) {
      const std::string key = std::string(int8 ? "core.int8." : "core.fp32.") +
                              conv_key(c->params());
      Replay::Shape& s = st.shapes[key];
      s.conv = c->params();
      s.ns.push_back(ns);
      span += " " + conv_key(c->params());
      if (int8) {
        s.backend = c->quantized_stats().backend;
        st.fallbacks += c->quantized_stats().generic_fallback;
      } else if (const auto* snap = c->telemetry(); snap && !snap->empty()) {
        merged.merge(*snap);
        st.fallbacks += snap->total(ndirect::Counter::kGenericFallback);
        st.steals += snap->total(ndirect::Counter::kLocalSteals) +
                     snap->total(ndirect::Counter::kNeighbourSteals) +
                     snap->total(ndirect::Counter::kGlobalSteals);
        for (const auto& w : snap->workers) st.busy_s += w.busy_seconds();
        st.capacity_s += snap->wall_seconds *
                         static_cast<double>(snap->workers.size());
      }
    } else if (const auto* d =
                   dynamic_cast<const ndirect::DepthwiseConvOp*>(op)) {
      Replay::Shape& s = st.shapes["core.dw." + dw_key(d->params())];
      s.dw = d->params();
      s.depthwise = true;
      s.ns.push_back(ns);
      span += " " + dw_key(d->params());
    }
    rec.add(span, "node", t0, t1, fwd, track);
  }
  const std::uint64_t f1 = monotonic_ns();
  rec.close(fwd, f1);
  st.replay_ms.push_back(ns_to_ms(static_cast<double>(f1 - f0)));
  st.node_sum_ms.push_back(ns_to_ms(node_sum));
  for (const char* cls : {"conv", "dwconv", "eltwise", "pool", "fc"}) {
    st.class_ms[cls].push_back(ns_to_ms(class_ns[cls]));
  }
  if (!merged.empty()) {
    std::uint64_t hi = 0, lo = ~std::uint64_t{0};
    for (const auto& w : merged.workers) {
      hi = std::max(hi, w.value(ndirect::Counter::kTilesClaimed));
      lo = std::min(lo, w.value(ndirect::Counter::kTilesClaimed));
    }
    st.imbalance.push_back(lo > 0 ? static_cast<double>(hi) /
                                        static_cast<double>(lo)
                                  : INFINITY);
  }
  return std::move(values.back());
}

/// Untraced Graph::run forwards for `untraced_s`, then traced replays
/// for `replay_s` (each at least twice); every output must equal the
/// image's first Graph::run output bit for bit.
Replay trace_offline(const OfflineModel& m, const std::vector<Tensor>& images,
                     double untraced_s, double replay_s, SpanRecorder& rec,
                     int track, Checks& checks) {
  auto g = build_offline(m.name, ConvBackend::Ndirect, m.int8);
  const std::vector<ConvOp*> convs = g->conv_ops();
  std::vector<ndirect::TelemetrySnapshot> sinks(convs.size());
  if (!m.int8) {
    for (std::size_t i = 0; i < convs.size(); ++i) {
      convs[i]->set_telemetry(&sinks[i]);
    }
  }
  std::vector<Tensor> verified;
  for (const Tensor& img : images) verified.push_back(g->run(img));

  Replay st;
  st.runners = std::min(8, g->max_width());
  const std::uint64_t transforms0 = ndirect::transform_filter_tile_calls();
  std::uint64_t t0 = monotonic_ns();
  for (std::size_t i = 0;
       st.run_ms.size() < 2 || seconds_since(t0) < untraced_s; ++i) {
    const std::uint64_t f0 = monotonic_ns();
    const Tensor y = g->run(images[i % images.size()]);
    st.run_ms.push_back(ns_to_ms(static_cast<double>(monotonic_ns() - f0)));
    checks.expect(same_bits(y, verified[i % images.size()]),
                  std::string(m.name) + " Graph::run output changed");
  }
  t0 = monotonic_ns();
  for (std::size_t i = 0;
       st.replay_ms.size() < 2 || seconds_since(t0) < replay_s; ++i) {
    const Tensor y = replay_forward(*g, images[i % images.size()], m.int8,
                                    rec, track, m.name, st);
    checks.expect(same_bits(y, verified[i % images.size()]),
                  std::string(m.name) +
                      " node-by-node replay differs from Graph::run");
  }
  st.forwards = st.run_ms.size() + st.replay_ms.size();
  st.transforms = ndirect::transform_filter_tile_calls() - transforms0;
  return st;
}

double pct_change(double traced, double untraced) {
  return (traced / untraced - 1.0) * 100.0;
}

void emit_shapes(const Replay& st, int threads, Metrics& out) {
  const ndirect::PlatformSpec& host = ndirect::host_platform();
  for (const auto& [key, s] : st.shapes) {
    const double ns = median(s.ns);
    if (s.depthwise) {
      out.set_or_null(key + ".gflops", static_cast<double>(s.dw.flops()) / ns,
                      "GFLOP/s");
      continue;
    }
    const double gflops = static_cast<double>(s.conv.flops()) / ns;
    out.set_or_null(key + ".gflops", gflops, "GFLOP/s");
    const bool int8 = key.rfind("core.int8.", 0) == 0;
    const ndirect::ConvDtype dtype =
        !int8 ? ndirect::ConvDtype::kF32
        : s.backend == ndirect::Int8Backend::kDot
            ? ndirect::ConvDtype::kI8Dot
            : ndirect::ConvDtype::kI8Emulated;
    const double model =
        ndirect::estimate_conv_perf(host, s.conv, ndirect::ConvMethod::Ndirect,
                                    threads, dtype)
            .gflops;
    out.set_or_null(key + ".model_ratio", model > 0 ? gflops / model : NAN,
                    "ratio");
  }
}

}  // namespace

void run_traced(const RunConfig& cfg, RunResult& out) {
  const double s = cfg.seconds;
  SpanRecorder rec;
  const int threads = static_cast<int>(ndirect::ThreadPool::global().size());

  // Offline models: untraced forwards for the overhead baseline, then
  // node-by-node replays.
  const std::vector<Tensor> offline_images =
      make_images(cfg.seed, 2, kOfflineImageSize);
  const Replay resnet = trace_offline(offline_model("resnet50_fp32"),
                                      offline_images, 0.15 * s, 0.2 * s, rec,
                                      1, out.checks);
  const Replay mobile = trace_offline(offline_model("mobilenet_int8"),
                                      offline_images, 0.1 * s, 0.1 * s, rec,
                                      2, out.checks);

  // Serving: untraced then traced open loop on one warmed server.
  (void)ndirect::host_platform();
  const std::vector<Tensor> images =
      make_images(cfg.seed, kServeImages, kServeImageSize);
  const std::vector<Tensor> solo = solo_outputs(images);
  OpenLoop plain, traced;
  {
    Server server(build_served, serve_options());
    warm_batch_sizes(server, images, solo, out.checks);
    plain = open_loop(server, images, solo, cfg.seed, 0.2 * s, out.checks,
                      nullptr, 0);
    traced = open_loop(server, images, solo, cfg.seed + 1, 0.25 * s,
                       out.checks, &rec, 100);
  }

  out.stamp.graph_runners = std::max(resnet.runners, mobile.runners);
  Metrics& m = out.metrics;
  emit_shapes(resnet, threads, m);
  emit_shapes(mobile, threads, m);
  const double forwards =
      static_cast<double>(resnet.forwards + mobile.forwards);
  m.set("core.filter_transforms_per_forward",
        static_cast<double>(resnet.transforms + mobile.transforms) / forwards,
        "count");
  const double replays =
      static_cast<double>(resnet.replay_ms.size() + mobile.replay_ms.size());
  m.set("core.generic_fallbacks",
        static_cast<double>(resnet.fallbacks + mobile.fallbacks) / replays,
        "count");

  m.set_or_null("runtime.busy_frac",
                resnet.capacity_s > 0 ? resnet.busy_s / resnet.capacity_s
                                      : NAN,
                "fraction");
  m.set("runtime.steals",
        static_cast<double>(resnet.steals) /
            static_cast<double>(resnet.replay_ms.size()),
        "count");
  m.set_or_null("runtime.tile_imbalance", median(resnet.imbalance), "ratio");

  const auto class_ms = [](const Replay& r, const char* cls) {
    return median(r.class_ms.at(cls));
  };
  m.set("nn.conv_ms", class_ms(resnet, "conv"), "ms");
  m.set("nn.dwconv_ms", class_ms(mobile, "dwconv"), "ms");
  m.set("nn.eltwise_ms", class_ms(resnet, "eltwise"), "ms");
  m.set("nn.pool_ms", class_ms(resnet, "pool"), "ms");
  m.set("nn.fc_ms", class_ms(resnet, "fc"), "ms");
  m.set("nn.overhead_ms", median(resnet.run_ms) - median(resnet.node_sum_ms),
        "ms");

  m.set("serve.submit_us_p50", percentile(traced.submit_us, 50), "us");
  m.set("serve.queue_wait_ms_p50", percentile(traced.queue_wait_ms, 50), "ms");
  m.set("serve.queue_wait_ms_p99", percentile(traced.queue_wait_ms, 99), "ms");
  m.set_or_null("serve.execute_ms_per_image", traced.execute_ms_per_image,
                "ms");
  m.set("serve.batch_mean", traced.batch_mean, "count");
  m.set_or_null("serve.model_ratio", traced.model_ratio, "ratio");
  m.set("serve.shed_admission_frac", traced.frac(traced.shed_admission),
        "fraction");
  m.set("serve.shed_expired_frac", traced.frac(traced.shed_expired),
        "fraction");
  m.set("serve.late_frac", traced.frac(traced.late), "fraction");

  m.set("harness.gen_late_ms_p99", percentile(traced.gen_late_ms, 99), "ms");
  double overhead = 0;
  if (cfg.workload == "serve_small") {
    overhead = pct_change(percentile(traced.latency_ms, 50),
                          percentile(plain.latency_ms, 50));
  } else {
    const Replay& r = cfg.workload == "resnet50_fp32" ? resnet : mobile;
    overhead = pct_change(median(r.replay_ms), median(r.run_ms));
  }
  m.set("harness.trace_overhead_pct", overhead, "%");

  out.extra.set("trace.spans", static_cast<double>(rec.size()), "count");
  out.extra.set("trace.resnet50_replays",
                static_cast<double>(resnet.replay_ms.size()), "count");
  out.extra.set("trace.mobilenet_replays",
                static_cast<double>(mobile.replay_ms.size()), "count");
  out.checks.expect(rec.write_chrome_trace(cfg.trace_path),
                    "cannot write the chrome trace to " + cfg.trace_path);
}

}  // namespace perfbench
