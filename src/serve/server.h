// Multi-tenant inference server: dynamic batching + deadline-aware
// admission over the concurrent nn::Graph executor (DESIGN.md §15).
//
// A Server owns a pool of per-batch-size Graph instances built by one
// GraphFactory (same seed => same weights, so any batch size computes
// the same function) that all dispatch onto one shared ThreadPool and
// pack their weights in a warm-up forward when built. Incoming
// single-image requests flow through:
//
//   submit() --admission--> RequestQueue --batch plan--> executor lane
//      |  (reject-on-arrival when                |  (FIFO prefix sized
//      |   the model predicts a miss)            |   by the FAI model)
//      v                                         v
//   future<ServeResult>  <---- batch forward, output sliced per image
//
// Every decision reads time through an injected Clock, which is what
// makes the whole admission/batching/shedding state machine
// deterministic under the VirtualClock test harness: no sleeps, no
// wall-clock assertions, exact reproducible timeouts.
//
// Batched execution is bitwise-identical to one-at-a-time forwards:
// the engine's tile scheduler gives every output element its full C
// reduction inside one tile claim regardless of N (DESIGN.md §10), so
// coalescing requests can change latency but never results — asserted
// per-slice by the serving tests and DagFuzz's batch-invariance sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "nn/graph.h"
#include "serve/batching.h"
#include "serve/clock.h"
#include "serve/latency_model.h"
#include "serve/observability.h"
#include "serve/request_queue.h"

namespace ndirect::serve {

/// Builds a fresh Graph for the given batch size. Must be pure in
/// `batch`: same weights/topology for every N (e.g. capture a fixed
/// seed and forward it to the model builders).
using GraphFactory = std::function<std::unique_ptr<Graph>(int batch)>;

/// Lifecycle a readiness probe (serve/admin.h's /readyz) can observe.
/// kWarming covers construction — graph builds and the weight-packing
/// warm-up forward; kReady means the executor lanes are accepting;
/// kDraining begins at shutdown() entry; kStopped once the lanes have
/// joined. Only kReady answers a readiness probe with 200.
enum class ServeState { kWarming, kReady, kDraining, kStopped };

const char* serve_state_name(ServeState state);

struct ServerOptions {
  /// Tenant label: becomes the {server="..."} label on every registry
  /// instrument this server registers, so multiple Server instances
  /// (one per model — the multi-tenant shape) stay separable in one
  /// OpenMetrics exposition.
  std::string name = "default";
  int max_batch = 8;   ///< largest coalesced batch
  int executors = 1;   ///< concurrent batch lanes (graph leases)
  /// Deadline budget applied by submit(input) with no explicit budget;
  /// kNeverNs = no deadline.
  std::uint64_t default_deadline_ns = 100'000'000;
  /// Cap on how long a partial batch lingers for more arrivals beyond
  /// the deadline-derived launch instant (measured from the head
  /// request's arrival). kNeverNs = deadline-driven only.
  std::uint64_t max_linger_ns = kNeverNs;
  /// Reject-on-arrival when the model predicts a deadline miss. Off:
  /// everything is admitted and hopeless requests shed in-queue.
  bool admission_control = true;
  /// EWMA-calibrate the latency model from measured batch wall times.
  bool calibrate = true;
  Clock* clock = nullptr;         ///< nullptr = RealClock::instance()
  /// Batch latency model for admission/sizing. nullptr = the server
  /// builds a GraphLatencyModel on the probed host platform (first
  /// call measures peak/bandwidth). Must outlive the server.
  LatencyModel* model = nullptr;
  /// ThreadPool all graphs' convolutions dispatch onto.
  /// nullptr = ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// Register per-server instruments in the global MetricsRegistry and
  /// record into them on every request. Off: the server stays out of
  /// the registry entirely (the SLO monitor still runs — it is plain
  /// per-server state, not a registry instrument).
  bool observe = true;
  /// The SLO the rolling watchdog judges traffic against. Defaults
  /// disable every rule.
  SloConfig slo{};
};

/// Aggregate serving counters (one consistent snapshot).
struct ServerStatsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t served = 0;          ///< futures resolved with a value
  std::uint64_t shed_admission = 0;  ///< rejected on arrival
  std::uint64_t shed_expired = 0;    ///< deadline passed while queued
  std::uint64_t shed_shutdown = 0;   ///< dropped by non-drain shutdown
  std::uint64_t failed = 0;          ///< futures resolved with a
                                     ///< non-shed exception
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  ///< sum of batch sizes
  std::uint64_t deadline_misses = 0;   ///< served but past deadline
  std::uint64_t queued = 0;            ///< pending right now
  std::uint64_t predicted_ns_sum = 0;  ///< over launched batches
  std::uint64_t measured_ns_sum = 0;

  double mean_batch() const {
    return batches > 0 ? static_cast<double>(batched_requests) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  std::uint64_t shed_total() const {
    return shed_admission + shed_expired + shed_shutdown;
  }
};

class Server {
 public:
  Server(GraphFactory factory, ServerOptions options = {});
  ~Server();  ///< shutdown(/*drain=*/true)

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueue one [1, C, H, W] image with a deadline budget of
  /// `deadline_budget_ns` from now (kNeverNs = no deadline). The
  /// future resolves to the result, or throws ShedError when the
  /// request was load-shed, or rethrows whatever the graph threw when
  /// its batch failed. Never blocks on inference.
  std::future<ServeResult> submit(Tensor input,
                                  std::uint64_t deadline_budget_ns);
  std::future<ServeResult> submit(Tensor input) {
    return submit(std::move(input), options_.default_deadline_ns);
  }

  /// Stop the server. drain=true serves everything already queued
  /// (partial batches launch immediately); drain=false sheds the
  /// queue. Further submits are shed with ShedReason::kShutdown.
  /// Idempotent; blocks until the executor lanes joined.
  void shutdown(bool drain = true);

  ServerStatsSnapshot stats() const;

  /// (batch size, predicted ns, measured ns) of every launched batch,
  /// in launch order — the raw data behind the ServeReport.
  struct BatchRecord {
    int batch_size = 0;
    std::uint64_t predicted_ns = 0;
    std::uint64_t measured_ns = 0;
  };
  std::vector<BatchRecord> batch_records() const;

  const ServerOptions& options() const { return options_; }
  const TensorShape& input_shape() const { return input_shape_; }
  LatencyModel& model() { return *model_; }
  const LatencyModel& model() const { return *model_; }

  /// The whole process's OpenMetrics exposition (this server's
  /// instruments included) — what the admin plane's /metrics returns.
  std::string metrics_text() const;

  /// Where this server is in its lifecycle (see ServeState). Readable
  /// from any thread at any point after construction *began*: the
  /// server registers itself with the admin plane's live-server
  /// registry before the warm-up work runs, so /readyz reports 503
  /// while filters are still packing.
  ServeState state() const {
    return state_.load(std::memory_order_acquire);
  }
  /// True exactly when state() == kReady: warmed up and not draining.
  bool ready() const { return state() == ServeState::kReady; }

  /// The rolling-window SLO watchdog (always live; judge it with
  /// slo().evaluate(now_ns(), slo_evidence())).
  const SloMonitor& slo() const { return slo_mon_; }
  /// Current time on this server's Clock (virtual under VirtualClock).
  std::uint64_t now_ns() const { return clock_->now_ns(); }
  /// Evidence for SLO breach attribution: overall measured/predicted
  /// ratio, the model's EWMA calibration scale (0 when the model has
  /// none), and the count of cold graph builds (each one packs its
  /// weights in a warm-up forward for a new batch size).
  SloEvidence slo_evidence() const;
  /// This server's registry handles; nullptr when options.observe is
  /// false. Histogram snapshots answer p50/p95/p99 queries.
  const ServeInstruments* instruments() const { return obs_.get(); }

 private:
  void executor_loop(int lane);
  void run_batch(std::vector<Request> batch, const BatchPlan& plan,
                 std::uint64_t launch_ns);
  /// Resolve `r` with a ShedError and emit the trace instant. Call
  /// without the queue lock held.
  void shed(Request r, ShedReason reason);
  std::unique_ptr<Graph> acquire_graph(int batch);
  void release_graph(int batch, std::unique_ptr<Graph> g);
  std::uint64_t earliest_free_at() const;  ///< requires queue lock

  GraphFactory factory_;
  ServerOptions options_;
  Clock* clock_;
  LatencyModel* model_;
  std::unique_ptr<LatencyModel> owned_model_;
  ThreadPool* pool_;
  TensorShape input_shape_{};  ///< N=1 accepted input shape

  mutable RequestQueue queue_;  ///< mutable: const snapshots lock it
  // Guarded by queue_.mutex():
  bool stopping_ = false;
  bool drain_on_stop_ = true;
  std::vector<std::uint64_t> busy_until_;  ///< per lane; 0 = idle
  std::uint64_t next_id_ = 0;
  ServerStatsSnapshot stats_;
  std::vector<BatchRecord> records_;

  std::mutex graphs_mu_;
  std::map<int, std::vector<std::unique_ptr<Graph>>> free_graphs_;

  std::atomic<ServeState> state_{ServeState::kWarming};
  std::unique_ptr<ServeInstruments> obs_;  ///< null when !observe
  SloMonitor slo_mon_;
  std::atomic<std::uint64_t> graph_builds_{0};  ///< cold factory calls
  std::uint64_t exit_hook_ = 0;  ///< runtime/shutdown.h registration
  std::vector<std::thread> lanes_;
  std::mutex join_mu_;  ///< serializes the shutdown join
};

}  // namespace ndirect::serve
