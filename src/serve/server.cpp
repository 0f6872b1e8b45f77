#include "serve/server.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/metrics.h"
#include "runtime/shutdown.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "runtime/trace.h"
#include "serve/admin.h"

namespace ndirect::serve {

const char* serve_state_name(ServeState state) {
  switch (state) {
    case ServeState::kWarming: return "warming";
    case ServeState::kReady: return "ready";
    case ServeState::kDraining: return "draining";
    case ServeState::kStopped: return "stopped";
  }
  return "unknown";
}

namespace {

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > kNeverNs - b ? kNeverNs : a + b;
}

ServerOptions normalized(ServerOptions o) {
  o.max_batch = std::max(1, o.max_batch);
  o.executors = std::max(1, o.executors);
  return o;
}

/// One zero-input forward, run on every graph the server builds, so the
/// graph plans its engines and every conv op packs its weights before
/// real traffic (and real timing) hits it.
void warm_graph(Graph& g) {
  const TensorShape s = g.shape_of(0);
  Tensor zero({s.N, s.C, s.H, s.W}, Layout::NCHW);
  zero.fill_zero();
  (void)g.run(zero);
}

}  // namespace

Server::Server(GraphFactory factory, ServerOptions options)
    : factory_(std::move(factory)),
      options_(normalized(std::move(options))),
      clock_(options_.clock != nullptr ? options_.clock
                                       : &RealClock::instance()),
      model_(options_.model),
      pool_(options_.pool != nullptr ? options_.pool
                                     : &ThreadPool::global()),
      slo_mon_(options_.slo) {
  if (!factory_)
    throw std::invalid_argument("serve::Server: null GraphFactory");
  // Visible to the admin plane from here on: /readyz answers 503
  // ("warming") for this server while the probe build and its weight-
  // packing warm-up below are still running.
  register_live_server(this);
  try {
    // Build the batch-1 instance eagerly: it defines the accepted input
    // shape, seeds the default latency model, and pre-warms the most
    // common pool entry before the lanes start.
    std::unique_ptr<Graph> probe = factory_(1);
    if (!probe)
      throw std::invalid_argument(
          "serve::Server: GraphFactory returned null");
    probe->set_conv_pool(pool_);
    input_shape_ = probe->shape_of(0);
    if (input_shape_.N != 1)
      throw std::invalid_argument(
          "serve::Server: factory(1) built a graph with input batch " +
          std::to_string(input_shape_.N));
    if (model_ == nullptr) {
      owned_model_ = std::make_unique<GraphLatencyModel>(*probe);
      model_ = owned_model_.get();
    }
    warm_graph(*probe);
    {
      std::lock_guard<std::mutex> g(graphs_mu_);
      free_graphs_[1].push_back(std::move(probe));
    }
    if (options_.observe)
      obs_ = std::make_unique<ServeInstruments>(options_.name,
                                                options_.max_batch);
    busy_until_.assign(static_cast<std::size_t>(options_.executors), 0);
    lanes_.reserve(static_cast<std::size_t>(options_.executors));
    for (int lane = 0; lane < options_.executors; ++lane)
      lanes_.emplace_back([this, lane] { executor_loop(lane); });
    // Drain at process exit *before* the metrics exporter and trace
    // ring shut down (the hook chain is LIFO and those register at
    // load time), so a server still live at exit never races the
    // exporters' teardown. The admin plane re-fronts its own hook on
    // register_live_server above, so it closes earlier still.
    exit_hook_ = register_exit_hook("serve-server",
                                    [this] { shutdown(/*drain=*/true); });
  } catch (...) {
    unregister_live_server(this);
    throw;
  }
  state_.store(ServeState::kReady, std::memory_order_release);
}

Server::~Server() {
  // Invisible to the admin plane first: after this no /readyz, /slo or
  // /report handler can still be iterating over a dying server
  // (unregister blocks while a handler holds the registry).
  unregister_live_server(this);
  // Drop the exit hook before tearing down: after this returns the
  // chain can no longer call into a dying server (and if the chain is
  // mid-run on another thread, unregister blocks until it finished).
  unregister_exit_hook(exit_hook_);
  shutdown(/*drain=*/true);
}

std::future<ServeResult> Server::submit(Tensor input,
                                        std::uint64_t deadline_budget_ns) {
  if (input.rank() != 4 || input.layout() != Layout::NCHW ||
      input.dim(0) != 1 || input.dim(1) != input_shape_.C ||
      input.dim(2) != input_shape_.H || input.dim(3) != input_shape_.W) {
    throw std::invalid_argument(
        "serve::Server::submit: input " + input.shape_string() +
        " does not match the served graph's [1, " +
        std::to_string(input_shape_.C) + ", " +
        std::to_string(input_shape_.H) + ", " +
        std::to_string(input_shape_.W) + "] NCHW input");
  }

  const std::uint64_t now = clock_->now_ns();
  Request r;
  r.input = std::move(input);
  r.arrival_ns = now;
  r.deadline_ns = deadline_budget_ns == kNeverNs
                      ? kNeverNs
                      : saturating_add(now, deadline_budget_ns);
  std::future<ServeResult> fut = r.promise.get_future();

  if (obs_) obs_->submitted->inc();
  {
    std::unique_lock<std::mutex> lk(queue_.mutex());
    ++stats_.submitted;
    // Ids are assigned in submit order to *every* request, shed or
    // served, so a shed request's trace instant still joins the
    // timeline by id.
    r.id = next_id_++;
    if (stopping_) {
      ++stats_.shed_shutdown;
      lk.unlock();
      shed(std::move(r), ShedReason::kShutdown);
      return fut;
    }
    if (options_.admission_control &&
        !admit(now, r.deadline_ns, queue_.size(), earliest_free_at(),
               options_.max_batch, options_.executors, *model_)) {
      ++stats_.shed_admission;
      lk.unlock();
      shed(std::move(r), ShedReason::kAdmission);
      return fut;
    }
    ++stats_.admitted;
    queue_.push(std::move(r));
    if (obs_) {
      obs_->admitted->inc();
      obs_->queue_depth->set(static_cast<std::int64_t>(queue_.size()));
    }
  }
  if (trace_on()) TraceSession::global().instant("serve_enqueue");
  queue_.cv().notify_all();
  return fut;
}

void Server::executor_loop(int lane) {
  if (trace_on())
    set_trace_lane_name("serve-exec-" + std::to_string(lane));
  std::unique_lock<std::mutex> lk(queue_.mutex());
  for (;;) {
    const std::uint64_t now = clock_->now_ns();

    // 1) Shed everything that can no longer make its deadline even
    //    launched alone right now, then re-evaluate: the planner's
    //    head-is-feasible precondition depends on this running first.
    if (!queue_.empty()) {
      std::vector<Request> expired =
          queue_.take_expired(now, model_->predict_ns(1));
      if (!expired.empty()) {
        stats_.shed_expired += expired.size();
        if (obs_)
          obs_->queue_depth->set(
              static_cast<std::int64_t>(queue_.size()));
        lk.unlock();
        for (Request& r : expired)
          shed(std::move(r), ShedReason::kDeadlineExpired);
        lk.lock();
        continue;
      }
    }

    // 2) Idle: exit once stopping (drain leaves nothing behind by
    //    construction — the queue is empty), else park on the cv.
    if (queue_.empty()) {
      if (stopping_) return;
      clock_->wait_until(queue_.cv(), lk, kNeverNs);
      continue;
    }

    // 3) Plan a batch. While stopping no more arrivals are possible,
    //    so partial batches launch immediately (the drain path).
    const BatchPlan plan =
        plan_batch(queue_.pending(), now, options_.max_batch, *model_,
                   /*more_arrivals_possible=*/!stopping_,
                   options_.max_linger_ns);
    if (plan.size <= 0) {  // unreachable after expiry; stay safe
      clock_->wait_until(queue_.cv(), lk, kNeverNs);
      continue;
    }

    // 4) Linger for company: wait until the launch instant, a new
    //    arrival, or shutdown — then replan from scratch.
    if (plan.launch_at > now) {
      clock_->wait_until(queue_.cv(), lk, plan.launch_at);
      continue;
    }

    // 5) Launch.
    std::vector<Request> batch = queue_.pop_front(plan.size);
    busy_until_[static_cast<std::size_t>(lane)] =
        saturating_add(now, plan.predicted_ns);
    if (obs_)
      obs_->queue_depth->set(static_cast<std::int64_t>(queue_.size()));
    lk.unlock();
    run_batch(std::move(batch), plan, now);
    lk.lock();
    busy_until_[static_cast<std::size_t>(lane)] = 0;
  }
}

void Server::run_batch(std::vector<Request> batch, const BatchPlan& plan,
                       std::uint64_t launch_ns) {
  const int k = static_cast<int>(batch.size());
  const TensorShape& s = input_shape_;
  const std::size_t per_in =
      static_cast<std::size_t>(s.C) * static_cast<std::size_t>(s.H) *
      static_cast<std::size_t>(s.W);

  Tensor input({k, s.C, s.H, s.W}, Layout::NCHW);
  for (int i = 0; i < k; ++i)
    std::memcpy(input.data() + static_cast<std::size_t>(i) * per_in,
                batch[static_cast<std::size_t>(i)].input.data(),
                per_in * sizeof(float));

  const std::uint64_t head_id = batch.front().id;
  std::unique_ptr<Graph> graph;
  Tensor output;
  std::exception_ptr error;
  std::uint64_t measured = 0;
  const std::uint64_t exec_t0 = monotonic_ns();
  try {
    graph = acquire_graph(k);
    const std::uint64_t t0 = monotonic_ns();
    output = graph->run(input);
    measured = monotonic_ns() - t0;
  } catch (...) {
    error = std::current_exception();
  }
  if (trace_on()) {
    // Recorded as a complete ('X') span after the fact — a trace
    // session started mid-batch must never see an unmatched 'E'.
    TraceSession& ts = TraceSession::global();
    const std::uint64_t dur = monotonic_ns() - exec_t0;
    const std::uint64_t now = ts.now_ns();
    ts.complete("serve_execute", now > dur ? now - dur : 0, dur,
                "req", static_cast<std::int64_t>(head_id), "batch", k);
  }
  const std::uint64_t done = clock_->now_ns();

  if (error) {
    // The graph's state after a mid-run throw is unknown: drop the
    // instance instead of returning it to the pool, fail exactly the
    // requests that were in this batch, and keep serving.
    graph.reset();
    {
      std::lock_guard<std::mutex> g(queue_.mutex());
      stats_.failed += static_cast<std::uint64_t>(k);
    }
    if (obs_) obs_->failed->inc(static_cast<std::uint64_t>(k));
    for (Request& r : batch) r.promise.set_exception(error);
    return;
  }
  release_graph(k, std::move(graph));

  if (options_.calibrate) model_->observe(k, measured);
  if (obs_) {
    obs_->batches->inc();
    obs_->execute_ns->record(measured);
    obs_->execute_by_batch[static_cast<std::size_t>(k)]->record(
        measured);
  }
  if (trace_on()) {
    TraceSession& ts = TraceSession::global();
    const std::uint64_t end = ts.now_ns();
    ts.complete("serve_batch", end > measured ? end - measured : 0,
                measured, "batch", k, "req",
                static_cast<std::int64_t>(head_id));
  }

  // Slice the [k, ...] batch output into per-request [1, ...] tensors.
  const std::size_t per_out = output.size() / static_cast<std::size_t>(k);
  std::vector<std::int64_t> slice_dims = output.dims();
  slice_dims[0] = 1;

  std::uint64_t misses = 0;
  std::vector<ServeResult> results;
  results.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const Request& r = batch[static_cast<std::size_t>(i)];
    ServeResult res;
    res.output = Tensor(slice_dims, output.layout());
    std::memcpy(res.output.data(),
                output.data() + static_cast<std::size_t>(i) * per_out,
                per_out * sizeof(float));
    res.stats.request_id = r.id;
    res.stats.arrival_ns = r.arrival_ns;
    res.stats.launch_ns = launch_ns;
    res.stats.done_ns = done;
    res.stats.queue_wait_ns =
        launch_ns > r.arrival_ns ? launch_ns - r.arrival_ns : 0;
    res.stats.batch_size = k;
    res.stats.deadline_slack_ns =
        r.deadline_ns == kNeverNs
            ? std::numeric_limits<std::int64_t>::max()
            : static_cast<std::int64_t>(r.deadline_ns) -
                  static_cast<std::int64_t>(done);
    const bool on_time =
        r.deadline_ns == kNeverNs || res.stats.deadline_slack_ns >= 0;
    if (!on_time) ++misses;
    res.stats.predicted_batch_ns = plan.predicted_ns;
    res.stats.measured_batch_ns = measured;

    const std::uint64_t e2e =
        done > r.arrival_ns ? done - r.arrival_ns : 0;
    slo_mon_.record_served(done, e2e, on_time);
    if (obs_) {
      obs_->served->inc();
      obs_->queue_wait_ns->record(res.stats.queue_wait_ns);
      obs_->e2e_ns->record(e2e);
      obs_->e2e_by_batch[static_cast<std::size_t>(k)]->record(e2e);
      if (r.deadline_ns != kNeverNs) {
        obs_->deadline_slack_ns->record(
            on_time ? static_cast<std::uint64_t>(
                          res.stats.deadline_slack_ns)
                    : 0);
        if (!on_time) obs_->deadline_missed->inc();
      }
    }
    if (trace_on()) {
      // Back-dated 'X' span covering the request's time in the queue;
      // the exporter sorts by timestamp, so out-of-order emission is
      // fine. Durations are clock_ nanoseconds mapped onto the trace
      // timeline ending "now".
      TraceSession& ts = TraceSession::global();
      const std::uint64_t tnow = ts.now_ns();
      const std::uint64_t wait = res.stats.queue_wait_ns;
      ts.complete("serve_queue", tnow > wait ? tnow - wait : 0, wait,
                  "req", static_cast<std::int64_t>(r.id), "batch", k);
    }
    results.push_back(std::move(res));
  }

  {
    std::lock_guard<std::mutex> g(queue_.mutex());
    ++stats_.batches;
    stats_.batched_requests += static_cast<std::uint64_t>(k);
    stats_.served += static_cast<std::uint64_t>(k);
    stats_.deadline_misses += misses;
    stats_.predicted_ns_sum += plan.predicted_ns;
    stats_.measured_ns_sum += measured;
    records_.push_back(
        BatchRecord{k, plan.predicted_ns, measured});
  }
  const std::uint64_t respond_t0 = monotonic_ns();
  for (int i = 0; i < k; ++i)
    batch[static_cast<std::size_t>(i)].promise.set_value(
        std::move(results[static_cast<std::size_t>(i)]));
  if (trace_on()) {
    TraceSession& ts = TraceSession::global();
    const std::uint64_t dur = monotonic_ns() - respond_t0;
    const std::uint64_t now = ts.now_ns();
    ts.complete("serve_respond", now > dur ? now - dur : 0, dur,
                "req", static_cast<std::int64_t>(head_id), "batch", k);
  }
}

void Server::shed(Request r, ShedReason reason) {
  slo_mon_.record_shed(clock_->now_ns(), reason);
  if (obs_) obs_->shed[static_cast<int>(reason)]->inc();
  if (trace_on()) TraceSession::global().instant("serve_shed");
  r.promise.set_exception(std::make_exception_ptr(ShedError(reason)));
}

std::unique_ptr<Graph> Server::acquire_graph(int batch) {
  {
    std::lock_guard<std::mutex> g(graphs_mu_);
    auto it = free_graphs_.find(batch);
    if (it != free_graphs_.end() && !it->second.empty()) {
      std::unique_ptr<Graph> graph = std::move(it->second.back());
      it->second.pop_back();
      return graph;
    }
  }
  // Build outside the pool lock: graph construction (and its warm-up
  // forward) is the expensive part and other lanes must not stall on it.
  graph_builds_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<Graph> graph = factory_(batch);
  if (!graph)
    throw std::runtime_error("serve::Server: GraphFactory returned null");
  const TensorShape got = graph->shape_of(0);
  const TensorShape want{batch, input_shape_.C, input_shape_.H,
                         input_shape_.W};
  if (!(got == want))
    throw std::runtime_error(
        "serve::Server: factory(" + std::to_string(batch) +
        ") built input " + got.to_string() + ", expected " +
        want.to_string());
  graph->set_conv_pool(pool_);
  warm_graph(*graph);
  return graph;
}

void Server::release_graph(int batch, std::unique_ptr<Graph> graph) {
  std::lock_guard<std::mutex> g(graphs_mu_);
  free_graphs_[batch].push_back(std::move(graph));
}

std::uint64_t Server::earliest_free_at() const {
  std::uint64_t earliest = 0;
  bool first = true;
  for (const std::uint64_t b : busy_until_) {
    earliest = first ? b : std::min(earliest, b);
    first = false;
  }
  return earliest;  // 0 (= "free now") when any lane is idle
}

void Server::shutdown(bool drain) {
  // kStopped never regresses to kDraining on a repeated shutdown call.
  ServeState expected = ServeState::kReady;
  if (!state_.compare_exchange_strong(expected, ServeState::kDraining,
                                      std::memory_order_acq_rel)) {
    expected = ServeState::kWarming;
    state_.compare_exchange_strong(expected, ServeState::kDraining,
                                   std::memory_order_acq_rel);
  }
  std::vector<Request> dropped;
  {
    std::lock_guard<std::mutex> lk(queue_.mutex());
    stopping_ = true;
    drain_on_stop_ = drain;
    if (!drain) {
      dropped = queue_.drain();
      stats_.shed_shutdown += dropped.size();
    }
  }
  queue_.cv().notify_all();
  for (Request& r : dropped)
    shed(std::move(r), ShedReason::kShutdown);
  std::lock_guard<std::mutex> g(join_mu_);
  for (std::thread& t : lanes_)
    if (t.joinable()) t.join();
  // The queue's cv dies with this server; a VirtualClock may outlive
  // it (tests own both), so drop the registration before that.
  clock_->unregister_waiter(&queue_.cv());
  state_.store(ServeState::kStopped, std::memory_order_release);
}

ServerStatsSnapshot Server::stats() const {
  std::lock_guard<std::mutex> lk(queue_.mutex());
  ServerStatsSnapshot snap = stats_;
  snap.queued = queue_.size();
  return snap;
}

std::vector<Server::BatchRecord> Server::batch_records() const {
  std::lock_guard<std::mutex> lk(queue_.mutex());
  return records_;
}

std::string Server::metrics_text() const {
  return MetricsRegistry::global().text();
}

SloEvidence Server::slo_evidence() const {
  SloEvidence ev;
  {
    std::lock_guard<std::mutex> lk(queue_.mutex());
    if (stats_.predicted_ns_sum > 0)
      ev.model_ratio =
          static_cast<double>(stats_.measured_ns_sum) /
          static_cast<double>(stats_.predicted_ns_sum);
  }
  if (const auto* g = dynamic_cast<const GraphLatencyModel*>(model_))
    ev.model_scale = g->scale();
  ev.graph_builds = graph_builds_.load(std::memory_order_relaxed);
  return ev;
}

}  // namespace ndirect::serve
