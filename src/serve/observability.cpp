#include "serve/observability.h"

#include <algorithm>
#include <cstdio>

namespace ndirect::serve {
namespace {

constexpr std::uint64_t kNsPerSec = 1'000'000'000ull;

std::string fmt_ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) * 1e-6);
  return buf;
}

std::string fmt_frac(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", f);
  return buf;
}

/// Index of the largest shed_by_reason entry (ties to the first).
int dominant_shed_reason(const SloWindowStats& w) {
  int best = 0;
  for (int r = 1; r < 3; ++r)
    if (w.shed_by_reason[r] > w.shed_by_reason[best]) best = r;
  return best;
}

}  // namespace

ServeInstruments::ServeInstruments(const std::string& server_name,
                                   int max_batch) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const MetricLabels base{{"server", server_name}};

  submitted = reg.counter("ndirect_serve_requests", base,
                          "requests offered to submit()");
  admitted = reg.counter("ndirect_serve_admitted", base,
                         "requests accepted into the queue");
  served = reg.counter("ndirect_serve_served", base,
                       "requests completed with a result");
  deadline_missed =
      reg.counter("ndirect_serve_deadline_missed", base,
                  "requests served after their deadline");
  failed = reg.counter("ndirect_serve_failed", base,
                       "requests failed by an execution error");
  batches = reg.counter("ndirect_serve_batches", base,
                        "coalesced batches launched");
  for (int r = 0; r < 3; ++r) {
    MetricLabels l = base;
    l.push_back({"reason", shed_reason_name(static_cast<ShedReason>(r))});
    shed[r] = reg.counter("ndirect_serve_shed", std::move(l),
                          "requests load-shed, by reason");
  }
  queue_depth = reg.gauge("ndirect_serve_queue_depth", base,
                          "pending requests in the FIFO queue");

  queue_wait_ns =
      reg.histogram("ndirect_serve_queue_wait_ns", base,
                    "nanoseconds from submit to batch launch");
  execute_ns = reg.histogram("ndirect_serve_execute_ns", base,
                             "batch forward wall nanoseconds");
  e2e_ns = reg.histogram("ndirect_serve_e2e_ns", base,
                         "nanoseconds from submit to result delivery");
  deadline_slack_ns = reg.histogram(
      "ndirect_serve_deadline_slack_ns", base,
      "nanoseconds of deadline margin at delivery (0 = missed)");

  const int sizes = std::max(max_batch, 1) + 1;
  e2e_by_batch.resize(static_cast<std::size_t>(sizes), nullptr);
  execute_by_batch.resize(static_cast<std::size_t>(sizes), nullptr);
  for (int b = 1; b < sizes; ++b) {
    MetricLabels l = base;
    l.push_back({"batch", std::to_string(b)});
    e2e_by_batch[static_cast<std::size_t>(b)] = reg.histogram(
        "ndirect_serve_e2e_by_batch_ns", l,
        "end-to-end nanoseconds, split by coalesced batch size");
    execute_by_batch[static_cast<std::size_t>(b)] = reg.histogram(
        "ndirect_serve_execute_by_batch_ns", std::move(l),
        "batch forward nanoseconds, split by coalesced batch size");
  }
}

SloMonitor::SloMonitor(SloConfig config)
    : config_(config),
      ring_(static_cast<std::size_t>(kRingSeconds)) {}

SloMonitor::Slice& SloMonitor::slice_at(std::uint64_t now_ns) {
  const std::uint64_t second = now_ns / kNsPerSec;
  Slice& s = ring_[static_cast<std::size_t>(
      second % static_cast<std::uint64_t>(kRingSeconds))];
  if (s.second != second) {
    s = Slice{};
    s.second = second;
  }
  return s;
}

void SloMonitor::record_served(std::uint64_t now_ns,
                               std::uint64_t e2e_ns, bool on_time) {
  std::lock_guard<std::mutex> lock(mu_);
  Slice& s = slice_at(now_ns);
  s.served += 1;
  if (on_time) s.on_time += 1;
  s.e2e.counts[HistogramLayout::bucket_of(e2e_ns)] += 1;
  s.e2e.count += 1;
  s.e2e.sum += e2e_ns;
}

void SloMonitor::record_shed(std::uint64_t now_ns, ShedReason reason) {
  std::lock_guard<std::mutex> lock(mu_);
  slice_at(now_ns).shed_by_reason[static_cast<int>(reason)] += 1;
}

SloWindowStats SloMonitor::window(std::uint64_t now_ns,
                                  int window_s) const {
  SloWindowStats out;
  out.window_s = std::min(std::max(window_s, 1), kRingSeconds);
  const std::uint64_t now_sec = now_ns / kNsPerSec;
  HistogramSnapshot e2e;
  std::lock_guard<std::mutex> lock(mu_);
  for (int back = 0; back < out.window_s; ++back) {
    const std::uint64_t b = static_cast<std::uint64_t>(back);
    if (b > now_sec) break;  // window reaches before t=0
    const std::uint64_t second = now_sec - b;
    const Slice& s = ring_[static_cast<std::size_t>(
        second % static_cast<std::uint64_t>(kRingSeconds))];
    if (s.second != second) continue;  // stale or never written
    out.served += s.served;
    out.on_time += s.on_time;
    for (int r = 0; r < 3; ++r) {
      out.shed_by_reason[r] += s.shed_by_reason[r];
      out.shed += s.shed_by_reason[r];
    }
    e2e.merge(s.e2e);
  }
  out.p99_ns = e2e.quantile(0.99);
  return out;
}

std::vector<std::string> SloMonitor::evaluate(
    std::uint64_t now_ns, const SloEvidence& evidence) const {
  SloWindowStats w[3];
  for (int i = 0; i < 3; ++i) w[i] = window(now_ns, kWindowsS[i]);

  std::vector<std::string> out;

  // Rule 1: e2e p99 ceiling. Report the widest breached window (the
  // most statistically solid one), then attribute.
  if (config_.target_p99_ns > 0) {
    int breached = -1;
    for (int i = 0; i < 3; ++i)
      if (w[i].served > 0 && w[i].p99_ns > config_.target_p99_ns)
        breached = i;
    if (breached >= 0) {
      const SloWindowStats& b = w[breached];
      std::string d = "SLO breach: e2e p99 " + fmt_ms(b.p99_ns) +
                      " ms > target " + fmt_ms(config_.target_p99_ns) +
                      " ms over " + std::to_string(b.window_s) +
                      "s window (" + std::to_string(b.served) +
                      " served)";
      if (evidence.model_ratio > 1.25) {
        d += "; admission underestimate: measured/predicted = " +
             fmt_frac(evidence.model_ratio) +
             " — EWMA calibration lagging";
        if (evidence.model_scale > 0)
          d += " (scale " + fmt_frac(evidence.model_scale) + ")";
      } else if (b.shed == 0 && b.served > 0) {
        d += "; queue is keeping up — batch latency itself exceeds "
             "the target (lower max_batch or raise the target)";
      }
      out.push_back(std::move(d));
    }
  }

  // Rule 2: goodput floor (on-time fraction of finished requests).
  if (config_.min_goodput_fraction > 0) {
    int breached = -1;
    for (int i = 0; i < 3; ++i)
      if (w[i].finished() > 0 &&
          w[i].goodput_fraction() < config_.min_goodput_fraction)
        breached = i;
    if (breached >= 0) {
      const SloWindowStats& b = w[breached];
      std::string d =
          "SLO breach: goodput " + fmt_frac(b.goodput_fraction()) +
          " < target " + fmt_frac(config_.min_goodput_fraction) +
          " over " + std::to_string(b.window_s) + "s window (" +
          std::to_string(b.on_time) + " on-time / " +
          std::to_string(b.served) + " served / " +
          std::to_string(b.shed) + " shed)";
      const std::uint64_t late = b.served - b.on_time;
      if (late > b.shed) {
        d += "; served-late dominates: batch latency exceeds the "
             "deadline slack admission assumed";
        if (evidence.model_ratio > 1.25)
          d += " (measured/predicted = " +
               fmt_frac(evidence.model_ratio) + ")";
      } else if (b.shed > 0) {
        const int r = dominant_shed_reason(b);
        d += std::string("; shedding dominates, mostly ") +
             shed_reason_name(static_cast<ShedReason>(r)) +
             (r == static_cast<int>(ShedReason::kAdmission)
                  ? " — offered load exceeds predicted capacity"
                  : r == static_cast<int>(ShedReason::kDeadlineExpired)
                        ? " — arrival bursts outrun the drain rate"
                        : " — server was shutting down");
      }
      out.push_back(std::move(d));
    }
  }

  // Rule 3: shed-fraction ceiling, with burst detection: a 1 s shed
  // fraction far above the 60 s baseline is a spike, not steady
  // overload, and usually points at a transient (a cold graph build,
  // whose first forward packs the weights; a calibration step) rather
  // than capacity.
  if (config_.max_shed_fraction < 1.0) {
    int breached = -1;
    for (int i = 0; i < 3; ++i)
      if (w[i].finished() > 0 &&
          w[i].shed_fraction() > config_.max_shed_fraction)
        breached = i;
    if (breached >= 0) {
      const SloWindowStats& b = w[breached];
      std::string d = "SLO breach: shed fraction " +
                      fmt_frac(b.shed_fraction()) + " > target " +
                      fmt_frac(config_.max_shed_fraction) + " over " +
                      std::to_string(b.window_s) + "s window (" +
                      std::to_string(b.shed) + " shed, mostly " +
                      shed_reason_name(static_cast<ShedReason>(
                          dominant_shed_reason(b))) +
                      ")";
      const bool spike = w[0].finished() > 0 && w[2].finished() > 0 &&
                         w[0].shed_fraction() >
                             3.0 * w[2].shed_fraction() &&
                         w[0].shed_fraction() >
                             config_.max_shed_fraction;
      if (spike) {
        d += "; 1s spike over the 60s baseline — transient stall";
        if (evidence.graph_builds > 0)
          d += " (cold graph builds seen: " +
               std::to_string(evidence.graph_builds) +
               "; a cold build stalls its first batch)";
      }
      out.push_back(std::move(d));
    }
  }

  return out;
}

}  // namespace ndirect::serve
