#include "serve/serve_report.h"

#include <cstdio>
#include <map>

#include "runtime/json.h"

namespace ndirect::serve {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string slo_window_json(const SloWindowStats& w) {
  return "{\"window_s\": " + std::to_string(w.window_s) +
         ", \"served\": " + std::to_string(w.served) +
         ", \"on_time\": " + std::to_string(w.on_time) +
         ", \"shed\": " + std::to_string(w.shed) +
         ", \"goodput_fraction\": " + fmt(w.goodput_fraction()) +
         ", \"shed_fraction\": " + fmt(w.shed_fraction()) +
         ", \"p99_ns\": " + std::to_string(w.p99_ns) + "}";
}

ServeReport build_serve_report(const Server& server) {
  const ServerStatsSnapshot stats = server.stats();
  const std::vector<Server::BatchRecord> records = server.batch_records();

  ServeReport rep;
  rep.submitted = stats.submitted;
  rep.served = stats.served;
  rep.shed_admission = stats.shed_admission;
  rep.shed_expired = stats.shed_expired;
  rep.shed_shutdown = stats.shed_shutdown;
  rep.failed = stats.failed;
  rep.deadline_misses = stats.deadline_misses;
  rep.batches = stats.batches;
  rep.mean_batch = stats.mean_batch();
  if (stats.submitted > 0) {
    const std::uint64_t on_time =
        stats.served >= stats.deadline_misses
            ? stats.served - stats.deadline_misses
            : 0;
    rep.goodput_fraction = static_cast<double>(on_time) /
                           static_cast<double>(stats.submitted);
  }

  struct Acc {
    std::uint64_t count = 0;
    double predicted_ns = 0;
    double measured_ns = 0;
  };
  std::map<int, Acc> by_size;
  for (const Server::BatchRecord& r : records) {
    Acc& a = by_size[r.batch_size];
    ++a.count;
    a.predicted_ns += static_cast<double>(r.predicted_ns);
    a.measured_ns += static_cast<double>(r.measured_ns);
  }
  for (const auto& [size, a] : by_size) {
    ServeReport::BatchRow row;
    row.batch_size = size;
    row.count = a.count;
    const double n = static_cast<double>(a.count);
    row.mean_predicted_ms = a.predicted_ns / n * 1e-6;
    row.mean_measured_ms = a.measured_ns / n * 1e-6;
    row.model_ratio =
        a.predicted_ns > 0 ? a.measured_ns / a.predicted_ns : 0;
    rep.rows.push_back(row);
  }

  rep.model_ratio =
      stats.predicted_ns_sum > 0
          ? static_cast<double>(stats.measured_ns_sum) /
                static_cast<double>(stats.predicted_ns_sum)
          : 0;
  if (const auto* gm =
          dynamic_cast<const GraphLatencyModel*>(&server.model()))
    rep.model_scale = gm->scale();

  if (const ServeInstruments* obs = server.instruments()) {
    const HistogramSnapshot e2e = obs->e2e_ns->snapshot();
    if (e2e.count > 0) {
      rep.e2e_p50_ms = static_cast<double>(e2e.quantile(0.50)) * 1e-6;
      rep.e2e_p95_ms = static_cast<double>(e2e.quantile(0.95)) * 1e-6;
      rep.e2e_p99_ms = static_cast<double>(e2e.quantile(0.99)) * 1e-6;
    }
  }

  const std::uint64_t now = server.now_ns();
  for (const int w : SloMonitor::kWindowsS)
    rep.slo_windows.push_back(server.slo().window(now, w));

  // Diagnoses: actionable mismatches only.
  if (rep.model_ratio > 0 &&
      (rep.model_ratio > 2.0 || rep.model_ratio < 0.5)) {
    rep.diagnoses.push_back(
        "latency model " +
        std::string(rep.model_ratio > 1 ? "underpredicts" :
                                          "overpredicts") +
        " batch latency " + fmt3(rep.model_ratio > 1
                                     ? rep.model_ratio
                                     : 1.0 / rep.model_ratio) +
        "x: admission and batch sizing run on wrong estimates" +
        (rep.model_scale > 0 ? " (calibration scale " +
                                   fmt3(rep.model_scale) + ")"
                             : ""));
  }
  if (stats.batches > 0 && stats.queued + stats.submitted > 0 &&
      rep.mean_batch < 1.5 &&
      stats.shed_admission + stats.shed_expired > stats.served / 10) {
    rep.diagnoses.push_back(
        "mean batch " + fmt3(rep.mean_batch) +
        " while shedding load: batching is not engaging (deadlines too "
        "tight for predicted latency, or max_batch/linger too small)");
  }
  if (stats.served > 0 &&
      stats.deadline_misses * 10 > stats.served) {
    rep.diagnoses.push_back(
        std::to_string(stats.deadline_misses) + "/" +
        std::to_string(stats.served) +
        " served requests missed their deadline: admission is too "
        "optimistic (model underpredicts or calibration lags)");
  }

  // Fold in whatever the SLO watchdog sees right now.
  for (std::string& d :
       server.slo().evaluate(now, server.slo_evidence()))
    rep.diagnoses.push_back(std::move(d));

  return rep;
}

std::string ServeReport::to_text() const {
  std::string s;
  s += "== serve report ==\n";
  s += "requests: submitted " + std::to_string(submitted) + ", served " +
       std::to_string(served) + " (" + std::to_string(deadline_misses) +
       " late), shed " +
       std::to_string(shed_admission + shed_expired + shed_shutdown) +
       " (admission " + std::to_string(shed_admission) + ", expired " +
       std::to_string(shed_expired) + ", shutdown " +
       std::to_string(shed_shutdown) + "), failed " +
       std::to_string(failed) + "\n";
  s += "goodput: " + fmt3(goodput_fraction * 100) +
       "% served on time\n";
  s += "batches: " + std::to_string(batches) + ", mean size " +
       fmt3(mean_batch) + "\n";
  s += "model: measured/predicted " + fmt3(model_ratio);
  if (model_scale > 0) s += ", calibration scale " + fmt3(model_scale);
  s += "\n";
  if (e2e_p99_ms > 0) {
    s += "e2e latency: p50 " + fmt3(e2e_p50_ms) + " ms, p95 " +
         fmt3(e2e_p95_ms) + " ms, p99 " + fmt3(e2e_p99_ms) + " ms\n";
  }
  for (const SloWindowStats& w : slo_windows) {
    if (w.finished() == 0) continue;
    s += "slo " + std::to_string(w.window_s) + "s: goodput " +
         fmt3(w.goodput_fraction() * 100) + "%, shed " +
         fmt3(w.shed_fraction() * 100) + "%, p99 " +
         fmt3(static_cast<double>(w.p99_ns) * 1e-6) + " ms (" +
         std::to_string(w.served) + " served, " +
         std::to_string(w.shed) + " shed)\n";
  }
  if (!rows.empty()) {
    s += "batch size |  count | predicted ms | measured ms | ratio\n";
    for (const BatchRow& r : rows) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "%10d | %6llu | %12.3f | %11.3f | %5.2f\n",
                    r.batch_size,
                    static_cast<unsigned long long>(r.count),
                    r.mean_predicted_ms, r.mean_measured_ms,
                    r.model_ratio);
      s += line;
    }
  }
  for (const std::string& d : diagnoses) s += "!! " + d + "\n";
  return s;
}

std::string ServeReport::to_json() const {
  std::string s = "{";
  s += "\"submitted\": " + std::to_string(submitted);
  s += ", \"served\": " + std::to_string(served);
  s += ", \"deadline_misses\": " + std::to_string(deadline_misses);
  s += ", \"shed\": {\"admission\": " + std::to_string(shed_admission) +
       ", \"expired\": " + std::to_string(shed_expired) +
       ", \"shutdown\": " + std::to_string(shed_shutdown) + "}";
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"goodput_fraction\": " + fmt(goodput_fraction);
  s += ", \"batches\": " + std::to_string(batches);
  s += ", \"mean_batch\": " + fmt(mean_batch);
  s += ", \"model_ratio\": " + fmt(model_ratio);
  s += ", \"model_scale\": " + fmt(model_scale);
  s += ", \"e2e_p50_ms\": " + fmt(e2e_p50_ms);
  s += ", \"e2e_p95_ms\": " + fmt(e2e_p95_ms);
  s += ", \"e2e_p99_ms\": " + fmt(e2e_p99_ms);
  s += ", \"slo_windows\": [";
  for (std::size_t i = 0; i < slo_windows.size(); ++i) {
    if (i > 0) s += ", ";
    s += slo_window_json(slo_windows[i]);
  }
  s += "]";
  s += ", \"batch_rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) s += ", ";
    s += "{\"batch_size\": " + std::to_string(rows[i].batch_size) +
         ", \"count\": " + std::to_string(rows[i].count) +
         ", \"mean_predicted_ms\": " + fmt(rows[i].mean_predicted_ms) +
         ", \"mean_measured_ms\": " + fmt(rows[i].mean_measured_ms) +
         ", \"model_ratio\": " + fmt(rows[i].model_ratio) + "}";
  }
  s += "], \"diagnoses\": [";
  for (std::size_t i = 0; i < diagnoses.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + json_escape(diagnoses[i]) + "\"";
  }
  s += "]}";
  return s;
}

}  // namespace ndirect::serve
