#include "runtime/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "runtime/env.h"
#include "runtime/json.h"
#include "runtime/shutdown.h"
#include "runtime/telemetry.h"

namespace ndirect {

namespace trace_detail {
std::atomic<bool> g_on{false};
}  // namespace trace_detail

namespace {

// Lane registry: names are cold-path (once per thread / per rename), so
// a mutex is fine; the hot path only reads the cached thread_local id.
// Both statics are intentionally leaked: the registry is first touched
// lazily (after the NDIRECT_TRACE atexit export was registered), so a
// destroyed-in-reverse-order static would be dead by the time the
// at-exit export reads the lane names.
std::mutex& lane_mutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}
std::vector<std::string>& lane_names_locked() {
  static std::vector<std::string>* names = new std::vector<std::string>;
  return *names;
}

// Remove span events orphaned by a session edge. A session started
// mid-span records the 'E' of a 'B' that predates it; one stopped
// mid-span records a 'B' whose 'E' never arrives. Either breaks the
// LIFO nesting trace viewers (and check_trace.py) insist on, so the
// export drops exactly the unmatched halves: an 'E' that does not
// close the innermost open 'B' of its lane, and any 'B' still open at
// the end of the buffer. Matched pairs nested inside a dropped 'B'
// survive — removing only the unmatched enclosing event keeps the
// remaining events properly nested.
void prune_unbalanced_spans(std::vector<TraceEvent>* evs) {
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> open;
  std::vector<char> drop(evs->size(), 0);
  for (std::size_t i = 0; i < evs->size(); ++i) {
    const TraceEvent& ev = (*evs)[i];
    if (ev.ph == 'B') {
      open[ev.tid].push_back(i);
    } else if (ev.ph == 'E') {
      std::vector<std::size_t>& stack = open[ev.tid];
      if (!stack.empty() &&
          std::strcmp((*evs)[stack.back()].name, ev.name) == 0) {
        stack.pop_back();
      } else {
        drop[i] = 1;
      }
    }
  }
  for (const auto& [tid, stack] : open)
    for (std::size_t i : stack) drop[i] = 1;
  std::size_t w = 0;
  for (std::size_t i = 0; i < evs->size(); ++i)
    if (!drop[i]) (*evs)[w++] = (*evs)[i];
  evs->resize(w);
}

void append_microseconds(std::string* out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  *out += buf;
}

}  // namespace

int trace_lane() {
  thread_local int lane = [] {
    std::lock_guard<std::mutex> lock(lane_mutex());
    auto& names = lane_names_locked();
    const int id = static_cast<int>(names.size());
    names.push_back("thread-" + std::to_string(id));
    return id;
  }();
  return lane;
}

void set_trace_lane_name(const std::string& name) {
  const int lane = trace_lane();
  std::lock_guard<std::mutex> lock(lane_mutex());
  lane_names_locked()[static_cast<std::size_t>(lane)] = name;
}

std::vector<std::string> trace_lane_names() {
  std::lock_guard<std::mutex> lock(lane_mutex());
  return lane_names_locked();
}

TraceSession& TraceSession::global() {
  // Leaked like the lane registry: whether this TU's statics are
  // constructed before or after another TU registers the first exit
  // hook (and with it the atexit(run_exit_hooks) callback) is link-
  // order luck, so a destructible session could be torn down before
  // the trace-export hook runs and the export would read a freed ring.
  static TraceSession* session = new TraceSession;
  return *session;
}

void TraceSession::start(std::size_t capacity) {
  if (!kTelemetryCompiled) return;
  trace_detail::g_on.store(false, std::memory_order_release);
  if (capacity == 0) {
    const long env = env_long("NDIRECT_TRACE_EVENTS",
                              static_cast<long>(kDefaultCapacity));
    capacity = env > 0 ? static_cast<std::size_t>(env) : kDefaultCapacity;
  }
  // Not safe against threads still recording from a previous session;
  // start/stop are control-plane calls made while the traced work is
  // quiescent.
  ring_.assign(capacity, TraceEvent{});
  cursor_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(monotonic_ns(), std::memory_order_relaxed);
  trace_detail::g_on.store(true, std::memory_order_release);
}

void TraceSession::stop() {
  trace_detail::g_on.store(false, std::memory_order_release);
}

void TraceSession::clear() {
  stop();
  ring_.clear();
  cursor_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::uint64_t TraceSession::now_ns() const {
  const std::uint64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  return epoch == 0 ? 0 : monotonic_ns() - epoch;
}

void TraceSession::record(const TraceEvent& ev) {
  const std::size_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= ring_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ring_[idx] = ev;
}

void TraceSession::complete(const char* name, std::uint64_t ts_ns,
                            std::uint64_t dur_ns, const char* arg1_name,
                            std::int64_t arg1, const char* arg2_name,
                            std::int64_t arg2) {
  if (!trace_on()) return;
  TraceEvent ev;
  ev.name = name;
  ev.ph = 'X';
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.tid = static_cast<std::uint32_t>(trace_lane());
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  ev.arg2_name = arg2_name;
  ev.arg2 = arg2;
  record(ev);
}

void TraceSession::begin(const char* name, const char* arg1_name,
                         std::int64_t arg1) {
  if (!trace_on()) return;
  TraceEvent ev;
  ev.name = name;
  ev.ph = 'B';
  ev.ts_ns = now_ns();
  ev.tid = static_cast<std::uint32_t>(trace_lane());
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  record(ev);
}

void TraceSession::end(const char* name) {
  if (!trace_on()) return;
  TraceEvent ev;
  ev.name = name;
  ev.ph = 'E';
  ev.ts_ns = now_ns();
  ev.tid = static_cast<std::uint32_t>(trace_lane());
  record(ev);
}

void TraceSession::instant(const char* name) {
  if (!trace_on()) return;
  TraceEvent ev;
  ev.name = name;
  ev.ph = 'i';
  ev.ts_ns = now_ns();
  ev.tid = static_cast<std::uint32_t>(trace_lane());
  record(ev);
}

void TraceSession::counter(const char* name, const char* arg1_name,
                           std::int64_t arg1, const char* arg2_name,
                           std::int64_t arg2) {
  if (!trace_on()) return;
  TraceEvent ev;
  ev.name = name;
  ev.ph = 'C';
  ev.ts_ns = now_ns();
  ev.tid = static_cast<std::uint32_t>(trace_lane());
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  ev.arg2_name = arg2_name;
  ev.arg2 = arg2;
  record(ev);
}

std::size_t TraceSession::size() const {
  return std::min(cursor_.load(std::memory_order_relaxed), ring_.size());
}

std::size_t TraceSession::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::size_t TraceSession::capacity() const { return ring_.size(); }

std::vector<TraceEvent> TraceSession::events() const {
  const std::size_t n = size();
  std::vector<TraceEvent> evs;
  evs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (ring_[i].name == nullptr) continue;  // torn mid-record slot
    evs.push_back(ring_[i]);
  }
  // Nested 'X' spans are recorded at their *end* (the enclosing span
  // lands in the ring after its children); sorting by start timestamp
  // restores the per-lane monotonic order the trace viewers expect.
  std::stable_sort(evs.begin(), evs.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  prune_unbalanced_spans(&evs);
  return evs;
}

std::string TraceSession::json() const {
  const std::vector<TraceEvent> evs = events();
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                    "{\"dropped\": " +
                    std::to_string(dropped()) + "}, \"traceEvents\": [\n";
  bool first = true;
  const std::vector<std::string> lanes = trace_lane_names();
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(lane) + ", \"args\": {\"name\": \"" +
           json_escape(lanes[lane]) + "\"}}";
  }
  for (const TraceEvent& ev : evs) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\": \"";
    out += json_escape(ev.name);
    out += "\", \"cat\": \"ndirect\", \"ph\": \"";
    out += ev.ph;
    out += "\", \"pid\": 1, \"tid\": " + std::to_string(ev.tid) +
           ", \"ts\": ";
    append_microseconds(&out, ev.ts_ns);
    if (ev.ph == 'X') {
      out += ", \"dur\": ";
      append_microseconds(&out, ev.dur_ns);
    }
    if (ev.arg1_name != nullptr || ev.arg2_name != nullptr) {
      out += ", \"args\": {";
      if (ev.arg1_name != nullptr) {
        out += "\"" + json_escape(ev.arg1_name) +
               "\": " + std::to_string(ev.arg1);
      }
      if (ev.arg2_name != nullptr) {
        if (ev.arg1_name != nullptr) out += ", ";
        out += "\"" + json_escape(ev.arg2_name) +
               "\": " + std::to_string(ev.arg2);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool TraceSession::export_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = json();
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

/// NDIRECT_TRACE=<path>: start tracing at load time, export at exit —
/// observability for unmodified binaries (every example and bench gets
/// tracing for free). Master-gated by NDIRECT_TELEMETRY.
///
/// The export runs through the runtime/shutdown.h hook chain, not a
/// bare std::atexit: hooks registered later (the metrics dump thread,
/// any live serve::Server) run first, so by the time the ring is
/// exported every server lane has drained and joined and nothing is
/// still recording (the old ordering depended on static-destruction
/// luck).
struct TraceEnvAutoStart {
  TraceEnvAutoStart() {
    const char* path = std::getenv("NDIRECT_TRACE");
    if (path == nullptr || *path == '\0' || !telemetry_enabled()) return;
    exporting_path() = path;
    TraceSession::global().start();
    register_exit_hook("trace-export", [] {
      TraceSession& session = TraceSession::global();
      session.stop();
      if (session.export_json(exporting_path())) {
        std::fprintf(stderr, "ndirect: trace written to %s (%zu events)\n",
                     exporting_path().c_str(), session.size());
      } else {
        std::fprintf(stderr, "ndirect: failed to write trace to %s\n",
                     exporting_path().c_str());
      }
    });
  }
  static std::string& exporting_path() {
    static std::string* path = new std::string;  // leaked: read at exit
    return *path;
  }
};
const TraceEnvAutoStart g_trace_autostart;

}  // namespace

}  // namespace ndirect
