#include "serve/admin.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

#include "runtime/env.h"
#include "runtime/json.h"
#include "runtime/metrics.h"
#include "runtime/shutdown.h"
#include "runtime/trace.h"
#include "serve/serve_report.h"
#include "serve/server.h"

namespace ndirect::serve {

namespace {

constexpr char kOpenMetricsType[] =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";
constexpr char kJsonType[] = "application/json; charset=utf-8";

// Leaked on purpose: serve::Server destructors may unregister during
// static destruction, after a non-leaked registry would be gone (same
// policy as the exit-hook chain in runtime/shutdown.cpp).
struct LiveRegistry {
  std::mutex mu;
  std::vector<Server*> servers;  ///< registration order
};

LiveRegistry& live() {
  static LiveRegistry* r = new LiveRegistry;
  return *r;
}

HttpResponse json_response(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.content_type = kJsonType;
  r.body = std::move(body);
  return r;
}

HttpResponse handle_metrics(const HttpRequest&) {
  HttpResponse r;
  r.content_type = kOpenMetricsType;
  r.body = MetricsRegistry::global().text();
  return r;
}

HttpResponse handle_healthz(const HttpRequest&) {
  HttpResponse r;
  r.body = "ok\n";
  return r;
}

// Readiness: 200 only when at least one server is registered and all
// of them are kReady. Warming, draining, stopped, or an empty registry
// answer 503, so a fleet router stops sending traffic before drain
// begins and never sends it before warm-up ends.
HttpResponse handle_readyz(const HttpRequest&) {
  std::size_t total = 0;
  std::size_t ready = 0;
  std::string servers;
  for_each_live_server([&](Server& s) {
    if (total > 0) servers += ", ";
    ++total;
    const ServeState st = s.state();
    if (st == ServeState::kReady) ++ready;
    servers += "{\"name\": \"" + json_escape(s.options().name) +
               "\", \"state\": \"" + serve_state_name(st) + "\"}";
  });
  const bool ok = total > 0 && ready == total;
  return json_response(
      ok ? 200 : 503,
      std::string("{\"ready\": ") + (ok ? "true" : "false") +
          ", \"servers\": [" + servers + "]}\n");
}

HttpResponse handle_slo(const HttpRequest&) {
  std::string body = "{\"servers\": [";
  bool first_server = true;
  for_each_live_server([&](Server& s) {
    if (!first_server) body += ", ";
    first_server = false;
    const std::uint64_t now = s.now_ns();
    body += "{\"name\": \"" + json_escape(s.options().name) +
            "\", \"state\": \"" + serve_state_name(s.state()) +
            "\", \"windows\": [";
    bool first = true;
    for (const int w : SloMonitor::kWindowsS) {
      if (!first) body += ", ";
      first = false;
      body += slo_window_json(s.slo().window(now, w));
    }
    body += "], \"diagnoses\": [";
    first = true;
    for (const std::string& d :
         s.slo().evaluate(now, s.slo_evidence())) {
      if (!first) body += ", ";
      first = false;
      body += "\"" + json_escape(d) + "\"";
    }
    body += "]}";
  });
  body += "]}\n";
  return json_response(200, std::move(body));
}

HttpResponse handle_report(const HttpRequest&) {
  std::string body = "{\"servers\": [";
  bool first = true;
  for_each_live_server([&](Server& s) {
    if (!first) body += ", ";
    first = false;
    const ServeState st = s.state();
    body += "{\"name\": \"" + json_escape(s.options().name) +
            "\", \"state\": \"" + serve_state_name(st) + "\"";
    // A warming server is still mid-construction (its latency model
    // may not exist yet), so it is listed but carries no report.
    if (st != ServeState::kWarming)
      body += ", \"report\": " + build_serve_report(s).to_json();
    body += "}";
  });
  body += "]}\n";
  return json_response(200, std::move(body));
}

HttpResponse handle_trace_start(const HttpRequest& req) {
  const std::string events = req.query_param("events", "0");
  const std::size_t capacity = static_cast<std::size_t>(
      std::strtoull(events.c_str(), nullptr, 10));
  TraceSession& t = TraceSession::global();
  t.start(capacity);
  // A build with tracing compiled out answers honestly: not tracing, no
  // ring; /trace/stop then returns an empty, valid trace.
  return json_response(200, std::string("{\"tracing\": ") +
                                (t.enabled() ? "true" : "false") +
                                ", \"capacity\": " +
                                std::to_string(t.capacity()) + "}\n");
}

HttpResponse handle_trace_stop(const HttpRequest&) {
  TraceSession& t = TraceSession::global();
  t.stop();
  // The chrome-trace document itself is the response body: curl it
  // straight into a file and open it in ui.perfetto.dev.
  return json_response(200, t.json());
}

}  // namespace

AdminServer& AdminServer::global() {
  // Leaked: the exit hook closes the transport; the object itself must
  // outlive any static destructor that might still query it.
  static AdminServer* a = new AdminServer;
  return *a;
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::start(AdminOptions options) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (http_) return;
    HttpServerOptions ho;
    ho.bind_address = options.bind_address;
    ho.port = options.port;
    ho.handler_threads = options.handler_threads;
    auto http = std::make_unique<HttpServer>(ho);
    mount_routes(*http);
    http->start();
    http_ = std::move(http);
  }
  refresh_exit_hook();
}

void AdminServer::stop() {
  std::unique_ptr<HttpServer> http;
  std::uint64_t hook = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    http = std::move(http_);
    hook = exit_hook_;
    exit_hook_ = 0;
  }
  // Outside mu_: when the exit-hook chain itself is running this stop
  // (process exit), unregistering from the runner thread is a plain
  // erase — no self-wait (runtime/shutdown.cpp).
  if (hook != 0) unregister_exit_hook(hook);
  if (http) http->stop();
}

bool AdminServer::running() const {
  std::lock_guard<std::mutex> lk(mu_);
  return http_ != nullptr && http_->running();
}

int AdminServer::port() const {
  std::lock_guard<std::mutex> lk(mu_);
  return http_ != nullptr ? http_->port() : 0;
}

std::uint64_t AdminServer::requests_handled() const {
  std::lock_guard<std::mutex> lk(mu_);
  return http_ != nullptr ? http_->requests_handled() : 0;
}

void AdminServer::refresh_exit_hook() {
  // The chain is LIFO, so "admin closes before servers drain" means
  // the admin hook must be the most recent registration. Re-front it:
  // drop the old token, register a fresh one. Both chain calls happen
  // outside mu_ (the hook itself is stop(), which takes mu_).
  std::uint64_t old = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!http_) return;
    old = exit_hook_;
    exit_hook_ = 0;
  }
  if (old != 0) unregister_exit_hook(old);
  const std::uint64_t fresh =
      register_exit_hook("admin-server", [this] { stop(); });
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (http_ && exit_hook_ == 0) {
      exit_hook_ = fresh;
      return;
    }
  }
  // Lost a race with stop(): the transport is gone, drop our hook.
  unregister_exit_hook(fresh);
}

void AdminServer::mount_routes(HttpServer& http) {
  http.route("GET", "/metrics", handle_metrics);
  http.route("GET", "/healthz", handle_healthz);
  http.route("GET", "/readyz", handle_readyz);
  http.route("GET", "/slo", handle_slo);
  http.route("GET", "/report", handle_report);
  http.route("POST", "/trace/start", handle_trace_start);
  http.route("POST", "/trace/stop", handle_trace_stop);
}

void register_live_server(Server* s) {
  {
    std::lock_guard<std::mutex> lk(live().mu);
    live().servers.push_back(s);
  }
  // This server is about to register its drain hook; keep the admin
  // transport ahead of it in the LIFO chain. Outside the registry
  // lock: refresh touches the chain and the admin mutex.
  AdminServer::global().refresh_exit_hook();
}

void unregister_live_server(Server* s) {
  std::lock_guard<std::mutex> lk(live().mu);
  auto& v = live().servers;
  v.erase(std::remove(v.begin(), v.end(), s), v.end());
}

void for_each_live_server(const std::function<void(Server&)>& fn) {
  std::lock_guard<std::mutex> lk(live().mu);
  for (Server* s : live().servers) fn(*s);
}

std::size_t live_server_count() {
  std::lock_guard<std::mutex> lk(live().mu);
  return live().servers.size();
}

namespace {

/// NDIRECT_ADMIN_PORT=<port> starts the global admin server at load
/// time (0 = ephemeral) and prints the bound address to stderr so
/// scripts can scrape it; NDIRECT_ADMIN_BIND overrides the loopback
/// bind. The same switch installs the SIGTERM/SIGINT graceful-shutdown
/// handlers: a fleet sending SIGTERM gets drained servers and flushed
/// exporters, not a mid-batch abort.
struct AdminAutostart {
  AdminAutostart() {
    const char* port = std::getenv("NDIRECT_ADMIN_PORT");
    if (port == nullptr || *port == '\0') return;
    AdminOptions o;
    o.port = static_cast<int>(env_long("NDIRECT_ADMIN_PORT", 0));
    if (const char* bind = std::getenv("NDIRECT_ADMIN_BIND"))
      o.bind_address = bind;
    try {
      AdminServer::global().start(o);
      std::fprintf(stderr, "ndirect: admin server on %s:%d\n",
                   o.bind_address.c_str(),
                   AdminServer::global().port());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ndirect: admin autostart failed: %s\n",
                   e.what());
    }
    install_signal_shutdown();
  }
};
const AdminAutostart g_admin_autostart;

}  // namespace

}  // namespace ndirect::serve
