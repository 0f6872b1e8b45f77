// Admin-plane tests: the embedded HTTP server's protocol corners and
// the AdminServer endpoints over live serve::Server instances
// (DESIGN.md §17).
//
// Lifecycle tests drive readiness deterministically: a gated
// GraphFactory parks the server's warm-up (or its drain-time batch
// build) on a test-controlled latch, so /readyz is asserted to answer
// 503 *while* the server is provably warming or draining — no sleeps,
// no "probably still starting" races. The concurrent-scrape test is
// the TSan target: client threads hammer /metrics, /readyz and /slo
// while a VirtualClock-driven server serves real traffic.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/http.h"
#include "runtime/metrics.h"
#include "runtime/shutdown.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"
#include "serve/admin.h"
#include "serve/clock.h"
#include "serve/latency_model.h"
#include "serve/server.h"
#include "tensor/rng.h"

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
#define NDIRECT_TSAN 1
// Same suppression as serving_test.cpp: the refcounted release of a
// future's stored exception runs inside the system libstdc++, which is
// not TSan-instrumented, so its teardown reports as a race.
extern "C" const char* __tsan_default_suppressions() {
  return "race:std::__exception_ptr::exception_ptr::_M_release\n"
         "race:std::runtime_error::~runtime_error\n";
}
#else
#define NDIRECT_TSAN 0
#endif

namespace ndirect::serve {
namespace {

constexpr std::uint64_t kMs = 1'000'000;

// ----------------------------------------------------------------------
// Test graph + gated factory
// ----------------------------------------------------------------------

std::unique_ptr<Graph> make_test_graph(int batch, std::uint64_t seed) {
  auto g = std::make_unique<Graph>(batch, 2, 8, 8);
  const ConvParams p{.N = batch, .C = 2, .H = 8, .W = 8, .K = 4,
                     .R = 3, .S = 3, .str = 1, .pad = 1};
  const NodeId conv = g->add(
      std::make_unique<ConvOp>(p, ConvBackend::Ndirect, seed, true),
      {0});
  g->add(std::make_unique<ReluOp>(), {conv});
  return g;
}

Tensor make_image(std::uint64_t seed) {
  Tensor t = make_input_nchw(1, 2, 8, 8);
  fill_random(t, seed);
  return t;
}

/// Latch the tests park a GraphFactory on: arm(batch) makes the next
/// factory call for that batch size block until release(); the test
/// waits on await_blocked() so assertions run while the build is
/// provably in flight.
class FactoryGate {
 public:
  void arm(int batch) {
    std::lock_guard<std::mutex> lk(mu_);
    armed_.insert(batch);
    open_ = false;
  }

  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
      armed_.clear();
    }
    cv_.notify_all();
  }

  void await_blocked() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return waiting_ > 0; });
  }

  void enter(int batch) {
    std::unique_lock<std::mutex> lk(mu_);
    if (open_ || armed_.count(batch) == 0) return;
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lk, [this] { return open_; });
    --waiting_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<int> armed_;
  bool open_ = false;
  int waiting_ = 0;
};

GraphFactory gated_factory(std::uint64_t seed, FactoryGate& gate) {
  return [seed, &gate](int batch) {
    gate.enter(batch);
    return make_test_graph(batch, seed);
  };
}

GraphFactory plain_factory(std::uint64_t seed) {
  return [seed](int batch) { return make_test_graph(batch, seed); };
}

/// One raw TCP round trip: send `payload` verbatim, read to EOF — for
/// the malformed-request paths the well-formed client cannot produce.
std::string raw_request(int port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string out;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    (void)!::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL);
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

// ----------------------------------------------------------------------
// HttpServer: protocol behaviour
// ----------------------------------------------------------------------

TEST(HttpServerTest, RoutesDispatchAndErrorPaths) {
  HttpServer srv;
  srv.route("GET", "/hello", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "hi";
    return r;
  });
  srv.route("POST", "/echo", [](const HttpRequest& req) {
    HttpResponse r;
    r.body = req.body;
    return r;
  });
  srv.route("GET", "/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  srv.start();
  ASSERT_GT(srv.port(), 0);

  HttpClientResponse ok = http_get("127.0.0.1", srv.port(), "/hello");
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "hi");

  HttpClientResponse echo =
      http_post("127.0.0.1", srv.port(), "/echo", "payload bytes");
  ASSERT_TRUE(echo.ok) << echo.error;
  EXPECT_EQ(echo.status, 200);
  EXPECT_EQ(echo.body, "payload bytes");

  EXPECT_EQ(http_get("127.0.0.1", srv.port(), "/nope").status, 404);
  // Known path, wrong method: 405, not 404.
  EXPECT_EQ(http_post("127.0.0.1", srv.port(), "/hello").status, 405);
  EXPECT_EQ(http_get("127.0.0.1", srv.port(), "/boom").status, 500);

  EXPECT_GE(srv.requests_handled(), 5u);
  srv.stop();
  srv.stop();  // idempotent
  EXPECT_FALSE(srv.running());
}

TEST(HttpServerTest, QueryParamsParseAndPathStaysExact) {
  HttpServer srv;
  srv.route("GET", "/q", [](const HttpRequest& req) {
    HttpResponse r;
    r.body = req.query_param("a") + "|" + req.query_param("b", "dflt") +
             "|" + req.query;
    return r;
  });
  srv.start();
  HttpClientResponse got =
      http_get("127.0.0.1", srv.port(), "/q?a=1&c=3");
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.status, 200);  // query string must not break routing
  EXPECT_EQ(got.body, "1|dflt|a=1&c=3");
}

TEST(HttpServerTest, MalformedRequestLineAnswers400) {
  HttpServer srv;
  srv.route("GET", "/", [](const HttpRequest&) { return HttpResponse{}; });
  srv.start();
  const std::string reply =
      raw_request(srv.port(), "NOT-AN-HTTP-REQUEST\r\n\r\n");
  EXPECT_NE(reply.find("400 Bad Request"), std::string::npos) << reply;
}

TEST(HttpServerTest, OversizedRequestAnswers400) {
  HttpServerOptions opts;
  opts.max_request_bytes = 256;
  HttpServer srv(opts);
  srv.route("POST", "/big", [](const HttpRequest&) {
    return HttpResponse{};
  });
  srv.start();
  HttpClientResponse got = http_post("127.0.0.1", srv.port(), "/big",
                                     std::string(4096, 'x'));
  // The server answers 400 as soon as the cap trips; depending on
  // timing the client may instead see the connection reset mid-send.
  if (got.ok) EXPECT_EQ(got.status, 400);
}

TEST(HttpServerTest, ConcurrentClientsAllAnswered) {
  HttpServer srv;
  std::atomic<int> hits{0};
  srv.route("GET", "/count", [&hits](const HttpRequest&) {
    hits.fetch_add(1);
    HttpResponse r;
    r.body = "ok";
    return r;
  });
  srv.start();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::atomic<int> good{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const HttpClientResponse r =
            http_get("127.0.0.1", srv.port(), "/count");
        if (r.ok && r.status == 200 && r.body == "ok") good.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(good.load(), kThreads * kPerThread);
  EXPECT_EQ(hits.load(), kThreads * kPerThread);
  EXPECT_EQ(srv.requests_handled(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// ----------------------------------------------------------------------
// AdminServer endpoints
// ----------------------------------------------------------------------

TEST(AdminServerTest, MetricsHealthzAndContentTypes) {
  AdminServer admin;
  admin.start();
  ASSERT_GT(admin.port(), 0);

  const HttpClientResponse health =
      http_get("127.0.0.1", admin.port(), "/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpClientResponse metrics =
      http_get("127.0.0.1", admin.port(), "/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("openmetrics-text"),
            std::string::npos)
      << metrics.content_type;
  EXPECT_NE(metrics.body.find("# EOF"), std::string::npos);
  // The exposition describes the observability plane itself.
  EXPECT_NE(metrics.body.find("ndirect_trace_dropped_events"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ndirect_metrics_instruments"),
            std::string::npos);

  admin.stop();
  EXPECT_FALSE(admin.running());
}

TEST(AdminServerTest, ReadyzFollowsServerLifecycle) {
  AdminServer admin;
  admin.start();

  // No server registered: not ready.
  HttpClientResponse r = http_get("127.0.0.1", admin.port(), "/readyz");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("\"ready\": false"), std::string::npos);

  VirtualClock clock;
  AffineLatencyModel model(kMs, 0);
  FactoryGate gate;
  gate.arm(1);  // park the warm-up's batch-1 probe build

  ServerOptions opts;
  opts.name = "lifecycle";
  opts.max_batch = 4;
  opts.clock = &clock;
  opts.model = &model;
  opts.calibrate = false;
  std::unique_ptr<Server> server;
  std::thread ctor([&] {
    server = std::make_unique<Server>(gated_factory(11, gate), opts);
  });

  // The constructor is provably inside the probe build now: the server
  // must already be visible and warming.
  gate.await_blocked();
  r = http_get("127.0.0.1", admin.port(), "/readyz");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("\"state\": \"warming\""), std::string::npos)
      << r.body;

  gate.release();
  ctor.join();
  ASSERT_TRUE(server->ready());
  r = http_get("127.0.0.1", admin.port(), "/readyz");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"ready\": true"), std::string::npos);

  // Two requests with distant deadlines linger in the queue (the lane
  // waits for company until deadline minus predicted, far in virtual
  // time), so drain-time shutdown coalesces them into one batch-2
  // launch whose cold graph build parks on the re-armed gate: the
  // server is provably draining while we probe.
  gate.arm(2);
  std::future<ServeResult> f1 =
      server->submit(make_image(1), 1000 * kMs);
  std::future<ServeResult> f2 =
      server->submit(make_image(2), 1000 * kMs);
  std::thread drainer([&] { server->shutdown(/*drain=*/true); });
  gate.await_blocked();
  r = http_get("127.0.0.1", admin.port(), "/readyz");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("\"state\": \"draining\""), std::string::npos)
      << r.body;

  gate.release();
  drainer.join();
  (void)f1.get();
  (void)f2.get();
  EXPECT_EQ(server->state(), ServeState::kStopped);
  r = http_get("127.0.0.1", admin.port(), "/readyz");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("\"state\": \"stopped\""), std::string::npos);

  server.reset();  // unregisters
  r = http_get("127.0.0.1", admin.port(), "/readyz");
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find("\"servers\": []"), std::string::npos);
}

TEST(AdminServerTest, SloAndReportEndpoints) {
  AdminServer admin;
  admin.start();

  VirtualClock clock;
  AffineLatencyModel model(kMs, 0);
  ServerOptions opts;
  opts.name = "tenant-a";
  opts.max_batch = 2;
  opts.max_linger_ns = 0;  // launch immediately: no clock advances
  opts.clock = &clock;
  opts.model = &model;
  opts.calibrate = false;
  Server server(plain_factory(11), opts);
  for (int i = 0; i < 4; ++i)
    (void)server.submit(make_image(static_cast<std::uint64_t>(i)),
                        kNeverNs)
        .get();

  const HttpClientResponse slo =
      http_get("127.0.0.1", admin.port(), "/slo");
  ASSERT_TRUE(slo.ok) << slo.error;
  EXPECT_EQ(slo.status, 200);
  EXPECT_NE(slo.content_type.find("application/json"),
            std::string::npos);
  EXPECT_NE(slo.body.find("\"name\": \"tenant-a\""), std::string::npos);
  EXPECT_NE(slo.body.find("\"window_s\": 60"), std::string::npos);
  EXPECT_NE(slo.body.find("\"diagnoses\""), std::string::npos);

  const HttpClientResponse rep =
      http_get("127.0.0.1", admin.port(), "/report");
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.status, 200);
  EXPECT_NE(rep.body.find("\"report\": {"), std::string::npos);
  EXPECT_NE(rep.body.find("\"served\": 4"), std::string::npos);
  EXPECT_NE(rep.body.find("\"goodput_fraction\""), std::string::npos);
}

TEST(AdminServerTest, TraceEndpointsRoundTrip) {
  // With tracing compiled out (-DNDIRECT_TELEMETRY=OFF) the routes stay
  // up: start reports that nothing records, stop returns a valid trace
  // with no spans.
  AdminServer admin;
  admin.start();

  HttpClientResponse start = http_post("127.0.0.1", admin.port(),
                                       "/trace/start?events=512");
  ASSERT_TRUE(start.ok) << start.error;
  EXPECT_EQ(start.status, 200);
  EXPECT_NE(start.body.find(kTelemetryCompiled
                                ? "\"tracing\": true, \"capacity\": 512"
                                : "\"tracing\": false, \"capacity\": 0"),
            std::string::npos)
      << start.body;
  EXPECT_EQ(TraceSession::global().enabled(), kTelemetryCompiled);

  TraceSession::global().complete("admin-test-span", 0, 100);

  // Wrong method on a trace route: 405, and the session stays up.
  EXPECT_EQ(http_get("127.0.0.1", admin.port(), "/trace/stop").status,
            405);
  EXPECT_EQ(TraceSession::global().enabled(), kTelemetryCompiled);

  const HttpClientResponse stop =
      http_post("127.0.0.1", admin.port(), "/trace/stop");
  ASSERT_TRUE(stop.ok) << stop.error;
  EXPECT_EQ(stop.status, 200);
  EXPECT_FALSE(TraceSession::global().enabled());
  EXPECT_NE(stop.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(stop.body.find("admin-test-span") != std::string::npos,
            kTelemetryCompiled);
  TraceSession::global().clear();
}

TEST(AdminServerTest, AdminHookClosesTransportBeforeServersDrain) {
  // The LIFO chain with re-fronting must run: admin stop, then server
  // drain. The sentinel hook registered *between* the server and the
  // admin's re-fronted hook observes exactly that half-way state.
  AdminServer& admin = AdminServer::global();
  admin.start();
  ASSERT_TRUE(admin.running());

  VirtualClock clock;
  AffineLatencyModel model(kMs, 0);
  ServerOptions opts;
  opts.max_batch = 2;
  opts.max_linger_ns = 0;
  opts.clock = &clock;
  opts.model = &model;
  opts.calibrate = false;
  Server server(plain_factory(11), opts);

  bool admin_stopped_first = false;
  ServeState state_at_sentinel = ServeState::kStopped;
  const std::uint64_t sentinel =
      register_exit_hook("test-sentinel", [&] {
        admin_stopped_first = !admin.running();
        state_at_sentinel = server.state();
      });
  // The sentinel registered after the server re-fronted the admin
  // hook, so re-front once more; the chain now runs admin, sentinel,
  // server drain — the sentinel observes the half-way state.
  admin.refresh_exit_hook();

  run_exit_hooks();
  unregister_exit_hook(sentinel);

  EXPECT_FALSE(admin.running());
  EXPECT_EQ(server.state(), ServeState::kStopped);
  // The sentinel ran after the admin hook but before the server's
  // drain hook: transport already closed, server not yet stopped.
  EXPECT_TRUE(admin_stopped_first);
  EXPECT_EQ(state_at_sentinel, ServeState::kReady);
}

TEST(AdminServerTest, GlobalAdminStaysDownWithoutEnv) {
  if (std::getenv("NDIRECT_ADMIN_PORT") != nullptr)
    GTEST_SKIP() << "NDIRECT_ADMIN_PORT is set in this environment";
  EXPECT_FALSE(AdminServer::global().running());
  EXPECT_EQ(AdminServer::global().port(), 0);
}

// ----------------------------------------------------------------------
// Concurrent scrape under live traffic (the TSan target)
// ----------------------------------------------------------------------

TEST(AdminServerTest, ConcurrentScrapeWhileServing) {
  AdminServer admin;
  admin.start();

  VirtualClock clock;
  AffineLatencyModel model(kMs, 0);
  ServerOptions opts;
  opts.name = "scrape-target";
  opts.max_batch = 4;
  opts.executors = 2;
  opts.max_linger_ns = 0;  // batches launch without clock advances
  opts.clock = &clock;
  opts.model = &model;
  opts.calibrate = false;
  Server server(plain_factory(11), opts);

  constexpr int kScrapers = 4;
  constexpr int kScrapesEach = 12;
  constexpr int kRequests = 48;
  std::atomic<int> scrape_failures{0};

  std::vector<std::thread> scrapers;
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([&, t] {
      const char* paths[] = {"/metrics", "/readyz", "/slo"};
      for (int i = 0; i < kScrapesEach; ++i) {
        const char* path = paths[(t + i) % 3];
        const HttpClientResponse r =
            http_get("127.0.0.1", admin.port(), path);
        if (!r.ok || r.status != 200) {
          scrape_failures.fetch_add(1);
          continue;
        }
        if (std::string(path) == "/metrics" &&
            r.body.find("# EOF") == std::string::npos)
          scrape_failures.fetch_add(1);
      }
    });
  }

  std::vector<std::future<ServeResult>> futs;
  futs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    futs.push_back(server.submit(
        make_image(static_cast<std::uint64_t>(i)), kNeverNs));
  std::uint64_t served = 0;
  for (std::future<ServeResult>& f : futs) {
    (void)f.get();
    ++served;
  }
  for (std::thread& t : scrapers) t.join();

  EXPECT_EQ(served, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_EQ(admin.requests_handled(),
            static_cast<std::uint64_t>(kScrapers * kScrapesEach));
  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.served, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(s.submitted, s.served + s.shed_total() + s.failed + s.queued);
}

// ----------------------------------------------------------------------
// SIGTERM graceful shutdown (fork-based; not under TSan)
// ----------------------------------------------------------------------

TEST(SignalShutdownTest, SigtermRunsExitHooksAndExitsZero) {
#if NDIRECT_TSAN
  GTEST_SKIP() << "fork-based signal test is not TSan-clean";
#else
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm the handlers, prove the hook chain ran by flipping
    // the exit status from 7 to 0 inside a registered hook.
    if (!install_signal_shutdown()) _exit(6);
    static std::atomic<bool> hook_ran{false};
    register_exit_hook("signal-test", [] { hook_ran.store(true); });
    raise(SIGTERM);
    for (int i = 0; i < 5000; ++i) {
      if (hook_ran.load()) break;
      usleep(1000);
    }
    // The watcher calls std::exit(0) after the chain; if we are still
    // alive long enough to reach this, fail loudly.
    usleep(5'000'000);
    _exit(7);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
#endif
}

TEST(SignalShutdownTest, SecondInstallIsNoOp) {
#if NDIRECT_TSAN
  GTEST_SKIP() << "signal handler install shared with fork test";
#else
  // Whichever call is first wins; within one process every later call
  // reports "already installed".
  const bool first = install_signal_shutdown();
  EXPECT_FALSE(install_signal_shutdown());
  (void)first;
#endif
}

}  // namespace
}  // namespace ndirect::serve
