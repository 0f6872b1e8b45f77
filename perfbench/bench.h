// Shared pieces of the benchmark driver: the metric sink, the in-memory
// span recorder that becomes a chrome trace, and small statistics and
// host helpers. Everything here belongs to the benchmark, not to the
// library under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed command line of one driver run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< chrome trace output (traced runs)
};

/// Ordered name -> (value, unit) map. A missing value (the host cannot
/// produce it) is stored as null and printed as JSON null, never as 0.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void set_null(const std::string& name, const std::string& unit);
  /// Store `value` when it is finite and above zero, null otherwise.
  void set_or_null(const std::string& name, double value,
                   const std::string& unit);
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    bool present = false;
    double value = 0;
  };
  std::vector<Entry> entries_;
};

/// Outcome counters of the correctness checks of one run.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages

  void pass() { ++attempted; }
  void fail(const std::string& what);
  void expect(bool ok, const std::string& what) { ok ? pass() : fail(what); }
};

/// Process-level facts stamped into every result.
struct ThreadStamp {
  int nproc = 1;
  int pool_threads = 1;   ///< ThreadPool::global().size(), caller included
  int load_threads = 1;   ///< generator / caller / executor-lane threads
  int graph_runners = 1;  ///< peak Graph::run runner crew (info only)
  int threads() const { return pool_threads - 1 + load_threads; }
  bool oversubscribed() const { return threads() > nproc; }
};

/// In-memory span store. Spans name their parent by id; the chrome
/// trace writer emits them as complete ("X") events on the given track.
class SpanRecorder {
 public:
  /// Record [start_ns, end_ns]; returns the span id (ids start at 1,
  /// parent 0 = root).
  std::uint64_t add(const std::string& name, const char* cat,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t parent, int track);
  /// Open a span whose end is not known yet (its children need its id).
  std::uint64_t open(const std::string& name, const char* cat,
                     std::uint64_t start_ns, std::uint64_t parent,
                     int track) {
    return add(name, cat, start_ns, start_ns, parent, track);
  }
  void close(std::uint64_t id, std::uint64_t end_ns);
  std::size_t size() const { return spans_.size(); }
  /// Write {"traceEvents": [...]} to `path`. Returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    const char* cat;
    std::uint64_t start_ns, end_ns, id, parent;
    int track;
  };
  std::vector<Span> spans_;
};

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// A timed phase is cut into kWindows equal slices of its schedule. A
/// statistic is taken per slice and the run reports the median across
/// slices, so host interference that spoils a slice or two (other
/// tenants of a shared machine) does not move the run's figure.
inline constexpr int kWindows = 8;
using Windows = std::vector<std::vector<double>>;

/// Slice of a sample taken `offset_ns` into a phase of `span_ns`.
int window_of(std::uint64_t offset_ns, std::uint64_t span_ns);

/// Median over non-empty slices of each slice's percentile p.
double windowed_percentile(const Windows& w, double p);

/// Peak resident set size of this process so far, MB.
double peak_rss_mb();

/// `s` as a JSON string literal, quotes included.
std::string json_quote(const std::string& s);

}  // namespace perfbench
