#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

namespace perfbench {
namespace {

/// Nanoseconds as microseconds with all three fractional digits, so
/// parent/child containment survives the text round trip exactly.
std::string ns_as_us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, unit, true, value});
}

void Metrics::set_null(const std::string& name, const std::string& unit) {
  entries_.push_back({name, unit, false, 0});
}

void Metrics::set_or_null(const std::string& name, double value,
                          const std::string& unit) {
  if (std::isfinite(value) && value > 0) {
    set(name, value, unit);
  } else {
    set_null(name, unit);
  }
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char value[64] = "null";
    if (e.present) std::snprintf(value, sizeof(value), "%.17g", e.value);
    out += (i ? ", " : "") + json_quote(e.name) + ": {\"value\": " + value +
           ", \"unit\": " + json_quote(e.unit) + "}";
  }
  return out + "}";
}

void Checks::fail(const std::string& what) {
  ++attempted;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

std::uint64_t SpanRecorder::add(const std::string& name, const char* cat,
                                std::uint64_t start_ns,
                                std::uint64_t end_ns, std::uint64_t parent,
                                int track) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, cat, start_ns, std::max(start_ns, end_ns), id,
                    parent, track});
  return id;
}

void SpanRecorder::close(std::uint64_t id, std::uint64_t end_ns) {
  Span& s = spans_.at(id - 1);
  s.end_ns = std::max(s.start_ns, end_ns);
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  // Timestamps are relative to the earliest span so they stay small.
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "") << "{\"name\": " << json_quote(s.name)
      << ", \"cat\": \"" << s.cat << "\", \"ph\": \"X\", \"ts\": "
      << ns_as_us(s.start_ns - t0) << ", \"dur\": "
      << ns_as_us(s.end_ns - s.start_ns) << ", \"pid\": 1, \"tid\": "
      << s.track << ", \"args\": {\"id\": " << s.id
      << ", \"parent\": " << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

int window_of(std::uint64_t offset_ns, std::uint64_t span_ns) {
  if (span_ns == 0) return 0;
  const auto w = static_cast<int>(
      static_cast<double>(offset_ns) / static_cast<double>(span_ns) *
      kWindows);
  return std::clamp(w, 0, kWindows - 1);
}

double windowed_percentile(const Windows& w, double p) {
  std::vector<double> per_window;
  for (const auto& v : w) {
    if (!v.empty()) per_window.push_back(percentile(v, p));
  }
  return median(std::move(per_window));
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace perfbench
