// Wall-clock timing utilities used by the benchmark harnesses and by the
// Fig. 1a phase-breakdown instrumentation.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>

namespace ndirect {

/// Monotonic wall-clock stopwatch with microsecond-or-better resolution.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates named phase durations (e.g. "im2col", "packing",
/// "micro-kernel") across repeated runs; used for the Fig. 1a breakdown.
///
/// Thread-safe: add() and the readers take an internal mutex, so one
/// timer can be shared by concurrently running ops. The exception is
/// phases(), which returns a reference into the map — call it only
/// while no writer is active (i.e. after the run being profiled has
/// completed).
class PhaseTimer {
 public:
  /// RAII scope: adds the scope's duration to the named phase on exit.
  class Scope {
   public:
    Scope(PhaseTimer& owner, std::string name)
        : owner_(owner), name_(std::move(name)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { owner_.add(name_, timer_.seconds()); }

   private:
    PhaseTimer& owner_;
    std::string name_;
    WallTimer timer_;
  };

  Scope scope(std::string name) { return Scope(*this, std::move(name)); }

  void add(const std::string& name, double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    phases_[name] += seconds;
    ++counts_[name];
  }

  /// Number of add() calls recorded for a phase (0 if never seen).
  /// Distinguishes "phase ran fast" from "phase never ran" — e.g. the
  /// packed weights must drive the "transform" count to zero on
  /// steady-state inference calls.
  long count(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

  double total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_locked();
  }

  double seconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seconds_locked(name);
  }

  /// Phase share in [0,1] of the total accumulated time (0 if empty).
  double fraction(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const double t = total_locked();
    return t > 0 ? seconds_locked(name) / t : 0.0;
  }

  /// Unsynchronized view; only valid while no add() can be running.
  const std::map<std::string, double>& phases() const { return phases_; }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    phases_.clear();
    counts_.clear();
  }

 private:
  double total_locked() const {
    double t = 0;
    for (const auto& [_, s] : phases_) t += s;
    return t;
  }

  double seconds_locked(const std::string& name) const {
    auto it = phases_.find(name);
    return it == phases_.end() ? 0.0 : it->second;
  }

  mutable std::mutex mutex_;
  std::map<std::string, double> phases_;
  std::map<std::string, long> counts_;
};

}  // namespace ndirect
