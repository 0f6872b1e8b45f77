// Evolutionary schedule search (the Ansor-equivalent tuner).
//
// Mirrors Ansor's structure at our scale: a large sampled space, a cost
// model ranking every candidate, hardware measurement of only the most
// promising ones, and evolution (elites + mutation + crossover + fresh
// samples) across generations. The resulting schedule executes through
// the generic runtime-parameterized kernel, standing in for
// compiler-generated code (see schedule.h).
#pragma once

#include <cstdint>
#include <vector>

#include "autotune/cost_model.h"
#include "autotune/schedule.h"
#include "core/ndirect.h"

namespace ndirect {

struct TuneOptions {
  int generations = 8;
  int population = 32;
  int measure_top = 4;      ///< schedules measured per generation
  std::uint64_t seed = 1;
  int threads = 0;          ///< 0 = pool size
  ThreadPool* pool = nullptr;
  double measure_seconds = 0.05;  ///< min wall time per measurement
  const CacheInfo* cache = nullptr;  ///< nullptr = host cache
};

struct TrialRecord {
  Schedule schedule;
  double cost_score = 0;
  double measured_gflops = 0;  ///< 0 if never measured
};

struct TuneResult {
  Schedule best;
  double best_gflops = 0;
  int cost_evaluations = 0;
  int measurements = 0;
  std::vector<TrialRecord> measured;  ///< every hardware measurement
};

/// Translate a schedule into engine options (forced plan + generic
/// kernel). `threads` must match the value the schedule was tuned for.
NdirectOptions schedule_to_options(const Schedule& s, int threads,
                                   ThreadPool* pool);

/// Execute a convolution under a tuned schedule.
Tensor tuned_conv(const Tensor& input, const Tensor& filter,
                  const ConvParams& p, const Schedule& s, int threads = 0,
                  ThreadPool* pool = nullptr);

/// Measure a schedule's throughput on random tensors of shape `p`.
double measure_schedule_gflops(const ConvParams& p, const Schedule& s,
                               const TuneOptions& opts);

/// Run the evolutionary search.
TuneResult tune_conv(const ConvParams& p, const TuneOptions& opts = {});

// ---------------------------------------------------------------------------
// Int8 block tuning
// ---------------------------------------------------------------------------

struct Int8BlockTrial {
  RegisterBlock block{};
  double gflops = 0;  ///< fp32-equivalent throughput
};

struct Int8TuneResult {
  RegisterBlock best{};
  double best_gflops = 0;
  std::vector<Int8BlockTrial> trials;  ///< every block measured
};

/// Exhaustively measure every (Vw, Vk) register block the int8 policy
/// registry instantiates for `p`'s kernel width on the preferred
/// backend (the 16-lane grid on a VNNI host, the 4-lane Eq. 3 grid
/// otherwise — small enough to sweep instead of evolve) and return the
/// fastest. `budget_seconds` bounds total measurement
/// wall time; blocks past the budget keep the analytical order.
Int8TuneResult autotune_int8_block(const ConvParams& p,
                                   double budget_seconds = 1.0,
                                   ThreadPool* pool = nullptr);

}  // namespace ndirect
