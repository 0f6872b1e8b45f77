#include "autotune/tuner.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "autotune/space.h"
#include "core/alpha.h"
#include "core/quantized.h"
#include "runtime/timer.h"
#include "tensor/rng.h"

namespace ndirect {
namespace {

// Orderable key for deduplicating measured schedules.
auto schedule_key(const Schedule& s) {
  return std::make_tuple(s.vw, s.vk, s.tc, s.tk, s.th, s.ptn,
                         s.aot_filter);
}

}  // namespace

NdirectOptions schedule_to_options(const Schedule& s, int threads,
                                   ThreadPool* pool) {
  NdirectOptions o;
  o.force_rb = {s.vw, s.vk};
  o.force_tiling = {s.tc, s.tk, s.th};
  o.force_mapping = {s.ptn, std::max(1, threads / s.ptn)};
  o.aot_filter = s.aot_filter;
  o.generic_kernel_only = true;
  o.threads = threads;
  o.pool = pool;
  return o;
}

Tensor tuned_conv(const Tensor& input, const Tensor& filter,
                  const ConvParams& p, const Schedule& s, int threads,
                  ThreadPool* pool) {
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  if (threads <= 0) threads = static_cast<int>(tp.size());
  const NdirectConv conv(p, schedule_to_options(s, threads, &tp));
  return conv.run(input, filter);
}

double measure_schedule_gflops(const ConvParams& p, const Schedule& s,
                               const TuneOptions& opts) {
  ThreadPool& tp =
      opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const int threads =
      opts.threads > 0 ? opts.threads : static_cast<int>(tp.size());

  Tensor input = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor filter = make_filter_kcrs(p.K, p.C, p.R, p.S);
  fill_random(input, 99);
  fill_random(filter, 100);

  const NdirectConv conv(p, schedule_to_options(s, threads, &tp));
  (void)conv.run(input, filter);  // warm-up
  WallTimer t;
  int reps = 0;
  do {
    (void)conv.run(input, filter);
    ++reps;
  } while (t.seconds() < opts.measure_seconds);
  return static_cast<double>(p.flops()) * reps / t.seconds() / 1e9;
}

TuneResult tune_conv(const ConvParams& p, const TuneOptions& opts) {
  ThreadPool& tp =
      opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const int threads =
      opts.threads > 0 ? opts.threads : static_cast<int>(tp.size());

  ScheduleSpace space(p, threads, opts.seed);
  CostModel model;
  model.cache = opts.cache != nullptr ? *opts.cache : probe_host_cpu().cache;
  model.alpha = host_alpha();
  model.threads = threads;

  TuneResult result;
  std::map<decltype(schedule_key(Schedule{})), double> measured_cache;

  std::vector<TrialRecord> population;
  population.reserve(static_cast<std::size_t>(opts.population));
  for (int i = 0; i < opts.population; ++i) {
    population.push_back({space.sample(), 0.0, 0.0});
  }

  for (int gen = 0; gen < opts.generations; ++gen) {
    for (TrialRecord& rec : population) {
      rec.cost_score = model.score(rec.schedule, p);
      ++result.cost_evaluations;
    }
    std::sort(population.begin(), population.end(),
              [](const TrialRecord& a, const TrialRecord& b) {
                return a.cost_score > b.cost_score;
              });

    // Measure the model's top picks that were not measured before.
    int measured_this_gen = 0;
    for (TrialRecord& rec : population) {
      if (measured_this_gen >= opts.measure_top) break;
      const auto key = schedule_key(rec.schedule);
      auto it = measured_cache.find(key);
      if (it != measured_cache.end()) {
        rec.measured_gflops = it->second;
        continue;
      }
      rec.measured_gflops = measure_schedule_gflops(p, rec.schedule, opts);
      measured_cache[key] = rec.measured_gflops;
      ++result.measurements;
      ++measured_this_gen;
      result.measured.push_back(rec);
      if (rec.measured_gflops > result.best_gflops) {
        result.best_gflops = rec.measured_gflops;
        result.best = rec.schedule;
      }
    }

    if (gen + 1 == opts.generations) break;

    // Next generation: elites survive; the rest are mutations,
    // crossovers of elites, and fresh random samples.
    const int elites = std::max(1, opts.population / 4);
    std::vector<TrialRecord> next(
        population.begin(), population.begin() + elites);
    std::mt19937_64 rng(opts.seed + 17 * static_cast<std::uint64_t>(gen));
    while (static_cast<int>(next.size()) < opts.population) {
      const int roll =
          std::uniform_int_distribution<int>(0, 3)(rng);
      std::uniform_int_distribution<int> pick_elite(0, elites - 1);
      if (roll == 0) {
        next.push_back({space.sample(), 0.0, 0.0});
      } else if (roll == 1) {
        next.push_back({space.crossover(
                            population[static_cast<std::size_t>(
                                pick_elite(rng))].schedule,
                            population[static_cast<std::size_t>(
                                pick_elite(rng))].schedule),
                        0.0, 0.0});
      } else {
        next.push_back(
            {space.mutate(population[static_cast<std::size_t>(
                              pick_elite(rng))].schedule),
             0.0, 0.0});
      }
    }
    population = std::move(next);
  }
  return result;
}

Int8TuneResult autotune_int8_block(const ConvParams& p,
                                   double budget_seconds,
                                   ThreadPool* pool) {
  Int8TuneResult result;
  // Deterministic synthetic tensors: the tuner ranks blocks, it does
  // not validate numerics.
  std::vector<std::uint8_t> input(
      static_cast<std::size_t>(p.input_elems()));
  std::vector<std::int8_t> filter(
      static_cast<std::size_t>(p.filter_elems()));
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::uint8_t>((i * 97 + 13) & 0xff);
  }
  for (std::size_t i = 0; i < filter.size(); ++i) {
    filter[i] = static_cast<std::int8_t>(((i * 61 + 7) & 0xff) - 128);
  }
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(p.output_elems()));
  Int8Output dst;
  dst.i32 = out.data();
  const Int8Epilogue ep;
  const double flops = static_cast<double>(p.flops());

  // The blocks of the backend the engine will run (the 16-lane dot
  // grid on a VNNI host, the 4-lane Eq. 3 grid otherwise).
  const Int8Backend backend = int8_preferred_backend();
  WallTimer total;
  for (const RegisterBlock& rb : int8_microkernel_blocks(backend)) {
    if (!int8_block_feasible(rb.vw, rb.vk, p.S, backend)) continue;
    Int8ConvOptions opt;
    opt.backend = backend;
    opt.force_block = rb;
    opt.pool = pool;
    const Int8Conv conv(p, opt);
    const Int8Conv::PackedFilter packed = conv.pack_filter(filter.data());
    Int8BlockTrial trial{rb, 0.0};
    if (total.seconds() < budget_seconds) {
      conv.run(input.data(), 128, packed, ep, dst);  // warm
      int reps = 0;
      WallTimer t;
      do {
        conv.run(input.data(), 128, packed, ep, dst);
        ++reps;
      } while (t.seconds() < 0.005 &&
               total.seconds() < budget_seconds);
      trial.gflops = flops * reps / t.seconds() * 1e-9;
    }
    result.trials.push_back(trial);
    if (trial.gflops > result.best_gflops) {
      result.best_gflops = trial.gflops;
      result.best = rb;
    }
  }
  // Budget exhausted before anything was measured: fall back to the
  // engine's analytical block.
  if (result.best.vw == 0) result.best = int8_planned_block(p.S, backend);
  return result;
}

}  // namespace ndirect
