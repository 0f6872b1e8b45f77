#include "core/grouped.h"

#include <stdexcept>

#include "core/exec.h"

namespace ndirect {

Tensor grouped_conv_nchw(const Tensor& input, const Tensor& filter,
                         const ConvParams& p, int groups,
                         const NdirectOptions& options) {
  if (groups < 1 || p.C % groups != 0 || p.K % groups != 0) {
    throw std::invalid_argument(
        "grouped_conv: groups must divide C and K");
  }
  const int cg = p.C / groups, kg = p.K / groups;
  if (filter.rank() != 4 || filter.dim(0) != p.K || filter.dim(1) != cg ||
      filter.dim(2) != p.R || filter.dim(3) != p.S) {
    throw std::invalid_argument(
        "grouped_conv: filter must be [K, C/groups, R, S]");
  }
  if (input.rank() != 4 || input.dim(0) != p.N || input.dim(1) != p.C ||
      input.dim(2) != p.H || input.dim(3) != p.W) {
    throw std::invalid_argument("grouped_conv: input must be NCHW " +
                                p.to_string());
  }

  const int P = p.P(), Q = p.Q();
  Tensor out = make_output_nchw(p.N, p.K, P, Q);

  // One plan serves every (image, group) pair: a batch-1 convolution on
  // the group's channel slice.
  ConvParams pg = p;
  pg.N = 1;
  pg.C = cg;
  pg.K = kg;

  const std::int64_t in_group = std::int64_t{cg} * p.H * p.W;
  const std::int64_t out_group = std::int64_t{kg} * P * Q;
  const std::int64_t flt_group =
      std::int64_t{kg} * cg * p.R * p.S;

  ThreadPool& tp = exec_pool(options.pool);
  const int threads = options.threads > 0 ? options.threads
                                          : static_cast<int>(tp.size());
  const std::int64_t jobs = std::int64_t{p.N} * groups;

  auto run_job = [&](const NdirectConv& conv, std::int64_t job) {
    const std::int64_t n = job / groups;
    const std::int64_t g = job % groups;
    conv.run_into(input.data() + n * p.C * p.H * p.W + g * in_group,
                  filter.data() + g * flt_group,
                  out.data() + std::int64_t{n} * p.K * P * Q +
                      g * out_group);
  };

  if (threads > 1 && jobs >= threads) {
    // Enough (image, group) pairs to occupy every core: one tile per
    // pair, each running its group's convolution single-thread (a
    // one-worker run executes inline on the claiming worker, so nesting
    // is deadlock-free, and its scratch sits one arena level deeper).
    // Each pair writes a disjoint output block. The sinks describe this
    // outer run; the inner runs report nothing.
    NdirectOptions inner = options;
    inner.pool = nullptr;
    inner.threads = 1;
    inner.force_mapping = {1, 1};
    inner.extra_stealers = 0;
    inner.telemetry = nullptr;
    inner.phase_timer = nullptr;
    inner.sched_stats = nullptr;
    const NdirectConv conv(pg, inner);
    ExecOptions eo;
    eo.pool = &tp;
    eo.stealing = options.schedule == SchedulePolicy::kStealing;
    eo.telemetry = options.telemetry;
    eo.phase_timer = options.phase_timer;
    eo.sched_stats = options.sched_stats;
    run_tiles(row_grid(jobs, threads), eo, [&](auto& w, int job, int) {
      w.timed(Counter::kMicrokernelNs, [&] { run_job(conv, job); });
    });
  } else {
    // Few groups: let each group's convolution use the whole grid.
    const NdirectConv conv(pg, options);
    for (std::int64_t job = 0; job < jobs; ++job) run_job(conv, job);
  }
  return out;
}

Tensor grouped_conv_reference(const Tensor& input, const Tensor& filter,
                              const ConvParams& p, int groups) {
  const int cg = p.C / groups, kg = p.K / groups;
  const int P = p.P(), Q = p.Q();
  Tensor out = make_output_nchw(p.N, p.K, P, Q);
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k) {
      const int g = k / kg;
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          double sum = 0;
          for (int ci = 0; ci < cg; ++ci) {
            const int c = g * cg + ci;
            for (int r = 0; r < p.R; ++r) {
              const int ij = p.str * oj + r - p.pad;
              if (ij < 0 || ij >= p.H) continue;
              for (int s = 0; s < p.S; ++s) {
                const int ii = p.str * oi + s - p.pad;
                if (ii < 0 || ii >= p.W) continue;
                sum += static_cast<double>(input.at4(n, c, ij, ii)) *
                       static_cast<double>(filter.at4(k, ci, r, s));
              }
            }
          }
          out.at4(n, k, oj, oi) = static_cast<float>(sum);
        }
    }
  return out;
}

}  // namespace ndirect
