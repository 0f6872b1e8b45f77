#include "core/depthwise.h"

#include <stdexcept>

#include "core/exec.h"
#include "simd/vec128.h"

namespace ndirect {
namespace {

// Depthwise micro-kernel: one output row (n, c, oj), vectorized over 4
// output columns; the reduction runs over (r, s) only — the C reduction
// of Algorithm 3 is removed, exactly as Section 10.2 prescribes.
// Interior columns take the SIMD path; borders and strided layers take
// the scalar path. The caller finishes the row with the epilogue while
// it is still in L1.
void depthwise_row(const float* chan, const float* frow_base,
                   float* out_row, const DepthwiseParams& p, int oj) {
  const int Q = p.Q();

  auto scalar_at = [&](int oi) {
    float sum = 0.0f;
    for (int r = 0; r < p.R; ++r) {
      const int ij = p.str * oj + r - p.pad;
      if (ij < 0 || ij >= p.H) continue;
      const float* in_row = chan + static_cast<std::int64_t>(ij) * p.W;
      const float* frow = frow_base + r * p.S;
      for (int s = 0; s < p.S; ++s) {
        const int ii = p.str * oi + s - p.pad;
        if (ii < 0 || ii >= p.W) continue;
        sum += in_row[ii] * frow[s];
      }
    }
    return sum;
  };

  if (p.str != 1) {
    for (int oi = 0; oi < Q; ++oi) out_row[oi] = scalar_at(oi);
    return;
  }

  const int lo = p.pad;
  const int hi = std::max(lo, std::min(Q, p.W - p.S + 1 + p.pad));
  for (int oi = 0; oi < lo; ++oi) out_row[oi] = scalar_at(oi);
  int oi = lo;
  // 2x4-wide register blocking over output columns.
  for (; oi + 8 <= hi; oi += 8) {
    vec128f acc0 = vzero(), acc1 = vzero();
    for (int r = 0; r < p.R; ++r) {
      const int ij = oj + r - p.pad;
      if (ij < 0 || ij >= p.H) continue;
      const float* in_row =
          chan + static_cast<std::int64_t>(ij) * p.W - p.pad + oi;
      const float* frow = frow_base + r * p.S;
      for (int s = 0; s < p.S; ++s) {
        const vec128f f = vdup(frow[s]);
        acc0 = vfma(acc0, vload(in_row + s), f);
        acc1 = vfma(acc1, vload(in_row + s + 4), f);
      }
    }
    vstore(out_row + oi, acc0);
    vstore(out_row + oi + 4, acc1);
  }
  for (; oi + 4 <= hi; oi += 4) {
    vec128f acc = vzero();
    for (int r = 0; r < p.R; ++r) {
      const int ij = oj + r - p.pad;
      if (ij < 0 || ij >= p.H) continue;
      const float* in_row =
          chan + static_cast<std::int64_t>(ij) * p.W - p.pad + oi;
      const float* frow = frow_base + r * p.S;
      for (int s = 0; s < p.S; ++s) {
        acc = vfma(acc, vload(in_row + s), vdup(frow[s]));
      }
    }
    vstore(out_row + oi, acc);
  }
  for (; oi < Q; ++oi) out_row[oi] = scalar_at(oi);
}

}  // namespace

Tensor depthwise_conv_nchw(const Tensor& input, const Tensor& filter,
                           const DepthwiseParams& p, ThreadPool* pool,
                           const ConvEpilogue& epi) {
  if (!p.valid()) {
    throw std::invalid_argument("depthwise_conv: invalid parameters");
  }
  if (input.layout() != Layout::NCHW || input.rank() != 4 ||
      input.dim(0) != p.N || input.dim(1) != p.C || input.dim(2) != p.H ||
      input.dim(3) != p.W) {
    throw std::invalid_argument("depthwise_conv: input must be NCHW "
                                "[N,C,H,W], got " +
                                input.shape_string());
  }
  if (filter.layout() != Layout::KCRS || filter.rank() != 4 ||
      filter.dim(0) != p.C || filter.dim(1) != 1 || filter.dim(2) != p.R ||
      filter.dim(3) != p.S) {
    throw std::invalid_argument("depthwise_conv: filter must be [C,1,R,S], "
                                "got " +
                                filter.shape_string());
  }

  const int P = p.P(), Q = p.Q();
  Tensor out = make_output_nchw(p.N, p.C, P, Q);
  const std::int64_t hw_in = std::int64_t{p.H} * p.W;
  const std::int64_t hw_out = std::int64_t{P} * Q;

  // One tile per (n, c) plane: channels are independent, so a tile is a
  // whole output plane with no reduction hazard (C is not a reduction
  // dimension here).
  ThreadPool& tp = exec_pool(pool);
  ExecOptions eo;
  eo.pool = &tp;
  run_tiles(row_grid(std::int64_t{p.N} * p.C, static_cast<int>(tp.size())),
            eo, [&](auto& w, int item, int) {
              const std::int64_t c = item % p.C;
              const std::int64_t n = item / p.C;
              const float* chan = input.data() + (n * p.C + c) * hw_in;
              const float* frow =
                  filter.data() + c * static_cast<std::int64_t>(p.R) * p.S;
              const std::int64_t plane = (n * p.C + c) * hw_out;
              const float* bias = epi.bias != nullptr ? epi.bias + c : nullptr;
              const bool finish =
                  bias != nullptr || epi.residual != nullptr || epi.relu;
              w.timed(Counter::kMicrokernelNs, [&] {
                for (int oj = 0; oj < P; ++oj) {
                  const std::int64_t row = plane + std::int64_t{oj} * Q;
                  depthwise_row(chan, frow, out.data() + row, p, oj);
                  if (finish) {
                    finish_row(out.data() + row, Q, bias,
                               epi.residual != nullptr ? epi.residual + row
                                                       : nullptr,
                               epi.relu);
                  }
                }
              });
            });
  return out;
}

Tensor depthwise_conv_reference(const Tensor& input, const Tensor& filter,
                                const DepthwiseParams& p) {
  const int P = p.P(), Q = p.Q();
  Tensor out = make_output_nchw(p.N, p.C, P, Q);
  for (int n = 0; n < p.N; ++n)
    for (int c = 0; c < p.C; ++c)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          double sum = 0;
          for (int r = 0; r < p.R; ++r) {
            const int ij = p.str * oj + r - p.pad;
            if (ij < 0 || ij >= p.H) continue;
            for (int s = 0; s < p.S; ++s) {
              const int ii = p.str * oi + s - p.pad;
              if (ii < 0 || ii >= p.W) continue;
              sum += static_cast<double>(input.at4(n, c, ij, ii)) *
                     static_cast<double>(filter.at4(c, 0, r, s));
            }
          }
          out.at4(n, c, oj, oi) = static_cast<float>(sum);
        }
  return out;
}

}  // namespace ndirect
