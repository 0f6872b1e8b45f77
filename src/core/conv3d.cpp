#include "core/conv3d.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace ndirect {
namespace {

// Gather the depth-d slice of [N,C,D,H,W] into a contiguous NCHW tensor.
// The (n, c) copies are independent; dynamic claiming lets the copy
// bandwidth scale with whatever cores are free between conv calls.
void gather_input_slice(const Tensor& input, const Conv3dParams& p, int d,
                        Tensor& slice, ThreadPool& tp) {
  const std::int64_t hw = std::int64_t{p.H} * p.W;
  const std::size_t work = static_cast<std::size_t>(p.N) * p.C;
  tp.parallel_for_dynamic(
      work, std::max<std::size_t>(1, work / (4 * tp.size())),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t nc = begin; nc < end; ++nc) {
          const float* src =
              input.data() +
              ((static_cast<std::int64_t>(nc) * p.D + d) * hw);
          float* dst = slice.data() + static_cast<std::int64_t>(nc) * hw;
          std::memcpy(dst, src,
                      sizeof(float) * static_cast<std::size_t>(hw));
        }
      });
}

// Gather the kernel-depth-t slice of [K,C,T,R,S] into KCRS.
void gather_filter_slice(const Tensor& filter, const Conv3dParams& p,
                         int t, Tensor& slice) {
  const std::int64_t rs = std::int64_t{p.R} * p.S;
  for (int k = 0; k < p.K; ++k) {
    for (int c = 0; c < p.C; ++c) {
      const float* src =
          filter.data() + ((std::int64_t{k} * p.C + c) * p.T + t) * rs;
      float* dst = slice.data() + (std::int64_t{k} * p.C + c) * rs;
      std::memcpy(dst, src, sizeof(float) * static_cast<std::size_t>(rs));
    }
  }
}

}  // namespace

Tensor conv3d_ndirect(const Tensor& input, const Tensor& filter,
                      const Conv3dParams& p, ThreadPool* pool) {
  if (!p.valid()) {
    throw std::invalid_argument("conv3d: invalid parameters");
  }
  if (input.rank() != 5 || input.dim(0) != p.N || input.dim(1) != p.C ||
      input.dim(2) != p.D || input.dim(3) != p.H || input.dim(4) != p.W) {
    throw std::invalid_argument("conv3d: input must be [N,C,D,H,W], got " +
                                input.shape_string());
  }
  if (filter.rank() != 5 || filter.dim(0) != p.K || filter.dim(1) != p.C ||
      filter.dim(2) != p.T || filter.dim(3) != p.R || filter.dim(4) != p.S) {
    throw std::invalid_argument("conv3d: filter must be [K,C,T,R,S], got " +
                                filter.shape_string());
  }

  const int Dout = p.Dout(), P = p.P(), Q = p.Q();
  Tensor out({p.N, p.K, Dout, P, Q}, Layout::Linear);
  out.fill_zero();

  const ConvParams p2{.N = p.N, .C = p.C, .H = p.H, .W = p.W, .K = p.K,
                      .R = p.R, .S = p.S, .str = p.str, .pad = p.pad};
  NdirectOptions opts;
  opts.pool = pool;
  const NdirectConv conv2d(p2, opts);  // one plan serves every slice

  Tensor in_slice = make_input_nchw(p.N, p.C, p.H, p.W);
  Tensor flt_slice = make_filter_kcrs(p.K, p.C, p.R, p.S);
  const std::int64_t out_plane = std::int64_t{P} * Q;

  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  for (int t = 0; t < p.T; ++t) {
    gather_filter_slice(filter, p, t, flt_slice);
    for (int od = 0; od < Dout; ++od) {
      const int d = od * p.str + t - p.pad_d;
      if (d < 0 || d >= p.D) continue;  // depth padding contributes zero
      gather_input_slice(input, p, d, in_slice, tp);
      const Tensor partial = conv2d.run(in_slice, flt_slice);
      // Accumulate the 2D result into the od output plane. Each (n, k)
      // pair owns a disjoint output plane, so the claims are race-free.
      const std::size_t planes = static_cast<std::size_t>(p.N) * p.K;
      tp.parallel_for_dynamic(
          planes, std::max<std::size_t>(1, planes / (4 * tp.size())),
          [&](std::size_t begin, std::size_t end) {
            for (std::size_t nk = begin; nk < end; ++nk) {
              const float* src =
                  partial.data() +
                  static_cast<std::int64_t>(nk) * out_plane;
              float* dst =
                  out.data() +
                  (static_cast<std::int64_t>(nk) * Dout + od) * out_plane;
              for (std::int64_t i = 0; i < out_plane; ++i)
                dst[i] += src[i];
            }
          });
    }
  }
  return out;
}

Tensor conv3d_reference(const Tensor& input, const Tensor& filter,
                        const Conv3dParams& p) {
  const int Dout = p.Dout(), P = p.P(), Q = p.Q();
  Tensor out({p.N, p.K, Dout, P, Q}, Layout::Linear);
  auto in_at = [&](int n, int c, int d, int h, int w) {
    return input.data()[(((std::int64_t{n} * p.C + c) * p.D + d) * p.H +
                         h) *
                            p.W +
                        w];
  };
  auto flt_at = [&](int k, int c, int t, int r, int s) {
    return filter.data()[(((std::int64_t{k} * p.C + c) * p.T + t) * p.R +
                          r) *
                             p.S +
                         s];
  };
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k)
      for (int od = 0; od < Dout; ++od)
        for (int oj = 0; oj < P; ++oj)
          for (int oi = 0; oi < Q; ++oi) {
            double sum = 0;
            for (int c = 0; c < p.C; ++c)
              for (int t = 0; t < p.T; ++t) {
                const int d = od * p.str + t - p.pad_d;
                if (d < 0 || d >= p.D) continue;
                for (int r = 0; r < p.R; ++r) {
                  const int ij = oj * p.str + r - p.pad;
                  if (ij < 0 || ij >= p.H) continue;
                  for (int s = 0; s < p.S; ++s) {
                    const int ii = oi * p.str + s - p.pad;
                    if (ii < 0 || ii >= p.W) continue;
                    sum += static_cast<double>(in_at(n, c, d, ij, ii)) *
                           static_cast<double>(flt_at(k, c, t, r, s));
                  }
                }
              }
            out.data()[(((std::int64_t{n} * p.K + k) * Dout + od) * P +
                        oj) *
                           Q +
                       oi] = static_cast<float>(sum);
          }
  return out;
}

}  // namespace ndirect
