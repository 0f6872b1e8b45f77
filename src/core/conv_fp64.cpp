#include "core/conv_fp64.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "core/exec.h"
#include "simd/vec128.h"

namespace ndirect {

Fp64Plan solve_fp64_plan(const ConvParams& p, const CacheInfo& cache) {
  Fp64Plan plan;
  plan.rb = solve_register_block(p.S, kVecLanesF64, kNumVecRegs);
  // Eq. 1/2 count elements; doubles hold half as many per byte, which
  // is equivalent to solving with a half-sized cache.
  CacheInfo halved = cache;
  halved.l1d /= 2;
  halved.l2 /= 2;
  halved.l3 /= 2;
  plan.tiling = solve_tiling(halved, plan.rb, p);
  return plan;
}

namespace {

// Pack one (c, ih) row segment (zero-filled outside the input).
void pack_row_f64(double* dst, const double* image, int c, int ih, int iw0,
                  const ConvParams& p, int packw) {
  if (ih < 0 || ih >= p.H) {
    std::memset(dst, 0, sizeof(double) * static_cast<std::size_t>(packw));
    return;
  }
  const double* row = image +
                      (static_cast<std::int64_t>(c) * p.H + ih) * p.W;
  int t = 0;
  while (t < packw && iw0 + t < 0) dst[t++] = 0.0;
  int t_hi = packw;
  while (t_hi > t && iw0 + t_hi - 1 >= p.W) --t_hi;
  if (t_hi > t) {
    std::memcpy(dst + t, row + iw0 + t,
                sizeof(double) * static_cast<std::size_t>(t_hi - t));
  }
  for (int u = t_hi; u < packw; ++u) dst[u] = 0.0;
}

// The FP64 outer-product micro-kernel: vw x vk output tile, vec128d
// accumulators, runtime loop bounds (the datatype extension favours
// clarity; the FP32 path carries the unrolled forms).
void compute_tile_f64(const double* pack, const double* ftile,
                      std::int64_t f_c_stride, int tcn, const ConvParams& p,
                      int packw, int vw, int vk, double* out,
                      std::int64_t out_k_stride, int wn, int kn,
                      bool accumulate) {
  constexpr int kMaxW = 24, kMaxKv = 12;
  assert(vw <= kMaxW && vk / kVecLanesF64 <= kMaxKv);
  const int vkv = vk / kVecLanesF64;
  vec128d acc[kMaxW][kMaxKv];
  for (int w = 0; w < vw; ++w) {
    for (int j = 0; j < vkv; ++j) acc[w][j] = vzero_f64();
  }
  for (int c = 0; c < tcn; ++c) {
    const double* brows =
        pack + static_cast<std::int64_t>(c) * p.R * packw;
    const double* fc = ftile + c * f_c_stride;
    for (int r = 0; r < p.R; ++r) {
      const double* brow = brows + r * packw;
      const double* frow = fc + static_cast<std::int64_t>(r) * p.S * vk;
      for (int s = 0; s < p.S; ++s) {
        vec128d f[kMaxKv];
        for (int j = 0; j < vkv; ++j) {
          f[j] = vload_f64(frow + s * vk + kVecLanesF64 * j);
        }
        const double* b = brow + s;
        for (int w = 0; w < vw; ++w) {
          const vec128d x = vdup_f64(b[w * p.str]);
          for (int j = 0; j < vkv; ++j) {
            acc[w][j] = vfma_f64(acc[w][j], x, f[j]);
          }
        }
      }
    }
  }
  double tile[kMaxW][kMaxKv * kVecLanesF64];
  for (int w = 0; w < vw; ++w) {
    for (int j = 0; j < vkv; ++j) {
      vstore_f64(&tile[w][kVecLanesF64 * j], acc[w][j]);
    }
  }
  for (int w = 0; w < wn; ++w) {
    for (int k = 0; k < kn; ++k) {
      double* o = out + k * out_k_stride + w;
      *o = accumulate ? *o + tile[w][k] : tile[w][k];
    }
  }
}

// Transform the (kt, ct) filter tile to [kb][c][R][S][vk] doubles.
void transform_filter_tile_f64(const double* filter, const ConvParams& p,
                               int kt, int tkn, int ct, int tcn, int vk,
                               double* tile) {
  const int kb_count = (tkn + vk - 1) / vk;
  const std::int64_t crs = static_cast<std::int64_t>(p.C) * p.R * p.S;
  const std::int64_t rs = static_cast<std::int64_t>(p.R) * p.S;
  double* dst = tile;
  for (int kb = 0; kb < kb_count; ++kb) {
    for (int c = 0; c < tcn; ++c) {
      const std::int64_t src_c = static_cast<std::int64_t>(ct + c) * rs;
      for (std::int64_t e = 0; e < rs; ++e) {
        for (int ki = 0; ki < vk; ++ki) {
          const int k = kt + kb * vk + ki;
          *dst++ =
              (k < kt + tkn && k < p.K)
                  ? filter[static_cast<std::int64_t>(k) * crs + src_c + e]
                  : 0.0;
        }
      }
    }
  }
}

}  // namespace

void ndirect_conv_fp64(const double* input, const double* filter,
                       double* output, const ConvParams& p,
                       ThreadPool* pool) {
  if (!p.valid()) {
    throw std::invalid_argument("ndirect_conv_fp64: invalid convolution " +
                                p.to_string());
  }
  const Fp64Plan plan = solve_fp64_plan(p, probe_host_cpu().cache);
  const int vw = plan.rb.vw, vk = plan.rb.vk;
  const int tc = plan.tiling.tc;
  const std::int64_t tk_blocks = std::max(1, plan.tiling.tk / vk);
  const std::int64_t k_blocks = (p.K + vk - 1) / vk;
  const int packw = (vw - 1) * p.str + p.S;
  const int P = p.P(), Q = p.Q();
  const std::int64_t f_c_stride = std::int64_t{p.R} * p.S * vk;

  // Tiles are (output row, Tk chunk of K blocks) pairs; each carries the
  // full C reduction. Buffers hold doubles, two floats of scratch each.
  ThreadPool& tp = exec_pool(pool);
  TileGrid grid =
      row_grid(std::int64_t{p.N} * P, static_cast<int>(tp.size()));
  grid.cols = static_cast<int>((k_blocks + tk_blocks - 1) / tk_blocks);
  ExecOptions eo;
  eo.pool = &tp;
  eo.scratch[static_cast<int>(ScratchSlot::kPack)] =
      2 * static_cast<std::size_t>(tc) * p.R * packw;
  eo.scratch[static_cast<int>(ScratchSlot::kFilterTile)] =
      2 * static_cast<std::size_t>(tk_blocks) * vk * tc * p.R * p.S;
  run_tiles(grid, eo, [&](auto& w, int row, int kchunk) {
    auto* pack = reinterpret_cast<double*>(w.scratch(ScratchSlot::kPack));
    auto* ftile =
        reinterpret_cast<double*>(w.scratch(ScratchSlot::kFilterTile));
    const std::int64_t n = row / P;
    const int oh = row % P;
    const double* image = input + n * std::int64_t{p.C} * p.H * p.W;
    double* out_image = output + n * std::int64_t{p.K} * P * Q;
    const std::int64_t kb0 = std::int64_t{kchunk} * tk_blocks;
    const std::int64_t kbn = std::min(tk_blocks, k_blocks - kb0);

    for (int ct = 0; ct < p.C; ct += tc) {
      const int tcn = std::min(tc, p.C - ct);
      const bool first_c = ct == 0;
      w.timed(Counter::kTransformNs, [&] {
        transform_filter_tile_f64(filter, p, static_cast<int>(kb0) * vk,
                                  static_cast<int>(kbn) * vk, ct, tcn, vk,
                                  ftile);
      });
      for (int wv = 0; wv < Q; wv += vw) {
        const int wn = std::min(vw, Q - wv);
        // Packing micro-kernel (first kv iteration's operand).
        w.timed_pack([&] {
          for (int c = 0; c < tcn; ++c) {
            for (int r = 0; r < p.R; ++r) {
              pack_row_f64(
                  pack + (static_cast<std::int64_t>(c) * p.R + r) * packw,
                  image + static_cast<std::int64_t>(ct) * p.H * p.W, c,
                  oh * p.str + r - p.pad, wv * p.str - p.pad, p, packw);
            }
          }
        });
        w.timed(Counter::kMicrokernelNs, [&] {
          for (std::int64_t b = 0; b < kbn; ++b) {
            const std::int64_t kv = (kb0 + b) * vk;
            const int kn =
                static_cast<int>(std::min<std::int64_t>(vk, p.K - kv));
            compute_tile_f64(pack, ftile + b * tcn * f_c_stride,
                             f_c_stride, tcn, p, packw, vw, vk,
                             out_image + (kv * P + oh) * Q + wv,
                             std::int64_t{P} * Q, wn, kn, !first_c);
          }
        });
      }
    }
  });
}

void naive_conv_fp64(const double* input, const double* filter,
                     double* output, const ConvParams& p) {
  const int P = p.P(), Q = p.Q();
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          long double sum = 0;
          for (int c = 0; c < p.C; ++c)
            for (int r = 0; r < p.R; ++r) {
              const int ij = p.str * oj + r - p.pad;
              if (ij < 0 || ij >= p.H) continue;
              for (int s = 0; s < p.S; ++s) {
                const int ii = p.str * oi + s - p.pad;
                if (ii < 0 || ii >= p.W) continue;
                sum += static_cast<long double>(
                           input[((std::int64_t{n} * p.C + c) * p.H + ij) *
                                     p.W +
                                 ii]) *
                       filter[((std::int64_t{k} * p.C + c) * p.R + r) *
                                  p.S +
                              s];
              }
            }
          output[((std::int64_t{n} * p.K + k) * P + oj) * Q + oi] =
              static_cast<double>(sum);
        }
}

}  // namespace ndirect
