#include "core/conv_fp16.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/exec.h"
#include "core/microkernel.h"
#include "runtime/aligned_buffer.h"

namespace ndirect {
namespace {

// Widen one (c, ih) input row segment into the fp32 pack buffer,
// zero-filling outside the (padded) input.
void pack_row_fp16(float* dst, const fp16_t* image, int c, int ih, int iw0,
                   const ConvParams& p, int packw) {
  if (ih < 0 || ih >= p.H) {
    std::memset(dst, 0, sizeof(float) * static_cast<std::size_t>(packw));
    return;
  }
  const fp16_t* row =
      image + (static_cast<std::int64_t>(c) * p.H + ih) * p.W;
  for (int t = 0; t < packw; ++t) {
    const int iw = iw0 + t;
    dst[t] = (iw < 0 || iw >= p.W) ? 0.0f : fp16_to_fp32(row[iw]);
  }
}

}  // namespace

void ndirect_conv_fp16(const fp16_t* input, const fp16_t* filter,
                       fp16_t* output, const ConvParams& p,
                       ThreadPool* pool) {
  if (!p.valid()) {
    throw std::invalid_argument("ndirect_conv_fp16: invalid convolution " +
                                p.to_string());
  }
  const RegisterBlock rb = solve_register_block(p.S);
  const int vw = rb.vw, vk = rb.vk;
  const int packw = (vw - 1) * p.str + p.S;
  const int P = p.P(), Q = p.Q();
  const std::int64_t kb_count = (p.K + vk - 1) / vk;
  const std::int64_t f_c_stride = std::int64_t{p.R} * p.S * vk;

  // Operator setup: widen the filter once into the packed fp32 layout
  // [KB][C][R][S][vk] (K zero-padded).
  AlignedBuffer<float> packed_filter(
      static_cast<std::size_t>(kb_count) * p.C * p.R * p.S * vk);
  packed_filter.fill_zero();
  {
    const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
    const std::int64_t rs = std::int64_t{p.R} * p.S;
    for (int k = 0; k < p.K; ++k) {
      const std::int64_t kb = k / vk, ki = k % vk;
      for (int c = 0; c < p.C; ++c) {
        for (std::int64_t e = 0; e < rs; ++e) {
          packed_filter[static_cast<std::size_t>(
              ((kb * p.C + c) * rs + e) * vk + ki)] =
              fp16_to_fp32(filter[k * crs + c * rs + e]);
        }
      }
    }
  }

  // One tile per output row. Full-C pack buffer: the whole reduction
  // runs in one kernel call so fp32 accumulation completes before any
  // fp16 store.
  ThreadPool& tp = exec_pool(pool);
  ExecOptions eo;
  eo.pool = &tp;
  eo.scratch[static_cast<int>(ScratchSlot::kPack)] =
      static_cast<std::size_t>(p.C) * p.R * packw;
  eo.scratch[static_cast<int>(ScratchSlot::kAux0)] =
      static_cast<std::size_t>(vw) * vk;
  run_tiles(row_grid(std::int64_t{p.N} * P, static_cast<int>(tp.size())),
            eo, [&](auto& w, int row, int) {
    float* pack = w.scratch(ScratchSlot::kPack);
    float* staging = w.scratch(ScratchSlot::kAux0);
    const std::int64_t n = row / P;
    const int oh = row % P;
    const fp16_t* image = input + n * std::int64_t{p.C} * p.H * p.W;
    fp16_t* out_image = output + n * std::int64_t{p.K} * P * Q;

    for (int wv = 0; wv < Q; wv += vw) {
      const int wn = std::min(vw, Q - wv);
      w.timed_pack([&] {
        for (int c = 0; c < p.C; ++c) {
          for (int r = 0; r < p.R; ++r) {
            pack_row_fp16(
                pack + (static_cast<std::int64_t>(c) * p.R + r) * packw,
                image, c, oh * p.str + r - p.pad, wv * p.str - p.pad, p,
                packw);
          }
        }
      });
      w.timed(Counter::kMicrokernelNs, [&] {
        for (std::int64_t kb = 0; kb < kb_count; ++kb) {
          const std::int64_t kv = kb * vk;
          const int kn =
              static_cast<int>(std::min<std::int64_t>(vk, p.K - kv));
          MicroArgs a;
          a.pack = pack;
          a.pack_c_stride = std::int64_t{p.R} * packw;
          a.pack_r_stride = packw;
          a.ftile = packed_filter.data() + kb * p.C * f_c_stride;
          a.f_c_stride = f_c_stride;
          a.tc = p.C;
          a.R = p.R;
          a.S = p.S;
          a.str = p.str;
          a.packw = packw;
          a.out = staging;
          a.out_k_stride = vw;
          a.out_w_stride = 1;
          a.wn = wn;
          a.kn = kn;
          a.accumulate = false;
          compute_kernel_generic(a, vw, vk);
          // Narrow the finished fp32 tile into the fp16 output.
          for (int k = 0; k < kn; ++k) {
            fp16_t* orow = out_image + ((kv + k) * P + oh) * Q + wv;
            const float* srow = staging + k * vw;
            for (int x = 0; x < wn; ++x) orow[x] = fp32_to_fp16(srow[x]);
          }
        }
      });
    }
  });
}

void naive_conv_fp16(const fp16_t* input, const fp16_t* filter,
                     fp16_t* output, const ConvParams& p) {
  const int P = p.P(), Q = p.Q();
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          double sum = 0;
          for (int c = 0; c < p.C; ++c)
            for (int r = 0; r < p.R; ++r) {
              const int ij = p.str * oj + r - p.pad;
              if (ij < 0 || ij >= p.H) continue;
              for (int s = 0; s < p.S; ++s) {
                const int ii = p.str * oi + s - p.pad;
                if (ii < 0 || ii >= p.W) continue;
                sum += static_cast<double>(fp16_to_fp32(
                           input[((std::int64_t{n} * p.C + c) * p.H +
                                  ij) *
                                     p.W +
                                 ii])) *
                       fp16_to_fp32(
                           filter[((std::int64_t{k} * p.C + c) * p.R +
                                   r) *
                                      p.S +
                                  s]);
              }
            }
          output[((std::int64_t{n} * p.K + k) * P + oj) * Q + oi] =
              fp32_to_fp16(static_cast<float>(sum));
        }
}

}  // namespace ndirect
