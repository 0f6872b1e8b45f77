#include "core/quantized.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/exec.h"
#include "core/fai.h"
#include "runtime/aligned_buffer.h"
#include "simd/vec128.h"
#include "simd/vec128_int8.h"

namespace ndirect {

std::int32_t choose_qmax_int8(std::int64_t reduction_len) {
  // A tap's true product is (u - zp) * w with |u - zp| <= 255 and
  // |w| <= q, so len * 255 * q <= 2^31 - 1 keeps the true sum in int32:
  // q = floor((2^31 - 1) / (255 * len)), exact in integers (66311 taps
  // admit 127, 66312 only 126).
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  if (reduction_len < 1) reduction_len = 1;
  if (reduction_len >= kMax) return 1;
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(kMax / (255 * reduction_len), 1, 127));
}

namespace {

/// a + b modulo 2^32. The int8 compensation is added this way: the
/// compensated sums are exact whenever the true result fits int32,
/// even where the raw accumulator or the compensation term alone does
/// not (DESIGN.md §14).
inline std::int32_t wrap_add(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

/// One element of the activation quantizer: lrintf (the current, i.e.
/// round-to-nearest-even, mode), truncated to int32, plus the zero
/// point, clamped to u8. The vector passes below defer to it wherever
/// a lane is not a plain in-range number.
inline std::uint8_t quantize_u8(float x, float inv, std::int32_t zp) {
  const std::int32_t v =
      wrap_add(static_cast<std::int32_t>(std::lrintf(x * inv)), zp);
  return static_cast<std::uint8_t>(std::clamp<std::int32_t>(v, 0, 255));
}

}  // namespace

QuantizedActivation quantize_activation_u8(const float* data,
                                           std::size_t n,
                                           std::uint8_t* values) {
  // Range pass. lo = min(lo, x) and hi = max(hi, x) keep the running
  // value when x is NaN; MINPS/MAXPS with x first do the same, and
  // neither ever trades +0 for -0, so the lanes reduce to the scalar
  // loop's bits.
  float lo = 0.0f, hi = 0.0f;  // range includes 0 (exact padding)
  std::size_t i = 0;
#if defined(NDIRECT_SIMD_SSE)
  {
    __m128 vlo[4], vhi[4];
    for (int q = 0; q < 4; ++q) vlo[q] = vhi[q] = _mm_setzero_ps();
    for (; i + 16 <= n; i += 16) {
      for (int q = 0; q < 4; ++q) {
        const __m128 x = _mm_loadu_ps(data + i + 4 * q);
        vlo[q] = _mm_min_ps(x, vlo[q]);
        vhi[q] = _mm_max_ps(x, vhi[q]);
      }
    }
    float l[16], h[16];
    for (int q = 0; q < 4; ++q) {
      _mm_storeu_ps(l + 4 * q, vlo[q]);
      _mm_storeu_ps(h + 4 * q, vhi[q]);
    }
    for (int t = 0; t < 16; ++t) {
      lo = std::min(lo, l[t]);
      hi = std::max(hi, h[t]);
    }
  }
#endif
  for (std::size_t t = i; t < n; ++t) {
    lo = std::min(lo, data[t]);
    hi = std::max(hi, data[t]);
  }
  QuantizedActivation q;
  const float range = hi - lo;
  q.scale = range > 0 ? range / 255.0f : 1.0f;
  const float inv = 1.0f / q.scale;
  q.zero_point = std::clamp<std::int32_t>(
      static_cast<std::int32_t>(std::lrintf(-lo * inv)), 0, 255);
  const std::int32_t zp = q.zero_point;

  // Round-convert-clamp pass: CVTPS2DQ rounds like lrintf wherever
  // |x * inv| < 2^30, and PACKSSDW + PACKUSWB clamp to [0, 255]. A
  // block holding a NaN, an infinity or a huge product (CVTPS2DQ's
  // INT_MIN is not what lrintf leaves) runs quantize_u8 instead.
  i = 0;
#if defined(NDIRECT_SIMD_SSE)
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 limit = _mm_set1_ps(1073741824.0f);  // 2^30
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const __m128i vzp = _mm_set1_epi32(zp);
  for (; i + 16 <= n; i += 16) {
    __m128 y[4];
    __m128 ok = _mm_castsi128_ps(_mm_set1_epi32(-1));
    for (int b = 0; b < 4; ++b) {
      y[b] = _mm_mul_ps(_mm_loadu_ps(data + i + 4 * b), vinv);
      ok = _mm_and_ps(ok, _mm_cmplt_ps(_mm_and_ps(y[b], abs_mask), limit));
    }
    if (_mm_movemask_ps(ok) != 0xF) {
      for (std::size_t t = i; t < i + 16; ++t) {
        values[t] = quantize_u8(data[t], inv, zp);
      }
      continue;
    }
    __m128i r[4];
    for (int b = 0; b < 4; ++b) {
      r[b] = _mm_add_epi32(_mm_cvtps_epi32(y[b]), vzp);
    }
    const __m128i packed = _mm_packus_epi16(_mm_packs_epi32(r[0], r[1]),
                                            _mm_packs_epi32(r[2], r[3]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(values + i), packed);
  }
#endif
  for (; i < n; ++i) values[i] = quantize_u8(data[i], inv, zp);
  return q;
}

QuantizedActivation quantize_activation_u8(const float* data,
                                           std::size_t n) {
  std::vector<std::uint8_t> values(n);
  QuantizedActivation q = quantize_activation_u8(data, n, values.data());
  q.values = std::move(values);
  return q;
}

QuantizedFilterI8 quantize_filter_i8(const float* filter,
                                     const ConvParams& p) {
  const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
  const std::int32_t qmax = choose_qmax_int8(crs);
  QuantizedFilterI8 q;
  q.values.resize(static_cast<std::size_t>(p.K) * crs);
  q.scales.resize(static_cast<std::size_t>(p.K));
  for (int k = 0; k < p.K; ++k) {
    const float* src = filter + k * crs;
    float max_abs = 0.0f;
    for (std::int64_t e = 0; e < crs; ++e) {
      max_abs = std::max(max_abs, std::fabs(src[e]));
    }
    const float scale =
        max_abs > 0 ? max_abs / static_cast<float>(qmax) : 1.0f;
    q.scales[static_cast<std::size_t>(k)] = scale;
    const float inv = 1.0f / scale;
    std::int8_t* dst = q.values.data() + k * crs;
    for (std::int64_t e = 0; e < crs; ++e) {
      const auto r = static_cast<std::int32_t>(std::lrintf(src[e] * inv));
      dst[e] = static_cast<std::int8_t>(
          std::clamp<std::int32_t>(r, -qmax, qmax));
    }
  }
  return q;
}

namespace {

/// The execution shape: 1x1/stride-1/no-pad convolutions flatten the
/// P x Q output plane into one long row (the fp32 engine's row
/// flattening), so late small-spatial layers don't pay a ragged tile
/// per 7-wide row.
struct I8ExecShape {
  int H, W, P, Q;
};

I8ExecShape i8_exec_shape(const ConvParams& p) {
  if (p.R == 1 && p.S == 1 && p.str == 1 && p.pad == 0) {
    return {1, p.H * p.W, 1, p.P() * p.Q()};
  }
  return {p.H, p.W, p.P(), p.Q()};
}

/// Pack one input window: [c4][R][rowbytes], every byte XORed with
/// `mask` — 0x80 (u - 128 as s8) for the s8 x s8 kernels, 0 (raw u8) for
/// VNNI. Spatial padding and the c >= C channel lanes fill with
/// `border` = zp ^ mask, so border taps cancel exactly under the
/// zero-point compensation and padded channel lanes meet zero filter
/// taps.
void i8_pack_window(std::int8_t* dst, const std::uint8_t* image, int C,
                    int H, int W, int c4, int R, int ih0, int iw0,
                    int packw, int rowbytes, std::uint8_t mask,
                    std::int8_t border) {
  for (int g = 0; g < c4; ++g) {
    for (int r = 0; r < R; ++r) {
      std::int8_t* drow =
          dst + (static_cast<std::int64_t>(g) * R + r) * rowbytes;
      std::memset(drow, border, static_cast<std::size_t>(rowbytes));
      const int ih = ih0 + r;
      if (ih < 0 || ih >= H) continue;
      const int t0 = std::max(0, -iw0);
      const int t1 = std::min(packw, W - iw0);
      for (int j = 0; j < 4; ++j) {
        const int c = 4 * g + j;
        if (c >= C) break;
        const std::uint8_t* row =
            image + (static_cast<std::int64_t>(c) * H + ih) * W + iw0;
        std::int8_t* d = drow + j;
        for (int t = t0; t < t1; ++t) {
          d[4 * t] = static_cast<std::int8_t>(row[t] ^ mask);
        }
      }
    }
  }
}

/// Finish one vw x kn accumulator tile: add the zero-point compensation
/// comp_zp * rowsum[k] (comp_zp = o - zp for the packing offset o) and
/// store through the epilogue mode. Shared by every backend, so outputs
/// are bitwise identical whenever the compensated accumulators are.
void i8_store_tile(const Int8Epilogue& ep, const Int8Output& out,
                   const std::int32_t* acc, const std::int32_t* rowsum,
                   std::int32_t comp_zp, int vw, int wn, int kn,
                   std::int64_t kv, std::int64_t k_stride,
                   std::int64_t base) {
  for (int k = 0; k < kn; ++k) {
    const std::int64_t kk = kv + k;
    const std::int32_t* arow = acc + static_cast<std::int64_t>(k) * vw;
    const std::int64_t off = base + kk * k_stride;
    const auto cadd = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(comp_zp) *
        static_cast<std::uint32_t>(rowsum[kk]));
    if (out.f32 != nullptr) {
      float* orow = out.f32 + off;
      const float* rrow =
          ep.residual != nullptr ? ep.residual + off : nullptr;
      const vec128f dq = vdup(ep.dequant_scale[kk]);
      const vec128f bb =
          vdup(ep.bias != nullptr ? ep.bias[kk] : 0.0f);
      const vec128i cc = vdup_i32(cadd);
      for (int w0 = 0; w0 < wn; w0 += 4) {
        const int m = std::min(4, wn - w0);
        vec128f v = vfma(
            bb, vcvt_f32_i32(vadd_i32(vload_i32(arow + w0), cc)), dq);
        if (rrow != nullptr) {
          v = vadd(v, m == 4 ? vload(rrow + w0) : vload_lanes(rrow + w0, m));
        }
        if (ep.relu) v = vrelu(v);
        if (m == 4) {
          vstore(orow + w0, v);
        } else {
          vstore_lanes(orow + w0, v, m);
        }
      }
    } else if (out.s8 != nullptr) {
      std::int8_t* orow = out.s8 + off;
      const float mult = ep.requant_scale[kk];
      const std::int32_t badd =
          ep.bias_i32 != nullptr ? ep.bias_i32[kk] : 0;
      for (int w = 0; w < wn; ++w) {
        const std::int32_t a = wrap_add(wrap_add(arow[w], cadd), badd);
        // Round-to-nearest-even (nearbyintf under the default
        // FE_TONEAREST mode), then saturate to the symmetric [-127,
        // 127] range around the output zero point.
        std::int32_t q = static_cast<std::int32_t>(std::nearbyintf(
                             static_cast<float>(a) * mult)) +
                         ep.out_zero_point;
        if (ep.relu) q = std::max(q, ep.out_zero_point);
        orow[w] = static_cast<std::int8_t>(
            std::clamp<std::int32_t>(q, -127, 127));
      }
    } else {
      std::int32_t* orow = out.i32 + off;
      const vec128i cc = vdup_i32(cadd);
      int w = 0;
      for (; w + 4 <= wn; w += 4) {
        vstore_i32(orow + w, vadd_i32(vload_i32(arow + w), cc));
      }
      for (; w < wn; ++w) orow[w] = wrap_add(arow[w], cadd);
    }
  }
}

}  // namespace

Int8Conv::Int8Conv(const ConvParams& p, const Int8ConvOptions& opt)
    : p_(p), opt_(opt) {
  if (!p.valid()) {
    throw std::invalid_argument("Int8Conv: invalid convolution " +
                                p.to_string());
  }
  rb_ = (opt_.force_block.vw > 0 && opt_.force_block.vk > 0)
            ? opt_.force_block
            : int8_planned_block(p_.S, opt_.backend);
  kres_ = resolve_int8_kernel(rb_.vw, rb_.vk, p_.S, p_.str, opt_.backend);
}

Int8Backend Int8Conv::backend() const {
  return kres_.fn != nullptr ? kres_.backend : Int8Backend::kScalar;
}

Int8Conv::PackedFilter Int8Conv::pack_filter(
    const std::int8_t* filter) const {
  const int vk = rb_.vk;
  const std::int64_t c4 = (p_.C + 3) / 4;
  const std::int64_t kb_count = (p_.K + vk - 1) / vk;
  const std::int64_t rs = std::int64_t{p_.R} * p_.S;
  const std::int64_t crs = std::int64_t{p_.C} * rs;
  const std::int64_t tile = c4 * rs * vk * 4;  // bytes per kb
  PackedFilter pf;
  pf.data.reset(static_cast<std::size_t>(kb_count * tile));
  pf.data.fill_zero();
  pf.rowsum.assign(static_cast<std::size_t>(p_.K), 0);
  for (int k = 0; k < p_.K; ++k) {
    const std::int64_t kb = k / vk, ki = k % vk;
    std::int32_t sum = 0;
    for (int c = 0; c < p_.C; ++c) {
      const std::int64_t g = c / 4, j = c % 4;
      const std::int8_t* src = filter + k * crs + c * rs;
      // dst tap (kb, g, r, s): vector byte ki*4 + j of the vk*4 block.
      std::int8_t* dst =
          pf.data.data() + kb * tile + g * rs * vk * 4 + ki * 4 + j;
      for (std::int64_t e = 0; e < rs; ++e) {
        dst[e * vk * 4] = src[e];
        sum += src[e];
      }
    }
    pf.rowsum[static_cast<std::size_t>(k)] = sum;
  }
  return pf;
}

void Int8Conv::run(const std::uint8_t* input, int in_zero_point,
                   const std::int8_t* filter, const Int8Epilogue& ep,
                   const Int8Output& out, Int8RunStats* stats) const {
  run(input, in_zero_point, pack_filter(filter), ep, out, stats);
}

void Int8Conv::run(const std::uint8_t* input, int in_zero_point,
                   const PackedFilter& filter, const Int8Epilogue& ep,
                   const Int8Output& out, Int8RunStats* stats) const {
  if ((out.i32 != nullptr) + (out.s8 != nullptr) + (out.f32 != nullptr) !=
      1) {
    throw std::invalid_argument(
        "Int8Conv::run: set exactly one of Int8Output::i32/s8/f32");
  }
  if (ep.residual != nullptr && out.f32 == nullptr) {
    throw std::invalid_argument(
        "Int8Conv::run: a residual needs the f32 output");
  }
  const int vw = rb_.vw, vk = rb_.vk;
  const I8ExecShape ex = i8_exec_shape(p_);
  const int packw = (vw - 1) * p_.str + p_.S;
  const int rowbytes = ((packw + 3) / 4) * 16;
  const int c4 = (p_.C + 3) / 4;
  const std::int64_t kb_count = (p_.K + vk - 1) / vk;
  const std::int64_t ftile_stride =
      static_cast<std::int64_t>(c4) * p_.R * p_.S * vk * 4;
  if (filter.rowsum.size() != static_cast<std::size_t>(p_.K) ||
      filter.data.size() !=
          static_cast<std::size_t>(kb_count * ftile_stride)) {
    throw std::invalid_argument("Int8Conv::run: filter was not packed for " +
                                p_.to_string() + " at this block");
  }
  const std::int64_t k_stride = std::int64_t{ex.P} * ex.Q;
  // The kernel's packing: raw u8 for VNNI, XOR 0x80 (u - 128) otherwise;
  // the compensation is (o - zp) * sum(w_k) for the offset o, with
  // rowsum recorded at pack time and the zero point arriving per run.
  const bool raw_u8 = int8_backend_raw_u8(kres_.backend);
  const std::uint8_t mask = raw_u8 ? 0x00 : 0x80;
  const auto border = static_cast<std::int8_t>(
      static_cast<std::uint8_t>(in_zero_point) ^ mask);
  const std::int32_t comp_zp = (raw_u8 ? 0 : 128) - in_zero_point;

  // One tile per Vw-wide output window: the body packs the window once
  // and runs every K block over it, so a tile carries its whole
  // reduction and all K outputs.
  const I8KernelFn fn = kres_.fn;
  const int tq = (ex.Q + vw - 1) / vw;
  const std::int64_t tiles_per_image = std::int64_t{ex.P} * tq;
  ThreadPool& pool = exec_pool(opt_.pool);
  ExecOptions eo;
  eo.pool = &pool;
  eo.telemetry = opt_.telemetry;
  eo.scratch[static_cast<int>(ScratchSlot::kAux0)] =
      static_cast<std::size_t>(c4) * p_.R * rowbytes / 4;
  eo.scratch[static_cast<int>(ScratchSlot::kAux1)] =
      static_cast<std::size_t>(vw) * vk;
  const ExecResult r = run_tiles(
      row_grid(p_.N * tiles_per_image, static_cast<int>(pool.size())), eo,
      [&](auto& w, int tile, int) {
        auto* pack = reinterpret_cast<std::int8_t*>(
            w.scratch(ScratchSlot::kAux0));
        auto* acc = reinterpret_cast<std::int32_t*>(
            w.scratch(ScratchSlot::kAux1));
        const std::int64_t n = tile / tiles_per_image;
        const std::int64_t rem = tile % tiles_per_image;
        const int oh = static_cast<int>(rem / tq);
        const int wv = static_cast<int>(rem % tq) * vw;
        const int wn = std::min(vw, ex.Q - wv);
        const std::uint8_t* image =
            input + n * std::int64_t{p_.C} * ex.H * ex.W;
        const std::int64_t out_base =
            n * std::int64_t{p_.K} * k_stride + std::int64_t{oh} * ex.Q + wv;

        w.timed_pack([&] {
          i8_pack_window(pack, image, p_.C, ex.H, ex.W, c4, p_.R,
                         oh * p_.str - p_.pad, wv * p_.str - p_.pad, packw,
                         rowbytes, mask, border);
        });
        if (fn == nullptr) w.count_generic();
        w.timed(Counter::kMicrokernelNs, [&] {
          I8MicroArgs a;
          a.pack = pack;
          a.pack_c4_stride = std::int64_t{p_.R} * rowbytes;
          a.pack_r_stride = rowbytes;
          a.f_c4_stride = std::int64_t{p_.R} * p_.S * vk * 4;
          a.c4 = c4;
          a.R = p_.R;
          a.S = p_.S;
          a.str = p_.str;
          a.packw = packw;
          a.acc = acc;
          for (std::int64_t kb = 0; kb < kb_count; ++kb) {
            const std::int64_t kv = kb * vk;
            const int kn =
                static_cast<int>(std::min<std::int64_t>(vk, p_.K - kv));
            a.ftile = filter.data.data() + kb * ftile_stride;
            if (fn != nullptr) {
              fn(a);
            } else {
              int8_kernel_generic(a, vw, vk);
            }
            i8_store_tile(ep, out, acc, filter.rowsum.data(), comp_zp, vw,
                          wn, kn, kv, k_stride, out_base);
          }
        });
      });

  if (stats != nullptr) {
    stats->tiles = r.tiles;
    stats->generic_fallback = r.generic_fallback;
    stats->backend = backend();
    stats->vw = vw;
    stats->vk = vk;
    stats->reason = kres_.reason;
  }
}

std::vector<float> int8_conv_fp32(const float* input, const float* filter,
                                  const ConvParams& p, const float* bias,
                                  bool relu, const Int8ConvOptions& opt,
                                  Int8RunStats* stats) {
  const QuantizedActivation qin = quantize_activation_u8(
      input, static_cast<std::size_t>(p.input_elems()));
  const QuantizedFilterI8 qf = quantize_filter_i8(filter, p);
  std::vector<float> dq(static_cast<std::size_t>(p.K));
  for (int k = 0; k < p.K; ++k) {
    dq[static_cast<std::size_t>(k)] =
        qin.scale * qf.scales[static_cast<std::size_t>(k)];
  }
  Int8Epilogue ep;
  ep.dequant_scale = dq.data();
  ep.bias = bias;
  ep.relu = relu;
  std::vector<float> result(static_cast<std::size_t>(p.output_elems()));
  Int8Output o;
  o.f32 = result.data();
  const Int8Conv conv(p, opt);
  conv.run(qin.values.data(), qin.zero_point, qf.values.data(), ep, o,
           stats);
  return result;
}

void naive_conv_int8(const std::uint8_t* input, int in_zero_point,
                     const std::int8_t* filter, std::int32_t* output,
                     const ConvParams& p) {
  const int P = p.P(), Q = p.Q();
  for (int n = 0; n < p.N; ++n)
    for (int k = 0; k < p.K; ++k)
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          std::int32_t sum = 0;
          for (int c = 0; c < p.C; ++c)
            for (int r = 0; r < p.R; ++r) {
              const int ij = p.str * oj + r - p.pad;
              if (ij < 0 || ij >= p.H) continue;
              for (int s = 0; s < p.S; ++s) {
                const int ii = p.str * oi + s - p.pad;
                if (ii < 0 || ii >= p.W) continue;
                sum +=
                    (static_cast<std::int32_t>(
                         input[((std::int64_t{n} * p.C + c) * p.H + ij) *
                                   p.W +
                               ii]) -
                     in_zero_point) *
                    static_cast<std::int32_t>(
                        filter[((std::int64_t{k} * p.C + c) * p.R + r) *
                                   p.S +
                               s]);
              }
            }
          output[((std::int64_t{n} * p.K + k) * P + oj) * Q + oi] = sum;
        }
}

}  // namespace ndirect
