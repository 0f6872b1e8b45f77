// Quantized convolution: the int8 path (DESIGN.md §14).
//
// Asymmetric u8 activations (real = in_scale * (u - zero_point)),
// symmetric per-channel s8 filters (real = w_scale[k] * w). Int8Conv
// packs inputs for the kernel it resolves — XORed with 0x80 for the
// scalar, emulated and SDOT kernels, raw for the 16-lane VNNI ones —
// runs the policy kernels of core/quantized_microkernel.h, and finishes
// each tile with a fused requantize epilogue (raw int32, saturating s8
// with round-to-nearest-even, or dequantized fp32 through the shared
// store epilogue: bias, residual, ReLU).
//
// Overflow contract: choose_qmax_int8() keeps reduction_len * 255 * Q in
// int32, and the accumulation and zero-point compensation are integer
// arithmetic modulo 2^32, so every output is the exact integer
// convolution whenever that fits int32 — however far the raw
// accumulator (up to 255 * |w| per tap on VNNI) strays on the way.
#pragma once

#include <cstdint>
#include <vector>

#include "core/epilogue.h"
#include "core/quantized_microkernel.h"
#include "runtime/aligned_buffer.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "tensor/conv_params.h"

namespace ndirect {

/// Largest symmetric s8 magnitude Q (<= 127) such that a reduction of
/// `reduction_len` worst-case products (u - zp) * w, |u - zp| <= 255,
/// provably fits an int32 accumulator: reduction_len * 255 * Q <=
/// 2^31 - 1. Returns 127 for every reduction up to 66311 elements and
/// only then starts shrinking.
std::int32_t choose_qmax_int8(std::int64_t reduction_len);

/// Asymmetric u8 activation quantization: real = scale * (u - zero_point).
struct QuantizedActivation {
  std::vector<std::uint8_t> values;
  float scale = 1.0f;
  int zero_point = 0;  ///< in [0, 255]
};

/// Min/max calibration over `n` floats (the range always includes 0 so
/// zero is exactly representable, as padding demands).
QuantizedActivation quantize_activation_u8(const float* data,
                                           std::size_t n);

/// As above into caller storage of `n` bytes (no zero-fill first); the
/// returned `values` stays empty. Bitwise the same u8 values, scale and
/// zero point on every input, NaN and infinities included.
QuantizedActivation quantize_activation_u8(const float* data,
                                           std::size_t n,
                                           std::uint8_t* values);

/// Symmetric per-output-channel s8 filter quantization:
/// real = scales[k] * w for filter k's C*R*S taps.
struct QuantizedFilterI8 {
  std::vector<std::int8_t> values;  ///< KCRS
  std::vector<float> scales;        ///< K
};

QuantizedFilterI8 quantize_filter_i8(const float* filter,
                                     const ConvParams& p);

/// What the epilogue does with a tile's int32 accumulators (after the
/// zero-point compensation is added): the shared store epilogue
/// (core/epilogue.h) plus the quantization scales. Exactly one output
/// pointer in Int8Output selects the mode.
///  - f32 dequantize: y = acc * dequant_scale[k] + bias[k], then the
///    residual (NCHW, the output's layout), then ReLU.
///  - s8 requantize: q = clamp(rne(acc * requant_scale[k]) +
///    out_zero_point, -127, 127), with the int32 bias added to acc
///    first; relu clamps at the output zero point. No residual.
///  - i32: the raw accumulators; no epilogue.
struct Int8Epilogue : ConvEpilogue {
  const float* requant_scale = nullptr;   ///< K; in_s*w_s[k]/out_s
  const std::int32_t* bias_i32 = nullptr; ///< K, pre-quantized; optional
  int out_zero_point = 0;
  const float* dequant_scale = nullptr;   ///< K; in_s*w_s[k]
};

/// Destination [N,K,P,Q]; set exactly one. i32 receives the raw
/// compensated accumulators (the exact integer convolution of
/// (u - zp) * w, bias excluded).
struct Int8Output {
  std::int32_t* i32 = nullptr;
  std::int8_t* s8 = nullptr;
  float* f32 = nullptr;
};

/// What one run executed, from the execution core's counters (filled
/// whether or not a telemetry sink is attached).
struct Int8RunStats {
  std::uint64_t tiles = 0;  ///< Vw-wide output windows (all K each)
  /// Tiles whose K-block loop ran the scalar generic kernel. The kernel
  /// is resolved once per conv, so this is 0 or every tile.
  std::uint64_t generic_fallback = 0;
  Int8Backend backend = Int8Backend::kScalar;  ///< backend actually used
  int vw = 0, vk = 0;
  const char* reason = "";  ///< why fn resolution degraded, if it did
};

struct Int8ConvOptions {
  /// Force a register block (0 = int8_planned_block for S and the
  /// backend, like fp32's planner).
  RegisterBlock force_block{0, 0};
  /// Backend request; defaults to the best this host supports
  /// (kDot on an ASIMDDP or AVX512-VNNI host running a build with the
  /// matching kernels, unless NDIRECT_FORCE_NO_DOTPROD is set).
  Int8Backend backend = int8_preferred_backend();
  ThreadPool* pool = nullptr;  ///< nullptr = ThreadPool::global()
  /// Per-run telemetry sink, as NdirectOptions::telemetry: overwritten
  /// by every run() with its per-worker counters and wall time.
  TelemetrySnapshot* telemetry = nullptr;
};

/// The int8 direct-convolution engine. Holds the conv geometry and the
/// resolved micro-kernel, never weights; run() is re-entrant and const.
class Int8Conv {
 public:
  /// A filter in the engine's tiled layout, built by pack_filter() and
  /// owned by the caller: [kb][c4][R][S][vk][4] s8 (K zero-padded to
  /// vk, C to 4) plus per-k tap sums (the zero-point compensation base).
  struct PackedFilter {
    AlignedBuffer<std::int8_t> data;
    std::vector<std::int32_t> rowsum;  ///< K: sum of filter k's s8 taps
  };

  explicit Int8Conv(const ConvParams& p, const Int8ConvOptions& opt = {});

  const ConvParams& params() const { return p_; }
  RegisterBlock block() const { return rb_; }
  /// Backend the resolved kernel will use (kScalar = generic fallback).
  Int8Backend backend() const;

  /// Pack `filter` (KCRS s8) into the tiled layout and record the per-k
  /// row sums. The op that owns the weights packs once and passes the
  /// result to every run().
  PackedFilter pack_filter(const std::int8_t* filter) const;

  /// u8 NCHW input -> epilogue-selected output. `in_zero_point` is the
  /// activation zero point in [0, 255]. Throws std::invalid_argument
  /// unless exactly one Int8Output pointer is set, when a residual comes
  /// without an f32 output, or when `filter` was not packed for this
  /// engine's shape and block.
  void run(const std::uint8_t* input, int in_zero_point,
           const PackedFilter& filter, const Int8Epilogue& ep,
           const Int8Output& out, Int8RunStats* stats = nullptr) const;

  /// As above on a KCRS s8 filter, packed afresh on every call.
  void run(const std::uint8_t* input, int in_zero_point,
           const std::int8_t* filter, const Int8Epilogue& ep,
           const Int8Output& out, Int8RunStats* stats = nullptr) const;

 private:
  ConvParams p_;
  Int8ConvOptions opt_;
  RegisterBlock rb_;
  I8KernelResolution kres_;
};

/// Convenience wrapper: quantize fp32 input (u8 asymmetric) and filter (s8 per-channel), convolve through
/// Int8Conv, and dequantize to fp32 with optional fused bias + ReLU.
std::vector<float> int8_conv_fp32(const float* input, const float* filter,
                                  const ConvParams& p,
                                  const float* bias = nullptr,
                                  bool relu = false,
                                  const Int8ConvOptions& opt = {},
                                  Int8RunStats* stats = nullptr);

/// Naive exact reference: raw = sum (u - zp) * w with int32
/// accumulation (tests compare Int8Conv's i32 mode bitwise).
void naive_conv_int8(const std::uint8_t* input, int in_zero_point,
                     const std::int8_t* filter, std::int32_t* output,
                     const ConvParams& p);

}  // namespace ndirect
