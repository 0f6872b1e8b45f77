// The store epilogue shared by the fp32 direct, int8 and depthwise
// engines (DESIGN.md §8, "Fused graph epilogues").
//
// The element-wise ops that commonly follow a convolution — a
// per-channel bias (a folded BatchNorm's shift), a residual add and a
// ReLU — run inside the engine's final store of each output element
// (Section 10's operator-fusion direction), with no extra pass over the
// output. The order is the order the unfused ops run in:
//
//   v = accumulated sum;  v += bias[k];  v += residual;  v = max(v, 0)
//
// so a fused output is bitwise the output of conv -> add -> relu. The
// fp32 direct engine applies it in its micro-kernels' tile stores, the
// int8 engine in its dequantizing store, the depthwise engine in the
// 128-bit quarter stores of its wide accumulators (finish_row's
// operations, in registers).
#pragma once

#include <algorithm>
#include <cstdint>

#include "simd/vec128.h"

namespace ndirect {

struct ConvEpilogue {
  const float* bias = nullptr;  ///< K per-channel values, or nullptr
  bool relu = false;            ///< std::max(v, 0.0f), applied last
  /// A tensor with the output's shape, layout and strides, added
  /// element-wise after the bias; nullptr = none. It may not alias the
  /// output.
  const float* residual = nullptr;
};

/// The epilogue on `n` finished outputs of one channel, in place: + the
/// channel's `bias` (nullptr = none), + `residual`'s matching elements
/// (nullptr = none), then the ReLU. For backends with no fused store.
inline void finish_row(float* out, std::int64_t n, const float* bias,
                       const float* residual, bool relu) {
  const vec128f b = vdup(bias != nullptr ? *bias : 0.0f);
  std::int64_t i = 0;
  for (; i + kVecLanes <= n; i += kVecLanes) {
    vec128f v = vload(out + i);
    if (bias != nullptr) v = vadd(v, b);
    if (residual != nullptr) v = vadd(v, vload(residual + i));
    if (relu) v = vrelu(v);
    vstore(out + i, v);
  }
  for (; i < n; ++i) {
    float v = out[i];
    if (bias != nullptr) v += *bias;
    if (residual != nullptr) v += residual[i];
    if (relu) v = std::max(v, 0.0f);
    out[i] = v;
  }
}

}  // namespace ndirect
