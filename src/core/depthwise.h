// Depthwise convolution (Section 10.2).
//
// The paper sketches the integration: pointwise convolution is the 1x1
// kernel nDirect already handles ("it can be seen as the 1x1
// convolution kernel with vectorizable dimension K"), and depthwise
// convolution "only needs removing the reduction operations of
// dimension C in micro-kernels". This module implements the depthwise
// half: a register-blocked kernel that accumulates over (r, s) only —
// each channel convolves independently. A MobileNet/Xception
// depthwise-separable block is this kernel followed by a 1x1 NdirectConv
// (nn::DepthwiseConvOp + nn::ConvOp).
//
// One kernel serves every stride, pad and width. Each (n, c) plane tile
// first copies its input plane into the worker's scratch: zero-padded,
// split into `str` column phases (stride 2 de-interleaves even and odd
// columns with a vector permute) and into `str` row parities, so that
// every tap of every output sits at one constant offset from that
// output. The tile then computes all outputs at the target's full
// vector width (kKernelLanes, simd/vec.h), each tap one unchecked
// contiguous load and one FMA; small planes fill a vector with several
// output rows. Each output takes its taps in (r, s) order. A padded
// zero tap leaves a finite partial sum unchanged unless that sum is -0
// (which only an underflowing product makes), so for finite filters an
// output is bitwise the in-range tap loop's. The store epilogue (bias,
// residual, ReLU) runs on the accumulators as they are stored.
#pragma once

#include "core/epilogue.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"
#include "tensor/conv_params.h"
#include "tensor/tensor.h"

namespace ndirect {

/// Depthwise problem: one filter per channel (channel multiplier 1).
/// Uses ConvParams with K == C; R/S/str/pad as usual.
struct DepthwiseParams {
  int N = 1, C = 1, H = 1, W = 1;
  int R = 1, S = 1, str = 1, pad = 0;

  int P() const { return (H + 2 * pad - R) / str + 1; }
  int Q() const { return (W + 2 * pad - S) / str + 1; }
  bool valid() const {
    return N > 0 && C > 0 && H > 0 && W > 0 && R > 0 && S > 0 &&
           str > 0 && pad >= 0 && H + 2 * pad >= R && W + 2 * pad >= S;
  }
  std::int64_t flops() const {
    return 2LL * N * C * P() * Q() * R * S;
  }
};

/// input NCHW [N,C,H,W], filter [C,1,R,S] (KCRS with K=C, C=1)
/// -> output NCHW [N,C,P,Q], finished by the store epilogue `epi`
/// (per-channel bias, an NCHW [N,C,P,Q] residual, ReLU). `telemetry`,
/// if set, receives the run's per-worker counters (one tile per plane).
/// Throws std::invalid_argument on invalid params or mismatched tensor
/// shapes.
Tensor depthwise_conv_nchw(const Tensor& input, const Tensor& filter,
                           const DepthwiseParams& p,
                           ThreadPool* pool = nullptr,
                           const ConvEpilogue& epi = {},
                           TelemetrySnapshot* telemetry = nullptr);

/// Reference implementation (double accumulation) for tests.
Tensor depthwise_conv_reference(const Tensor& input, const Tensor& filter,
                                const DepthwiseParams& p);

}  // namespace ndirect
