// 3D convolution (Section 10.2).
//
// "Since 3D Convolution can be seen as 2D Convolution with additional
// reduction dimensions, we can directly use the micro-kernels of
// nDirect for acceleration and further optimize the outer loops."
// This module does exactly that: each (output-depth, kernel-depth) pair
// contributes one 2D nDirect convolution over a depth slice, and the
// slices accumulate into the output plane. The 2D engine runs unchanged;
// the 3D logic is confined to the outer loops and the accumulation.
#pragma once

#include "core/ndirect.h"
#include "tensor/tensor.h"

namespace ndirect {

struct Conv3dParams {
  int N = 1, C = 1, D = 1, H = 1, W = 1;  ///< input [N,C,D,H,W]
  int K = 1, T = 1, R = 1, S = 1;         ///< filter [K,C,T,R,S]
  int str = 1;   ///< stride, all three spatial dims
  int pad = 0;   ///< spatial (H/W) padding
  int pad_d = 0; ///< depth padding

  int Dout() const { return (D + 2 * pad_d - T) / str + 1; }
  int P() const { return (H + 2 * pad - R) / str + 1; }
  int Q() const { return (W + 2 * pad - S) / str + 1; }
  bool valid() const {
    return N > 0 && C > 0 && D > 0 && H > 0 && W > 0 && K > 0 && T > 0 &&
           R > 0 && S > 0 && str > 0 && pad >= 0 && pad_d >= 0 &&
           D + 2 * pad_d >= T && H + 2 * pad >= R && W + 2 * pad >= S;
  }
  std::int64_t flops() const {
    return 2LL * N * K * Dout() * P() * Q() * C * T * R * S;
  }
};

/// input [N,C,D,H,W] (rank-5, Layout::Linear), filter [K,C,T,R,S]
/// -> output [N,K,Dout,P,Q]. Throws std::invalid_argument on invalid
/// params or mismatched tensor shapes.
Tensor conv3d_ndirect(const Tensor& input, const Tensor& filter,
                      const Conv3dParams& p, ThreadPool* pool = nullptr);

/// Naive reference for tests (double accumulation).
Tensor conv3d_reference(const Tensor& input, const Tensor& filter,
                        const Conv3dParams& p);

}  // namespace ndirect
