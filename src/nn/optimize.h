// Graph-level optimizations.
//
// The paper notes (Sections 8.3, 10) that nDirect, as an operator
// library, lacks the cross-layer optimizations Ansor gets from Relay's
// operator fusion, and names integrating such optimizations as future
// work. This pass implements the highest-value instance for inference
// — folding BatchNorm into the preceding convolution's weights — as the
// repo's extension of that future-work direction.
#pragma once

#include "nn/graph.h"

namespace ndirect {

/// Fold every BatchNorm whose input is a conv with no other consumer
/// and no fused ReLU into that convolution (filter scaling + bias), and
/// remove the BatchNorm node (Graph::remove). Returns the number
/// folded. Inference results are unchanged up to FP32 rounding.
int fold_batchnorm(Graph& graph);

/// Fuse every conv -> relu pair (conv's sole consumer) into the
/// convolution's store epilogue, and remove the ReLU node. Returns the
/// number fused. Run fold_batchnorm first on BN networks so
/// the conv -> bn -> relu chains collapse into single fused convs.
int fuse_conv_relu(Graph& graph);

/// Switch every Ndirect-backend convolution to the int8 path
/// (DESIGN.md §14): u8 activations, per-channel s8 weights, fp32
/// dequantized outputs — so the rest of the graph is untouched.
/// Returns the number switched. Run fold_batchnorm/fuse_conv_relu
/// first so the quantized convs carry the folded bias and ReLU in
/// their epilogue.
int quantize_convs(Graph& graph);

}  // namespace ndirect
