// Graph-level optimizations.
//
// The paper notes (Sections 8.3, 10) that nDirect, as an operator
// library, lacks the cross-layer optimizations Ansor gets from Relay's
// operator fusion, and names integrating such optimizations as future
// work. These passes are the repo's extension of that direction for
// inference: they fold each element-wise op that follows a convolution
// into the conv's store epilogue (core/epilogue.h) and delete its node.
//  - fold_batchnorm folds a BatchNorm into the conv or depthwise conv
//    before it: scaled weights plus a per-channel bias.
//  - fuse_conv_relu fuses a ReLU into the conv or depthwise conv before
//    it, and a residual add (and the ReLU after it) into one of the
//    convs that feed the add.
// Run them in that order, then quantize_convs if wanted.
#pragma once

#include "nn/graph.h"

namespace ndirect {

/// Fold every BatchNorm whose input is a conv or depthwise conv with no
/// other consumer, no fused ReLU and no residual into that convolution
/// (filter scaling + bias), and remove the BatchNorm node
/// (Graph::remove). Returns the number folded. Inference results are
/// unchanged up to FP32 rounding.
int fold_batchnorm(Graph& graph);

/// Fuse element-wise ops into the store epilogue of the conv that feeds
/// them, removing their nodes. Returns the number of nodes removed.
///  - conv -> relu and dwconv -> relu, the ReLU being the conv's only
///    consumer: the conv gets a fused ReLU.
///  - conv -> add (-> relu): the add's later input, when it is a conv
///    whose only consumer is the add and which has no fused ReLU or
///    residual yet, takes the add's earlier input as its residual (a
///    second graph input) and computes relu(conv + bias + residual).
///    Fusing into the later input keeps every input id below its
///    consumer's; in a ResNet projection block that is the shortcut
///    conv, which then waits for the expanding 1x1 conv.
/// Outputs are bitwise those of the unfused graph: the epilogue runs the
/// ops' arithmetic in their order. Run fold_batchnorm first on BN
/// networks so the conv -> bn -> relu chains collapse into single fused
/// convs.
int fuse_conv_relu(Graph& graph);

/// Switch every Ndirect-backend convolution to the int8 path
/// (DESIGN.md §14): u8 activations, per-channel s8 weights, fp32
/// dequantized outputs — so the rest of the graph is untouched.
/// Returns the number switched. Run fold_batchnorm/fuse_conv_relu
/// first so the quantized convs carry the folded bias, residual and
/// ReLU in their epilogue.
int quantize_convs(Graph& graph);

}  // namespace ndirect
