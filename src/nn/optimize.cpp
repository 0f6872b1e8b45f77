#include "nn/optimize.h"

#include <vector>

namespace ndirect {

int fold_batchnorm(Graph& graph) {
  int folded = 0;
  // A removed node's successor takes its id, so `id` advances only past
  // a node that stays.
  for (NodeId id = 1; id < graph.node_count();) {
    auto* bn = dynamic_cast<BatchNormOp*>(graph.op_of(id));
    const NodeId conv_id = graph.inputs_of(id)[0];
    auto* conv =
        bn != nullptr ? dynamic_cast<ConvOp*>(graph.op_of(conv_id)) : nullptr;
    // A conv feeding anything besides the BN (e.g. a residual edge)
    // cannot absorb it, and neither can one whose fused ReLU would then
    // run after the BN: s*relu(x)+t is not relu(s*x+t).
    if (conv == nullptr || graph.consumers_of(conv_id).size() != 1 ||
        conv->fused_relu()) {
      ++id;
      continue;
    }

    // y = s*(conv(x) + b0) + t  ==  conv'(x) + b' with
    // filter'[k] = s[k]*filter[k],  b'[k] = s[k]*b0[k] + t[k].
    const ConvParams& p = conv->params();
    const std::vector<float>& scale = bn->scale();
    const std::vector<float>& shift = bn->shift();
    Tensor& filter = conv->filter();
    const std::int64_t crs = std::int64_t{p.C} * p.R * p.S;
    for (int k = 0; k < p.K; ++k) {
      float* row = filter.data() + k * crs;
      const float s = scale[static_cast<std::size_t>(k)];
      for (std::int64_t i = 0; i < crs; ++i) row[i] *= s;
    }
    std::vector<float>& bias = conv->bias();
    if (bias.empty()) bias.assign(static_cast<std::size_t>(p.K), 0.0f);
    for (int k = 0; k < p.K; ++k) {
      bias[static_cast<std::size_t>(k)] =
          scale[static_cast<std::size_t>(k)] *
              bias[static_cast<std::size_t>(k)] +
          shift[static_cast<std::size_t>(k)];
    }
    graph.remove(id);
    ++folded;
  }
  return folded;
}

int fuse_conv_relu(Graph& graph) {
  int fused = 0;
  for (NodeId id = 1; id < graph.node_count();) {
    const bool relu = dynamic_cast<ReluOp*>(graph.op_of(id)) != nullptr;
    const NodeId src = graph.inputs_of(id)[0];
    auto* conv = relu ? dynamic_cast<ConvOp*>(graph.op_of(src)) : nullptr;
    if (conv == nullptr || graph.consumers_of(src).size() != 1) {
      ++id;
      continue;
    }
    conv->set_fused_relu(true);
    graph.remove(id);
    ++fused;
  }
  return fused;
}

int quantize_convs(Graph& graph) {
  int switched = 0;
  for (ConvOp* conv : graph.conv_ops()) {
    if (conv->backend() != ConvBackend::Ndirect) continue;
    conv->set_quantized(true);
    ++switched;
  }
  return switched;
}

}  // namespace ndirect
