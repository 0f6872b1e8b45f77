#include "nn/optimize.h"

#include <algorithm>
#include <vector>

namespace ndirect {

namespace {

// y = s*(conv(x) + b0) + t  ==  conv'(x) + b' with
// filter'[k] = s[k]*filter[k],  b'[k] = s[k]*b0[k] + t[k].
void fold_into(const BatchNormOp& bn, Tensor& filter,
               std::vector<float>& bias) {
  const std::vector<float>& scale = bn.scale();
  const std::vector<float>& shift = bn.shift();
  const std::size_t K = scale.size();
  const std::size_t taps = filter.size() / K;
  for (std::size_t k = 0; k < K; ++k) {
    float* row = filter.data() + k * taps;
    for (std::size_t i = 0; i < taps; ++i) row[i] *= scale[k];
  }
  if (bias.empty()) bias.assign(K, 0.0f);
  for (std::size_t k = 0; k < K; ++k) bias[k] = scale[k] * bias[k] + shift[k];
}

// conv -> add: the add's later input takes its earlier input as the
// residual, and the add goes. Only the later input can take it: the
// residual's id must stay below its consumer's.
bool fuse_residual(Graph& graph, NodeId add) {
  const std::vector<NodeId>& in = graph.inputs_of(add);
  const NodeId early = std::min(in[0], in[1]);
  const NodeId late = std::max(in[0], in[1]);
  auto* conv = dynamic_cast<ConvOp*>(graph.op_of(late));
  // A conv with a fused ReLU would add after clamping; one that already
  // has a residual has no room for another; add(x, x) has no residual.
  if (conv == nullptr || early == late || conv->fused_relu() ||
      graph.consumers_of(late).size() != 1 ||
      graph.inputs_of(late).size() != 1) {
    return false;
  }
  graph.add_input(late, early);
  graph.remove(add);
  return true;
}

// conv -> relu or dwconv -> relu, the ReLU being the conv's only
// consumer.
bool fuse_relu(Graph& graph, NodeId relu) {
  const NodeId src = graph.inputs_of(relu)[0];
  if (graph.consumers_of(src).size() != 1) return false;
  if (auto* conv = dynamic_cast<ConvOp*>(graph.op_of(src))) {
    conv->set_fused_relu(true);
  } else if (auto* dw = dynamic_cast<DepthwiseConvOp*>(graph.op_of(src))) {
    dw->set_fused_relu(true);
  } else {
    return false;
  }
  graph.remove(relu);
  return true;
}

}  // namespace

int fold_batchnorm(Graph& graph) {
  int folded = 0;
  // A removed node's successor takes its id, so `id` advances only past
  // a node that stays.
  for (NodeId id = 1; id < graph.node_count();) {
    auto* bn = dynamic_cast<BatchNormOp*>(graph.op_of(id));
    const NodeId src = graph.inputs_of(id)[0];
    // A conv feeding anything besides the BN (e.g. a residual edge)
    // cannot absorb it, and neither can one whose fused ReLU or residual
    // would then run before the BN: s*relu(x)+t is not relu(s*x+t).
    if (bn == nullptr || graph.consumers_of(src).size() != 1 ||
        graph.inputs_of(src).size() != 1) {
      ++id;
      continue;
    }
    if (auto* conv = dynamic_cast<ConvOp*>(graph.op_of(src));
        conv != nullptr && !conv->fused_relu()) {
      fold_into(*bn, conv->filter(), conv->bias());
    } else if (auto* dw = dynamic_cast<DepthwiseConvOp*>(graph.op_of(src));
               dw != nullptr && !dw->fused_relu()) {
      fold_into(*bn, dw->filter(), dw->bias());
    } else {
      ++id;
      continue;
    }
    graph.remove(id);
    ++folded;
  }
  return folded;
}

int fuse_conv_relu(Graph& graph) {
  const int before = graph.node_count();
  // As in fold_batchnorm, `id` advances only past a node that stays. A
  // residual fusion leaves the add's ReLU reading the conv, and the
  // loop reaches it later.
  for (NodeId id = 1; id < graph.node_count();) {
    Op* op = graph.op_of(id);
    const bool fused =
        (dynamic_cast<AddOp*>(op) != nullptr && fuse_residual(graph, id)) ||
        (dynamic_cast<ReluOp*>(op) != nullptr && fuse_relu(graph, id));
    if (!fused) ++id;
  }
  return before - graph.node_count();
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
