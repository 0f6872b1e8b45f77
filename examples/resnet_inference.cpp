// End-to-end CNN inference with the graph executor: build ResNet-50,
// fold BatchNorm, ReLU and the residual adds into the convolutions, and
// compare the conv backends on the same weights — the workflow behind
// the paper's Fig. 7. Exits 1 if the passes change the output beyond
// FP32 rounding, or leave any add, relu or batchnorm node behind.
//
//   $ ./examples/resnet_inference            # reduced model, fast
//   $ NDIRECT_EXAMPLE_FULL=1 ./examples/resnet_inference
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "nn/models.h"
#include "nn/optimize.h"
#include "runtime/env.h"
#include "runtime/timer.h"
#include "tensor/compare.h"
#include "tensor/rng.h"

using namespace ndirect;

int main() {
  const bool full = env_flag("NDIRECT_EXAMPLE_FULL");
  ModelOptions opts;
  opts.channel_divisor = full ? 1 : 8;
  opts.image_size = full ? 224 : 64;
  opts.backend = ConvBackend::Ndirect;

  const int batch = 1;
  std::printf("building ResNet-50 (channels/%d, %dx%d input)...\n",
              opts.channel_divisor, opts.image_size, opts.image_size);
  auto net = build_resnet50(batch, opts);
  std::printf("  %d graph nodes, %zu convolutions, %.2f GFLOP of conv\n",
              net->node_count(), net->conv_ops().size(),
              static_cast<double>(net->conv_flops()) / 1e9);

  Tensor image = make_input_nchw(batch, 3, opts.image_size,
                                 opts.image_size);
  fill_random(image, 7);

  // Fold inference BatchNorm into the conv weights and fuse each
  // conv's ReLU, and each residual add with the ReLU after it, into a
  // conv's store epilogue (the fusion extension of Section 10): the
  // folded nodes leave the graph, results are unchanged.
  const Tensor before = net->run(image);
  const int nodes_before = net->node_count();
  const int folded = fold_batchnorm(*net);
  const int fused = fuse_conv_relu(*net);
  const Tensor after = net->run(image);
  // Relative per element: with random weights the softmax is nearly
  // uniform (every probability within ~1e-3 of 1/1000), so an absolute
  // bound would pass almost any output.
  const bool unchanged = allclose(before, after, 1e-3, 0.0);
  std::printf("folded %d BatchNorm and fused %d ReLU and add ops into "
              "convs: %d -> %d graph nodes (outputs %s)\n",
              folded, fused, nodes_before, net->node_count(),
              unchanged ? "unchanged" : "DIFFER");
  if (!unchanged) {
    std::fprintf(stderr, "error: the graph passes changed the output: %s\n",
                 compare_tensors(before, after).to_string().c_str());
    return 1;
  }
  // Every element-wise op of ResNet-50 has a conv to fuse into; one
  // that survives means a pass stopped matching.
  for (NodeId id = 1; id < net->node_count(); ++id) {
    const std::string name = net->op_of(id)->name();
    if (name == "add" || name == "relu" || name == "batchnorm") {
      std::fprintf(stderr, "error: node %d (%s) survived the passes\n", id,
                   name.c_str());
      return 1;
    }
  }

  // Per-op-type time breakdown with the nDirect backend, summed from
  // the run's per-node record. Overlapping branches make the sum exceed
  // the wall time.
  GraphRunStats stats;
  GraphRunOptions record;
  record.stats = &stats;
  (void)net->run(image, record);
  std::map<std::string, std::uint64_t> op_ns;
  std::uint64_t total_ns = 0;
  for (const NodeRun& row : stats.nodes) {
    op_ns[net->op_of(row.id)->name()] += row.end_ns - row.start_ns;
    total_ns += row.end_ns - row.start_ns;
  }
  std::printf("\nper-op time with the ndirect backend (%d runners):\n",
              stats.runners);
  for (const auto& [op, ns] : op_ns) {
    std::printf("  %-10s %7.2f ms (%4.1f%%)\n", op.c_str(),
                static_cast<double>(ns) * 1e-6,
                100.0 * static_cast<double>(ns) /
                    static_cast<double>(total_ns));
  }

  // Swap the conv backend in place and compare end-to-end latency.
  std::printf("\nbackend comparison (same weights):\n");
  for (ConvBackend backend :
       {ConvBackend::Ndirect, ConvBackend::Im2colGemm}) {
    for (ConvOp* conv : net->conv_ops()) conv->set_backend(backend);
    (void)net->run(image);  // warm-up / plan
    WallTimer t;
    int reps = 0;
    do {
      (void)net->run(image);
      ++reps;
    } while (t.seconds() < 0.3);
    std::printf("  %-12s %7.2f ms / inference\n",
                conv_backend_name(backend), t.seconds() * 1e3 / reps);
  }

  // Top-5 of the softmax output, as a classifier would report.
  for (ConvOp* conv : net->conv_ops()) {
    conv->set_backend(ConvBackend::Ndirect);
  }
  const Tensor probs = net->run(image);
  std::vector<float> scores(probs.data(), probs.data() + 1000);
  std::printf("\ntop-5 classes (random weights, of course):\n");
  for (int rank = 0; rank < 5; ++rank) {
    int best = 0;
    for (int c = 1; c < 1000; ++c) {
      if (scores[static_cast<std::size_t>(c)] >
          scores[static_cast<std::size_t>(best)]) {
        best = c;
      }
    }
    std::printf("  class %4d  p=%.4f\n", best,
                scores[static_cast<std::size_t>(best)]);
    scores[static_cast<std::size_t>(best)] = -1.0f;
  }
  return 0;
}
