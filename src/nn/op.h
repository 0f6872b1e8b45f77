// Inference operators for the graph executor. All activations are NCHW.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autotune/schedule.h"
#include "core/depthwise.h"
#include "core/ndirect.h"
#include "core/quantized.h"
#include "runtime/timer.h"
#include "tensor/conv_params.h"
#include "tensor/tensor.h"

namespace ndirect {

/// NCHW activation shape flowing along graph edges.
struct TensorShape {
  int N = 0, C = 0, H = 0, W = 0;
  std::int64_t elems() const { return std::int64_t{N} * C * H * W; }
  bool operator==(const TensorShape&) const = default;
  std::string to_string() const;
};

class Op {
 public:
  virtual ~Op() = default;
  virtual const char* name() const = 0;
  /// Output shape given input shapes (validates arity/shapes; throws
  /// std::invalid_argument on mismatch).
  virtual TensorShape infer(const std::vector<TensorShape>& in) const = 0;
  virtual Tensor forward(const std::vector<const Tensor*>& in) const = 0;
};

/// Which convolution implementation a ConvOp dispatches to (Fig. 7's
/// backend axis).
enum class ConvBackend {
  Ndirect,     ///< this paper (MXNet+NDIRECT)
  Im2colGemm,  ///< MXNet+OpenBLAS stand-in
  Tuned,       ///< Ansor stand-in: searched schedule, generic kernel
  Naive,       ///< Algorithm 1 (testing)
};

const char* conv_backend_name(ConvBackend b);

/// A convolution with its store epilogue (core/epilogue.h): bias, an
/// optional residual and an optional ReLU, applied in that order. It
/// takes one input, or two: the second is the residual, a tensor of the
/// output's shape that fuse_conv_relu wires in when it folds a
/// conv -> add -> relu chain into the conv.
class ConvOp final : public Op {
 public:
  /// Weights are initialized deterministically from `seed`; `bias` adds
  /// a per-channel bias (VGG convs have one, ResNet convs do not).
  ConvOp(ConvParams params, ConvBackend backend, std::uint64_t seed,
         bool bias);

  const char* name() const override { return "conv"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

  const ConvParams& params() const { return params_; }
  ConvBackend backend() const { return backend_; }
  void set_backend(ConvBackend b);

  /// Install the schedule used by the Tuned backend.
  void set_schedule(const Schedule& s) { schedule_ = s; has_schedule_ = true; }
  bool has_schedule() const { return has_schedule_; }

  /// Apply ReLU inside the convolution (set by the fuse_conv_relu pass;
  /// the Ndirect backend runs it in the store epilogue, other backends
  /// apply the same epilogue, in the same order, as one post-pass so
  /// results stay backend-invariant).
  void set_fused_relu(bool fused) { fused_relu_ = fused; }
  bool fused_relu() const { return fused_relu_; }

  /// Run this convolution through the int8 path (DESIGN.md §14):
  /// activations are quantized u8 asymmetric per forward, weights s8
  /// symmetric per output channel (quantized and packed once, like the
  /// fp32 weights — see filter()), and the fp32 output is produced by
  /// the per-channel dequantize epilogue with the op's bias, residual
  /// and fused ReLU — so the graph topology and every downstream op are
  /// unchanged. Only the Ndirect backend; other backends ignore the
  /// flag.
  void set_quantized(bool on);
  bool quantized() const { return quantized_; }
  /// Stats of the most recent quantized forward (backend actually used,
  /// generic-fallback tile count).
  const Int8RunStats& quantized_stats() const { return qstats_; }

  /// Dispatch the Ndirect backend on `pool` instead of the global pool.
  /// The graph executor points every conv of a graph at one shared pool
  /// so concurrent branches cooperate on the same workers instead of
  /// oversubscribing the machine. nullptr restores the global pool.
  /// This and the next two setters re-plan the engine but keep the
  /// packed weights.
  void set_pool(ThreadPool* pool);

  /// Seed the Ndirect engine's PTn x PTk grid with `budget` threads
  /// (0 = the whole pool) and expose `extra_stealers` additional
  /// pure-stealer tasks (see NdirectOptions::extra_stealers). The graph
  /// executor splits the pool across the convs of a level with
  /// partition_workers and covers the remainder with stealers, so a
  /// branch that finishes early drains its sibling's tiles. Neither
  /// value affects results (bitwise-identical output for any split).
  void set_worker_budget(int budget, int extra_stealers = 0);
  int worker_budget() const { return worker_budget_; }
  int extra_stealers() const { return extra_stealers_; }

  /// Collect per-run engine telemetry into `sink` (see
  /// NdirectOptions::telemetry): every forward() on the Ndirect backend,
  /// fp32 or quantized, overwrites it with that run's per-worker
  /// counters and wall time.
  /// nullptr (the default) disables collection. Ops that may run
  /// concurrently (graph branches) need distinct sinks; merge the
  /// snapshots afterwards for a whole-graph view.
  void set_telemetry(TelemetrySnapshot* sink);
  TelemetrySnapshot* telemetry() const { return telemetry_; }

  /// The Ndirect backend runs on weights this op packed itself (fp32
  /// KPacked, or quantized s8 in the int8 layout): packed on the first
  /// forward and re-packed only when the weights changed. Mutable
  /// access marks the filter dirty — the graph passes (e.g.
  /// fold_batchnorm) scale weights in place — and any number of
  /// accesses between two forwards cost one re-pack. A retained
  /// Tensor& mutated after a later forward bypasses the flag; the
  /// sampled content fingerprint checked on every forward catches that
  /// on both paths, but it is best-effort, so re-take filter() before
  /// each round of mutation, and use the const overload for pure reads.
  Tensor& filter() {
    filter_dirty_ = true;
    return filter_;
  }
  const Tensor& filter() const { return filter_; }
  std::vector<float>& bias() { return bias_; }

 private:
  Tensor quantized_forward(const Tensor& x, const float* residual) const;
  /// True when the packed weights of the running path must be rebuilt:
  /// `have_packed` is false, the filter went dirty, or its fingerprint
  /// moved. Records the current fingerprint and clears the flag.
  bool repack_needed(bool have_packed) const;

  ConvParams params_;
  ConvBackend backend_;
  Tensor filter_;  ///< KCRS
  std::vector<float> bias_;  ///< empty = no bias
  Schedule schedule_{};
  bool has_schedule_ = false;
  bool fused_relu_ = false;
  ThreadPool* pool_ = nullptr;  ///< nullptr = global pool
  int worker_budget_ = 0;       ///< 0 = whole pool
  int extra_stealers_ = 0;
  TelemetrySnapshot* telemetry_ = nullptr;  ///< nullptr = no collection
  /// Set by the mutable filter() accessor, consumed by forward().
  mutable bool filter_dirty_ = false;
  /// filter_fingerprint of filter_ when the packed weights were built.
  mutable std::uint64_t packed_fingerprint_ = 0;
  // Planned engine for the Ndirect backend (lazy, shape is fixed), and
  // the weights it runs on. Only the running path (fp32 or int8) holds
  // packed weights; set_quantized drops them.
  mutable std::unique_ptr<NdirectConv> engine_;
  mutable Tensor packed_;  ///< KPacked fp32 filter; empty until packed
  bool quantized_ = false;
  mutable std::unique_ptr<Int8Conv> qengine_;
  mutable Int8Conv::PackedFilter qpacked_;  ///< empty until packed
  mutable std::vector<float> qscales_;      ///< K: s8 filter scales
  mutable std::vector<float> qdequant_;  ///< K: in_scale * w_scale[k]
  mutable Int8RunStats qstats_;
};

/// Depthwise convolution (Section 10.2: the C reduction removed).
/// Used by the MobileNet builder's depthwise-separable blocks. Like
/// ConvOp it finishes through the store epilogue: a per-channel bias
/// and a ReLU, which fold_batchnorm and fuse_conv_relu fill in.
class DepthwiseConvOp final : public Op {
 public:
  DepthwiseConvOp(DepthwiseParams params, std::uint64_t seed);

  const char* name() const override { return "dwconv"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

  const DepthwiseParams& params() const { return params_; }

  void set_fused_relu(bool fused) { fused_relu_ = fused; }
  bool fused_relu() const { return fused_relu_; }

  Tensor& filter() { return filter_; }  ///< [C, 1, R, S]
  std::vector<float>& bias() { return bias_; }  ///< empty = no bias

  /// Run on `pool` instead of the global pool (nullptr restores it);
  /// Graph::set_conv_pool points every conv, depthwise included, at the
  /// graph's shared pool.
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// Collect each forward()'s per-worker engine counters into `sink`,
  /// as ConvOp::set_telemetry does; nullptr (the default) disables
  /// collection.
  void set_telemetry(TelemetrySnapshot* sink) { telemetry_ = sink; }
  TelemetrySnapshot* telemetry() const { return telemetry_; }

 private:
  DepthwiseParams params_;
  Tensor filter_;  ///< [C, 1, R, S]
  std::vector<float> bias_;
  bool fused_relu_ = false;
  ThreadPool* pool_ = nullptr;  ///< nullptr = global pool
  TelemetrySnapshot* telemetry_ = nullptr;  ///< nullptr = no collection
};

class ReluOp final : public Op {
 public:
  const char* name() const override { return "relu"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

/// Inference-mode batch norm: per-channel y = scale*x + shift.
class BatchNormOp final : public Op {
 public:
  BatchNormOp(int channels, std::uint64_t seed);
  const char* name() const override { return "batchnorm"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

  const std::vector<float>& scale() const { return scale_; }
  const std::vector<float>& shift() const { return shift_; }

 private:
  std::vector<float> scale_;
  std::vector<float> shift_;
};

class MaxPoolOp final : public Op {
 public:
  MaxPoolOp(int kernel, int stride, int pad)
      : kernel_(kernel), stride_(stride), pad_(pad) {}
  const char* name() const override { return "maxpool"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

 private:
  int kernel_, stride_, pad_;
};

class GlobalAvgPoolOp final : public Op {
 public:
  const char* name() const override { return "gavgpool"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

/// Channel-axis concatenation of one or more same-N/H/W activations
/// (Inception-style branch merge; the DAG fuzzer's n-ary join).
class ConcatOp final : public Op {
 public:
  const char* name() const override { return "concat"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

/// Residual addition of two same-shaped activations.
class AddOp final : public Op {
 public:
  const char* name() const override { return "add"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

/// Fully connected layer on flattened input: y = W x + b, one GEMV per
/// sample over the unpacked weights.
class FcOp final : public Op {
 public:
  FcOp(int in_features, int out_features, std::uint64_t seed);
  const char* name() const override { return "fc"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;

  const Tensor& weights() const { return weights_; }  ///< [out, in]
  const std::vector<float>& bias() const { return bias_; }

 private:
  int in_features_, out_features_;
  Tensor weights_;  ///< [out, in]
  std::vector<float> bias_;
};

class SoftmaxOp final : public Op {
 public:
  const char* name() const override { return "softmax"; }
  TensorShape infer(const std::vector<TensorShape>& in) const override;
  Tensor forward(const std::vector<const Tensor*>& in) const override;
};

}  // namespace ndirect
