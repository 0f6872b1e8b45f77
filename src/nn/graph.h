// Scheduler-aware inference graph executor.
//
// Stands in for the MXNet integration of Section 7.3: a chain/DAG of
// operators whose convolutions dispatch to a pluggable backend
// (nDirect, im2col+GEMM, tuned schedules, or the naive reference), so
// end-to-end CNN inference (Fig. 7) can be measured with the conv
// implementation swapped and everything else held fixed.
//
// Beyond the paper's op-at-a-time execution, the executor runs
// independent nodes CONCURRENTLY: nodes are organized into dependency
// levels (ready-set driven, not insertion order), ready nodes are
// handed to a small crew of runner threads, and every convolution
// dispatches onto one shared ThreadPool whose re-entrant run() lets the
// branches' tile schedulers cooperate — a core that finishes one
// branch's tiles steals the sibling branch's through its pure-stealer
// tasks (plan_concurrency). Concurrent execution is bitwise-identical
// to sequential execution: tiles own disjoint output blocks and each
// output element's full C reduction happens inside one tile claim, so
// neither the node interleaving nor the worker split can change any
// FP accumulation order (DESIGN.md §10; enforced by the DAG fuzzer).
// One ready-set loop runs every graph: with one runner the caller
// drains it alone and no thread starts.
//
// Nodes are added in topological order; node 0 is the graph input.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/op.h"

namespace ndirect {

using NodeId = int;

/// One node's execution in a run, on the monotonic_ns() clock.
struct NodeRun {
  NodeId id = 0;
  int runner = 0;              ///< runner index, below GraphRunStats::runners
  std::uint64_t start_ns = 0;  ///< before Op::forward
  std::uint64_t end_ns = 0;    ///< after Op::forward returned
};

/// Observability of one run() call (written when run returns).
struct GraphRunStats {
  int runners = 0;       ///< runner threads used (1 = the caller alone)
  int max_inflight = 0;  ///< peak concurrently executing nodes
  /// One row per op node, in completion order: every node appears after
  /// all of its inputs. Per-op-type totals are these rows summed by
  /// op_of(id)->name(); under overlap they can exceed the wall time.
  std::vector<NodeRun> nodes;
};

struct GraphRunOptions {
  /// Runner threads draining the ready set. 0 = one per node of the
  /// widest dependency level, capped at 8; never more than that width,
  /// so chain graphs always run on the caller alone. 1 = the caller
  /// runs every node and no thread starts. Runners are cheap
  /// dispatchers: the heavy lifting stays on the convs' shared
  /// ThreadPool.
  int runners = 0;
  /// When set, run() fills it, one timed row per node included. Unset,
  /// a run reads no clock for it and keeps no record buffer.
  GraphRunStats* stats = nullptr;
};

class Graph {
 public:
  /// Create a graph whose input has the given NCHW shape.
  Graph(int N, int C, int H, int W);

  /// Append an operator consuming the given upstream nodes; returns the
  /// new node's id. Inputs must be already-added nodes (or 0, input).
  NodeId add(std::unique_ptr<Op> op, std::vector<NodeId> inputs);

  /// Run the whole graph on `input` (shape must match construction)
  /// and return the output node's value. Node 0's consumers read
  /// `input` in place. Default options: concurrent over the dependency
  /// levels. One Graph must not be run from two threads at once (ops
  /// lazily plan engines).
  Tensor run(const Tensor& input) const { return run(input, {}); }
  Tensor run(const Tensor& input, const GraphRunOptions& opts) const;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  const TensorShape& output_shape() const;
  const TensorShape& shape_of(NodeId id) const;
  Op* op_of(NodeId id);

  /// All ConvOp nodes, in execution order (for backend swaps/tuning).
  std::vector<ConvOp*> conv_ops();

  const std::vector<NodeId>& inputs_of(NodeId id) const;
  /// The nodes reading `id`, ascending, once per edge (add(x, x) lists
  /// its node twice under x).
  const std::vector<NodeId>& consumers_of(NodeId id) const;

  /// Give node `id` one more input, `input` (an earlier node): a graph
  /// pass that folds an op into `id` hands it that op's other operand
  /// (fuse_conv_relu gives a conv the residual of the add it absorbs).
  /// The op must accept the new input list and keep its output shape.
  /// Throws std::invalid_argument otherwise, or when `input` >= `id`.
  void add_input(NodeId id, NodeId input);

  /// Delete node `id` and bypass it: its consumers read its input
  /// instead, and every later node moves down one id. If it was the
  /// graph's output, that input becomes the output. `id` must have its
  /// bypass input's shape and be either
  ///  - a one-input node (a BatchNorm or ReLU a graph pass folded into
  ///    its conv), bypassed to that input, or
  ///  - a two-input node whose later input took the earlier one as its
  ///    last, extra input (an add whose residual a conv absorbed through
  ///    add_input), bypassed to the later input.
  /// Throws std::invalid_argument for any other node.
  void remove(NodeId id);

  /// Total conv flops of one forward pass.
  std::int64_t conv_flops() const;

  /// Dependency levels: level 0 is the input node, a node's level is
  /// 1 + the max level of its inputs. Nodes within one level share no
  /// edges and may execute concurrently.
  std::vector<std::vector<NodeId>> levels() const;

  /// Widest dependency level (1 for a pure chain) — the concurrency
  /// the topology admits.
  int max_width() const;

  /// Point every ConvOp and DepthwiseConvOp at `pool` (nullptr = the
  /// global pool), so all branches dispatch onto the same workers.
  void set_conv_pool(ThreadPool* pool);

  /// Seed-budget planning for concurrent branches: in every dependency
  /// level holding >= 2 Ndirect convs, split `workers` (0 = the conv
  /// pool's size) across them proportionally to FLOPs
  /// (partition_workers) and expose the rest of the pool to each conv
  /// as pure stealer tasks, so each conv seeds a sub-rectangle of the
  /// worker grid via solve_thread_mapping while idle cores from the
  /// sibling branch drain its tiles. No effect on results.
  void plan_concurrency(int workers = 0);

 private:
  struct Node {
    std::unique_ptr<Op> op;  ///< null for the input node
    std::vector<NodeId> inputs;
    std::vector<NodeId> consumers;  ///< see consumers_of
    TensorShape shape;
  };

  std::vector<Node> nodes_;
  NodeId output_ = 0;  ///< the last added node, unless remove() moved it
  ThreadPool* conv_pool_ = nullptr;  ///< set_conv_pool target
};

}  // namespace ndirect
