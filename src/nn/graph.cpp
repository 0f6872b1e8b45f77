#include "nn/graph.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/threading.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"

namespace ndirect {

Graph::Graph(int N, int C, int H, int W) {
  Node input;
  input.shape = {N, C, H, W};
  nodes_.push_back(std::move(input));
}

NodeId Graph::add(std::unique_ptr<Op> op, std::vector<NodeId> inputs) {
  if (inputs.empty()) throw std::invalid_argument("op needs inputs");
  std::vector<TensorShape> in_shapes;
  for (NodeId id : inputs) {
    if (id < 0 || id >= node_count()) {
      throw std::invalid_argument("bad input node id");
    }
    in_shapes.push_back(nodes_[static_cast<std::size_t>(id)].shape);
  }
  Node node;
  node.shape = op->infer(in_shapes);
  node.op = std::move(op);
  node.inputs = std::move(inputs);
  output_ = node_count();
  for (NodeId in : node.inputs) {
    nodes_[static_cast<std::size_t>(in)].consumers.push_back(output_);
  }
  nodes_.push_back(std::move(node));
  return output_;
}

std::vector<std::vector<NodeId>> Graph::levels() const {
  std::vector<int> level(nodes_.size(), 0);
  int deepest = 0;
  // Nodes are stored in topological order, so one forward sweep fixes
  // every level.
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    int l = 0;
    for (NodeId in : nodes_[i].inputs) {
      l = std::max(l, level[static_cast<std::size_t>(in)] + 1);
    }
    level[i] = l;
    deepest = std::max(deepest, l);
  }
  std::vector<std::vector<NodeId>> out(
      static_cast<std::size_t>(deepest) + 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out[static_cast<std::size_t>(level[i])].push_back(
        static_cast<NodeId>(i));
  }
  return out;
}

int Graph::max_width() const {
  int width = 1;
  for (const auto& level : levels()) {
    width = std::max(width, static_cast<int>(level.size()));
  }
  return width;
}

void Graph::set_conv_pool(ThreadPool* pool) {
  conv_pool_ = pool;
  for (auto& node : nodes_) {
    if (auto* c = dynamic_cast<ConvOp*>(node.op.get())) {
      c->set_pool(pool);
    } else if (auto* d = dynamic_cast<DepthwiseConvOp*>(node.op.get())) {
      d->set_pool(pool);
    }
  }
}

void Graph::plan_concurrency(int workers) {
  if (workers <= 0) {
    ThreadPool& pool =
        conv_pool_ != nullptr ? *conv_pool_ : ThreadPool::global();
    workers = static_cast<int>(pool.size());
  }
  for (const auto& level : levels()) {
    std::vector<ConvOp*> convs;
    for (NodeId id : level) {
      auto* c = dynamic_cast<ConvOp*>(
          nodes_[static_cast<std::size_t>(id)].op.get());
      if (c != nullptr && c->backend() == ConvBackend::Ndirect) {
        convs.push_back(c);
      }
    }
    if (convs.size() < 2) {
      // Nothing to share the machine with: whole pool, no extras.
      for (ConvOp* c : convs) c->set_worker_budget(0, 0);
      continue;
    }
    std::vector<double> flops;
    flops.reserve(convs.size());
    for (const ConvOp* c : convs) {
      flops.push_back(static_cast<double>(c->params().flops()));
    }
    const std::vector<int> budget = partition_workers(workers, flops);
    for (std::size_t i = 0; i < convs.size(); ++i) {
      // Seed a sub-rectangle sized to this conv's share; the rest of
      // the pool shows up as pure stealer tasks, so cores the sibling
      // branch leaves idle drain this conv's tiles.
      convs[i]->set_worker_budget(budget[i],
                                  std::max(0, workers - budget[i]));
    }
  }
}

Tensor Graph::run(const Tensor& input, const GraphRunOptions& opts) const {
  const std::size_t n = nodes_.size();
  const int runners =
      std::min(opts.runners > 0 ? opts.runners : 8, max_width());
  // Slots are preallocated and never move; a slot is written exactly
  // once, by the runner that executes its node, strictly before the
  // completion is published under the mutex — so consumers (which only
  // read inputs already completed) race with nothing. Node 0's slot
  // stays empty: its consumers read `input` itself.
  std::vector<Tensor> values(n);
  std::vector<int> indeg(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    indeg[i] = static_cast<int>(nodes_[i].inputs.size());
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<NodeId> ready;
  int remaining = static_cast<int>(n) - 1;
  int inflight = 0;
  int max_inflight = 0;
  std::vector<NodeRun> record;
  if (opts.stats != nullptr) record.reserve(n - 1);
  std::exception_ptr error;

  // "Complete" the input node: its consumers with no other pending
  // inputs become the initial ready set.
  for (NodeId c : nodes_[0].consumers) {
    if (--indeg[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
  }

  auto runner = [&](int runner_id) {
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      cv.wait(lock, [&] {
        return error != nullptr || remaining == 0 || !ready.empty();
      });
      if (error != nullptr || remaining == 0) return;
      const NodeId id = ready.back();
      ready.pop_back();
      ++inflight;
      max_inflight = std::max(max_inflight, inflight);
      lock.unlock();

      const Node& node = nodes_[static_cast<std::size_t>(id)];
      std::vector<const Tensor*> args;
      args.reserve(node.inputs.size());
      for (NodeId in : node.inputs) {
        args.push_back(in == 0 ? &input
                               : &values[static_cast<std::size_t>(in)]);
      }
      NodeRun row{id, runner_id, 0, 0};
      Tensor out;
      try {
        if (trace_on())
          TraceSession::global().begin(node.op->name(), "node",
                                       static_cast<std::int64_t>(id));
        if (opts.stats != nullptr) row.start_ns = monotonic_ns();
        out = node.op->forward(args);
        if (opts.stats != nullptr) row.end_ns = monotonic_ns();
        if (trace_on()) TraceSession::global().end(node.op->name());
      } catch (...) {
        // Balance the span even on the error path so the exported
        // trace keeps every lane's B/E stack well-formed.
        if (trace_on()) TraceSession::global().end(node.op->name());
        lock.lock();
        if (error == nullptr) error = std::current_exception();
        --inflight;
        cv.notify_all();
        return;
      }
      values[static_cast<std::size_t>(id)] = std::move(out);

      lock.lock();
      --inflight;
      --remaining;
      if (opts.stats != nullptr) record.push_back(row);
      for (NodeId c : node.consumers) {
        if (--indeg[static_cast<std::size_t>(c)] == 0) {
          ready.push_back(c);
        }
      }
      // Waking everyone is deliberate: several nodes may have become
      // ready, and the final completion must release all runners.
      cv.notify_all();
    }
  };

  // Dedicated (cheap, short-lived) runner crew rather than pool tasks:
  // node bodies dispatch onto the ThreadPool themselves, and consuming
  // pool workers for graph bookkeeping would starve the conv gangs the
  // runners are trying to keep busy. The caller is runner #0; with one
  // runner it drains the ready set alone.
  std::vector<std::thread> crew;
  crew.reserve(static_cast<std::size_t>(runners) - 1);
  for (int i = 1; i < runners; ++i) {
    crew.emplace_back([&runner, i] {
      // Lane registration only while a session is live: crew threads
      // are short-lived, and an inactive trace should not grow the
      // lane registry run after run.
      if (trace_on())
        set_trace_lane_name("graph-runner-" + std::to_string(i));
      runner(i);
    });
  }
  // The caller keeps its own lane identity (renaming the main thread's
  // lane would mislabel everything it records later).
  runner(0);
  for (auto& t : crew) t.join();

  if (error != nullptr) std::rethrow_exception(error);
  if (opts.stats != nullptr) {
    *opts.stats = {};
    opts.stats->runners = runners;
    opts.stats->max_inflight = max_inflight;
    opts.stats->nodes = std::move(record);
  }
  // A graph with no ops returns a copy, never the caller's tensor.
  if (output_ == 0) return input.clone();
  return std::move(values[static_cast<std::size_t>(output_)]);
}

const TensorShape& Graph::output_shape() const {
  return nodes_[static_cast<std::size_t>(output_)].shape;
}

const TensorShape& Graph::shape_of(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id)).shape;
}

Op* Graph::op_of(NodeId id) {
  return nodes_.at(static_cast<std::size_t>(id)).op.get();
}

std::vector<ConvOp*> Graph::conv_ops() {
  std::vector<ConvOp*> convs;
  for (auto& node : nodes_) {
    if (auto* c = dynamic_cast<ConvOp*>(node.op.get())) {
      convs.push_back(c);
    }
  }
  return convs;
}

const std::vector<NodeId>& Graph::inputs_of(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id)).inputs;
}

const std::vector<NodeId>& Graph::consumers_of(NodeId id) const {
  return nodes_.at(static_cast<std::size_t>(id)).consumers;
}

void Graph::add_input(NodeId id, NodeId input) {
  if (id <= 0 || id >= node_count() || input < 0 || input >= id) {
    throw std::invalid_argument("add_input: bad node ids");
  }
  Node& node = nodes_[static_cast<std::size_t>(id)];
  std::vector<TensorShape> in_shapes;
  for (NodeId in : node.inputs) {
    in_shapes.push_back(nodes_[static_cast<std::size_t>(in)].shape);
  }
  in_shapes.push_back(nodes_[static_cast<std::size_t>(input)].shape);
  if (!(node.op->infer(in_shapes) == node.shape)) {
    throw std::invalid_argument("add_input: the new input changes the shape");
  }
  node.inputs.push_back(input);
  std::vector<NodeId>& consumers =
      nodes_[static_cast<std::size_t>(input)].consumers;
  consumers.insert(std::upper_bound(consumers.begin(), consumers.end(), id),
                   id);
}

void Graph::remove(NodeId id) {
  if (id <= 0 || id >= node_count()) {
    throw std::invalid_argument("remove: bad node id");
  }
  const Node& node = nodes_[static_cast<std::size_t>(id)];
  NodeId src = -1;
  if (node.inputs.size() == 1) {
    src = node.inputs[0];
  } else if (node.inputs.size() == 2) {
    const NodeId early = std::min(node.inputs[0], node.inputs[1]);
    const NodeId late = std::max(node.inputs[0], node.inputs[1]);
    const std::vector<NodeId>& late_in =
        nodes_[static_cast<std::size_t>(late)].inputs;
    if (late_in.size() > 1 && late_in.back() == early) src = late;
  }
  if (src < 0) {
    throw std::invalid_argument(
        "remove: node has no input to bypass it through");
  }
  Node& source = nodes_[static_cast<std::size_t>(src)];
  if (!(source.shape == node.shape)) {
    throw std::invalid_argument("remove: node changes its input's shape");
  }
  // Rewire: every edge out of `id` now leaves `src`, and the edges into
  // `id` are gone.
  for (NodeId c : node.consumers) {
    for (NodeId& in : nodes_[static_cast<std::size_t>(c)].inputs) {
      if (in == id) in = src;
    }
  }
  for (NodeId in : node.inputs) {
    std::erase(nodes_[static_cast<std::size_t>(in)].consumers, id);
  }
  source.consumers.insert(source.consumers.end(), node.consumers.begin(),
                          node.consumers.end());
  std::sort(source.consumers.begin(), source.consumers.end());
  if (output_ == id) output_ = src;

  nodes_.erase(nodes_.begin() + id);
  auto renumber = [id](NodeId& n) {
    if (n > id) --n;
  };
  for (Node& other : nodes_) {
    std::for_each(other.inputs.begin(), other.inputs.end(), renumber);
    std::for_each(other.consumers.begin(), other.consumers.end(), renumber);
  }
  renumber(output_);
}

std::int64_t Graph::conv_flops() const {
  std::int64_t total = 0;
  for (const auto& node : nodes_) {
    if (const auto* c = dynamic_cast<const ConvOp*>(node.op.get())) {
      total += c->params().flops();
    }
  }
  return total;
}

}  // namespace ndirect
