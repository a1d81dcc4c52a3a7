#include "rivertrail/task_graph.h"

#include <stdexcept>

#include "rivertrail/fault_injection.h"

namespace jsceres::rivertrail {

TaskGraph::NodeId TaskGraph::add(std::function<void()> body) {
  const auto id = NodeId(nodes_.size());
  Node& node = nodes_.emplace_back();
  node.body = std::move(body);
  return id;
}

void TaskGraph::depend(NodeId before, NodeId after) {
  if (before >= nodes_.size() || after >= nodes_.size()) {
    throw std::out_of_range("TaskGraph::depend: unknown node id");
  }
  if (before == after) {
    throw std::logic_error("TaskGraph::depend: node cannot depend on itself");
  }
  nodes_[before].successors.push_back(after);
  ++nodes_[after].initial_pending;
  topology_validated_ = false;
}

void TaskGraph::check_acyclic() const {
  // Kahn's algorithm over a scratch copy of the counters: if topological
  // retirement cannot reach every node, running would hang the join.
  std::vector<std::int32_t> pending(nodes_.size());
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < NodeId(nodes_.size()); ++id) {
    pending[id] = nodes_[id].initial_pending;
    if (pending[id] == 0) ready.push_back(id);
  }
  std::size_t retired = 0;
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    ++retired;
    for (const NodeId succ : nodes_[id].successors) {
      if (--pending[succ] == 0) ready.push_back(succ);
    }
  }
  if (retired != nodes_.size()) {
    throw std::logic_error("TaskGraph::run: graph has a dependency cycle");
  }
}

void TaskGraph::spawn(NodeId id) {
  TaskGraph* self = this;
  const auto run_node = [self, id] { self->execute(id); };
  if (!pool_->try_push_local(run_node)) {
    pool_->inject(Task::inline_of(run_node));
  }
}

void TaskGraph::execute(NodeId id) {
  // Loop instead of recursing into the chosen successor: a long chain of
  // nodes (the common frame-graph shape) must not grow the C++ stack.
  while (true) {
    Node& node = nodes_[id];
    if (!error_.has_failed() && !cancel_.cancelled()) {
      try {
        sched_faults::event();
        node.body();
      } catch (...) {
        error_.capture();
      }
    }
    NodeId next = kInvalidNode;
    for (const NodeId succ : node.successors) {
      // acq_rel: the final decrement acquires every predecessor's release,
      // so the successor's body sees all predecessor writes.
      if (nodes_[succ].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (next == kInvalidNode) {
          next = succ;  // continue into this one ourselves (cache-warm)
        } else {
          spawn(succ);  // help-first: stealable by hungry thieves
        }
      }
    }
    gate_->arrive(1);  // last touch of `node` for this task
    if (next == kInvalidNode) return;
    id = next;
  }
}

void TaskGraph::run(CancelToken cancel) {
  if (nodes_.empty()) return;
  cancel.raise_if_cancelled();
  cancel_ = cancel;
  // Validate only when edges changed since the last run: a re-run frame
  // graph must not pay O(V+E) plus allocations per frame.
  if (!topology_validated_) {
    check_acyclic();
    topology_validated_ = true;
  }
  error_.reset();
  std::vector<NodeId> sources;
  for (NodeId id = 0; id < NodeId(nodes_.size()); ++id) {
    nodes_[id].pending.store(nodes_[id].initial_pending, std::memory_order_relaxed);
    if (nodes_[id].initial_pending == 0) sources.push_back(id);
  }
  CompletionGate gate{std::int64_t(nodes_.size())};
  gate_ = &gate;
  // Launch all sources but one through the injection rings under a single
  // wakeup; the caller runs the first source itself and then helps at the
  // join (caller-runs, same as parallel_for).
  if (sources.size() > 1) {
    std::vector<Task> injected;
    injected.reserve(sources.size() - 1);
    TaskGraph* self = this;
    for (std::size_t i = 1; i < sources.size(); ++i) {
      const NodeId id = sources[i];
      injected.push_back(Task::inline_of([self, id] { self->execute(id); }));
    }
    pool_->inject_bulk(injected.data(), injected.size());
  }
  execute(sources.front());
  detail::help_until(*pool_, gate);
  gate_ = nullptr;
  cancel_ = CancelToken();  // the graph outlives the caller's source
  error_.rethrow_if_failed();
  cancel.raise_if_cancelled();
}

}  // namespace jsceres::rivertrail
