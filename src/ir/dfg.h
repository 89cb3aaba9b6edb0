// dfg.h - a dataflow graph: the precedence graph of Definition 1 plus the
// operation kind of every vertex. This is the unit of work both the soft
// (threaded) scheduler and the hard baselines consume.
#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "graph/precedence_graph.h"
#include "ir/operation.h"
#include "ir/resource.h"

namespace softsched::ir {

using graph::vertex_id;

/// Dataflow graph over a resource library. The vertex delay stored in the
/// underlying precedence graph is the operation latency (wire vertices may
/// carry any positive delay).
class dfg {
public:
  dfg(std::string name, const resource_library& library)
      : name_(std::move(name)), library_(&library) {}

  /// Adds an operation whose inputs are the given producer vertices.
  /// Latency comes from the library.
  vertex_id add_op(op_kind kind, std::initializer_list<vertex_id> inputs,
                   std::string name = {});
  vertex_id add_op(op_kind kind, std::span<const vertex_id> inputs,
                   std::string name = {});

  /// Adds a wire-delay pseudo operation with an explicit delay.
  vertex_id add_wire(int delay, std::initializer_list<vertex_id> inputs,
                     std::string name = {});

  /// Adds a dependence edge between existing operations.
  void add_dependence(vertex_id from, vertex_id to) { graph_.add_edge(from, to); }

  [[nodiscard]] op_kind kind(vertex_id v) const;
  [[nodiscard]] resource_class unit_class(vertex_id v) const { return class_of(kind(v)); }

  [[nodiscard]] const graph::precedence_graph& graph() const noexcept { return graph_; }
  [[nodiscard]] graph::precedence_graph& graph() noexcept { return graph_; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const resource_library& library() const noexcept { return *library_; }

  [[nodiscard]] std::size_t op_count() const noexcept { return graph_.vertex_count(); }

  /// Number of operations of a given kind.
  [[nodiscard]] std::size_t count_kind(op_kind kind) const;

  /// Number of operations needing a given FU class.
  [[nodiscard]] std::size_t count_class(resource_class cls) const;

  /// Throws graph_error / precondition_error when structurally invalid.
  void validate() const { graph_.validate(); }

private:
  std::string name_;
  const resource_library* library_;
  graph::precedence_graph graph_;
  std::vector<op_kind> kinds_;
};

/// The zero-unit rule every scheduler applies first: "<design> needs at
/// least one <class> unit" for the first of alu, multiplier and
/// memory_port that `d` uses and `resources` gives zero units, or an empty
/// string when no class falls short.
[[nodiscard]] std::string missing_unit_reason(const dfg& d, const resource_set& resources);

} // namespace softsched::ir
