#include "graph/precedence_graph.h"

#include <algorithm>

#include "util/check.h"

namespace softsched::graph {

vertex_id precedence_graph::add_vertex(int delay, std::string name) {
  SOFTSCHED_EXPECT(delay >= 0, "vertex delay must be non-negative");
  const auto id = vertex_id(static_cast<std::uint32_t>(delay_.size()));
  delay_.push_back(delay);
  name_.push_back(std::move(name));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

void precedence_graph::require_vertex(vertex_id v) const {
  SOFTSCHED_EXPECT(v.valid() && v.value() < delay_.size(), "vertex id out of range");
}

void precedence_graph::add_edge(vertex_id from, vertex_id to) {
  require_vertex(from);
  require_vertex(to);
  SOFTSCHED_EXPECT(from != to, "self-loops are not allowed in a precedence graph");
  auto& out = out_[from.value()];
  if (std::find(out.begin(), out.end(), to) != out.end()) return; // set semantics
  out.push_back(to);
  in_[to.value()].push_back(from);
  edge_log_.emplace_back(from, to);
  ++edge_count_;
}

bool precedence_graph::remove_edge_reach_preserved(vertex_id from, vertex_id to) {
  require_vertex(from);
  require_vertex(to);
  auto& out = out_[from.value()];
  const auto it = std::find(out.begin(), out.end(), to);
  if (it == out.end()) return false;
  out.erase(it);
  auto& in = in_[to.value()];
  in.erase(std::find(in.begin(), in.end(), from));
  --edge_count_;
  return true;
}

bool precedence_graph::has_edge(vertex_id from, vertex_id to) const {
  require_vertex(from);
  require_vertex(to);
  const auto& out = out_[from.value()];
  return std::find(out.begin(), out.end(), to) != out.end();
}

int precedence_graph::delay(vertex_id v) const {
  require_vertex(v);
  return delay_[v.value()];
}

void precedence_graph::set_delay(vertex_id v, int delay) {
  require_vertex(v);
  SOFTSCHED_EXPECT(delay >= 0, "vertex delay must be non-negative");
  delay_[v.value()] = delay;
}

std::string_view precedence_graph::name(vertex_id v) const {
  require_vertex(v);
  return name_[v.value()];
}

void precedence_graph::set_name(vertex_id v, std::string name) {
  require_vertex(v);
  name_[v.value()] = std::move(name);
}

std::span<const vertex_id> precedence_graph::preds(vertex_id v) const {
  require_vertex(v);
  return in_[v.value()];
}

std::span<const vertex_id> precedence_graph::succs(vertex_id v) const {
  require_vertex(v);
  return out_[v.value()];
}

std::vector<vertex_id> precedence_graph::sources() const {
  std::vector<vertex_id> result;
  for (std::size_t i = 0; i < delay_.size(); ++i)
    if (in_[i].empty()) result.emplace_back(static_cast<std::uint32_t>(i));
  return result;
}

std::vector<vertex_id> precedence_graph::sinks() const {
  std::vector<vertex_id> result;
  for (std::size_t i = 0; i < delay_.size(); ++i)
    if (out_[i].empty()) result.emplace_back(static_cast<std::uint32_t>(i));
  return result;
}

std::vector<vertex_id> precedence_graph::vertices() const {
  std::vector<vertex_id> result;
  result.reserve(delay_.size());
  for (std::size_t i = 0; i < delay_.size(); ++i)
    result.emplace_back(static_cast<std::uint32_t>(i));
  return result;
}

bool precedence_graph::is_dag() const {
  // Kahn's algorithm: the graph is acyclic iff every vertex gets popped.
  std::vector<std::size_t> in_degree(delay_.size());
  for (std::size_t i = 0; i < delay_.size(); ++i) in_degree[i] = in_[i].size();
  std::vector<std::uint32_t> stack;
  for (std::size_t i = 0; i < delay_.size(); ++i)
    if (in_degree[i] == 0) stack.push_back(static_cast<std::uint32_t>(i));
  std::size_t popped = 0;
  while (!stack.empty()) {
    const std::uint32_t u = stack.back();
    stack.pop_back();
    ++popped;
    for (const vertex_id w : out_[u])
      if (--in_degree[w.value()] == 0) stack.push_back(w.value());
  }
  return popped == delay_.size();
}

void precedence_graph::validate() const {
  if (!is_dag()) throw graph_error("precedence graph contains a cycle");
}

} // namespace softsched::graph
