#include "ir/dfg.h"

#include "util/check.h"

namespace softsched::ir {

vertex_id dfg::add_op(op_kind kind, std::initializer_list<vertex_id> inputs,
                      std::string name) {
  return add_op(kind, std::span<const vertex_id>(inputs.begin(), inputs.size()),
                std::move(name));
}

vertex_id dfg::add_op(op_kind kind, std::span<const vertex_id> inputs, std::string name) {
  SOFTSCHED_EXPECT(kind != op_kind::wire, "use add_wire for wire-delay vertices");
  if (name.empty())
    name = std::string(mnemonic(kind)) += std::to_string(graph_.vertex_count());
  const vertex_id v = graph_.add_vertex(library_->latency(kind), std::move(name));
  kinds_.push_back(kind);
  for (const vertex_id in : inputs) graph_.add_edge(in, v);
  return v;
}

vertex_id dfg::add_wire(int delay, std::initializer_list<vertex_id> inputs,
                        std::string name) {
  SOFTSCHED_EXPECT(delay >= 1, "wire delay must be at least one cycle");
  if (name.empty()) name = std::string("wd") += std::to_string(graph_.vertex_count());
  const vertex_id v = graph_.add_vertex(delay, std::move(name));
  kinds_.push_back(op_kind::wire);
  for (const vertex_id in : inputs) graph_.add_edge(in, v);
  return v;
}

op_kind dfg::kind(vertex_id v) const {
  graph_.require_vertex(v);
  return kinds_[v.value()];
}

std::size_t dfg::count_kind(op_kind kind) const {
  std::size_t n = 0;
  for (const op_kind k : kinds_)
    if (k == kind) ++n;
  return n;
}

std::size_t dfg::count_class(resource_class cls) const {
  std::size_t n = 0;
  for (const op_kind k : kinds_)
    if (class_of(k) == cls) ++n;
  return n;
}

std::string missing_unit_reason(const dfg& d, const resource_set& resources) {
  for (const resource_class cls :
       {resource_class::alu, resource_class::multiplier, resource_class::memory_port})
    if (d.count_class(cls) > 0 && resources.count(cls) == 0)
      return d.name() + " needs at least one " + std::string(class_name(cls)) + " unit";
  return {};
}

} // namespace softsched::ir
