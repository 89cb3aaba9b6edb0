#include "core/hls_binding.h"

#include "util/check.h"

namespace softsched::core {

int hls_vertex_tag(const ir::dfg& d, vertex_id v) {
  if (d.kind(v) == ir::op_kind::wire) return wire_tag_base + static_cast<int>(v.value());
  return static_cast<int>(d.unit_class(v));
}

threaded_graph make_hls_state(const ir::dfg& d, const ir::resource_set& resources) {
  std::vector<int> tags;
  return make_hls_state(d, resources, nullptr, tags);
}

threaded_graph make_hls_state(const ir::dfg& d, const ir::resource_set& resources,
                              util::arena* arena, std::vector<int>& tags_scratch) {
  SOFTSCHED_EXPECT(resources.alus >= 0 && resources.multipliers >= 0 &&
                       resources.memory_ports >= 0,
                   "resource counts must be non-negative");
  if (const std::string why = ir::missing_unit_reason(d, resources); !why.empty())
    throw infeasible_error(why);
  std::vector<int>& tags = tags_scratch;
  tags.clear();
  for (int i = 0; i < resources.alus; ++i)
    tags.push_back(static_cast<int>(ir::resource_class::alu));
  for (int i = 0; i < resources.multipliers; ++i)
    tags.push_back(static_cast<int>(ir::resource_class::multiplier));
  for (int i = 0; i < resources.memory_ports; ++i)
    tags.push_back(static_cast<int>(ir::resource_class::memory_port));
  SOFTSCHED_EXPECT(!tags.empty(), "resource set provides no units at all");
  const ir::dfg* dp = &d;
  threaded_graph state(d.graph(), std::span<const int>(tags),
                       [dp](vertex_id v) { return hls_vertex_tag(*dp, v); }, arena);
  state.reserve_vertices(d.op_count());
  return state;
}

int add_wire_thread(threaded_graph& state, vertex_id wire_vertex) {
  return state.add_thread(wire_tag_base + static_cast<int>(wire_vertex.value()));
}

} // namespace softsched::core
