#include "inputs.h"

#include <sstream>

#include "explore/grid.h"
#include "ir/dfg_io.h"

namespace softbench {

namespace si = softsched::ir;
using softsched::graph::vertex_id;

si::dfg random_design(const si::resource_library& library, int ops, double edge_prob,
                      std::uint64_t seed) {
  softsched::explore::design_spec spec;
  spec.random_vertices = ops;
  spec.random_edge_prob = edge_prob;
  spec.seed = seed;
  return softsched::explore::build_design(spec, library);
}

std::string dfg_text(const si::dfg& d) {
  std::ostringstream out;
  si::write_dfg(out, d);
  return std::move(out).str();
}

renumbered_dfg renumber(const si::dfg& d, std::uint64_t seed) {
  softsched::rng rand(seed);
  const auto& g = d.graph();
  const std::size_t n = g.vertex_count();

  renumbered_dfg out;
  out.new_index.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.new_index[i] = static_cast<std::uint32_t>(i);
  rand.shuffle(out.new_index);

  // Kahn's algorithm with a uniformly random pick from the ready set.
  std::vector<std::size_t> indegree(n);
  std::vector<vertex_id> ready;
  for (const vertex_id v : g.vertices()) {
    indegree[v.value()] = g.preds(v).size();
    if (indegree[v.value()] == 0) ready.push_back(v);
  }
  std::ostringstream text;
  text << "dfg " << d.name() << '\n';
  std::vector<vertex_id> inputs;
  while (!ready.empty()) {
    const std::size_t pick = static_cast<std::size_t>(rand.below(ready.size()));
    const vertex_id v = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();

    text << (d.kind(v) == si::op_kind::wire ? "wire n" : "op n") << out.new_index[v.value()];
    if (d.kind(v) == si::op_kind::wire)
      text << ' ' << g.delay(v);
    else
      text << ' ' << si::kind_name(d.kind(v));
    inputs.assign(g.preds(v).begin(), g.preds(v).end());
    rand.shuffle(inputs);
    for (const vertex_id p : inputs) text << " n" << out.new_index[p.value()];
    text << '\n';
    for (const vertex_id s : g.succs(v))
      if (--indegree[s.value()] == 0) ready.push_back(s);
  }
  out.text = std::move(text).str();
  return out;
}

bool same_design_under(const si::dfg& original, const si::dfg& copy,
                       const std::vector<std::uint32_t>& new_index) {
  const auto& a = original.graph();
  const auto& b = copy.graph();
  if (a.vertex_count() != b.vertex_count() || a.edge_count() != b.edge_count() ||
      new_index.size() != a.vertex_count())
    return false;
  // Map every original vertex to the copy's vertex of the same name.
  std::vector<vertex_id> image(a.vertex_count(), vertex_id::invalid());
  for (const vertex_id v : a.vertices()) {
    const std::string name = "n" + std::to_string(new_index[v.value()]);
    for (const vertex_id w : b.vertices())
      if (b.name(w) == name) image[v.value()] = w;
    if (!image[v.value()].valid()) return false;
  }
  for (const vertex_id v : a.vertices()) {
    const vertex_id w = image[v.value()];
    if (original.kind(v) != copy.kind(w) || a.delay(v) != b.delay(w)) return false;
    for (const vertex_id s : a.succs(v))
      if (!b.has_edge(w, image[s.value()])) return false;
  }
  return true;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // SplitMix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

} // namespace softbench
