#include "meta/meta_schedule.h"

#include <algorithm>
#include <string>

#include "graph/topo.h"
#include "util/check.h"

namespace softsched::meta {

std::string_view meta_name(meta_kind kind) noexcept {
  switch (kind) {
  case meta_kind::depth_first: return "meta sched1";
  case meta_kind::topological: return "meta sched2";
  case meta_kind::path_based: return "meta sched3";
  case meta_kind::list_priority: return "meta sched4";
  }
  return "unknown";
}

meta_kind parse_meta_kind(std::string_view name) {
  // Indexed by meta_kind value.
  constexpr std::string_view spellings[] = {"dfs", "topo", "path", "list"};
  for (std::size_t i = 0; i < std::size(spellings); ++i)
    if (spellings[i] == name) return static_cast<meta_kind>(i);
  throw precondition_error("unknown meta schedule '" + std::string(name) +
                           "' (expected dfs|topo|path|list)");
}

namespace {

/// The one list-priority implementation, on caller-owned buffers. The
/// allocating list_priority_order wraps it, so the allocation-free serve
/// path cannot drift from the documented order.
void list_priority_into(const precedence_graph& g, meta_scratch& s,
                        std::vector<vertex_id>& out) {
  const std::size_t n = g.vertex_count();

  // Forward topological order (Kahn) into s.topo, then sink distances by a
  // backward sweep - the same labels graph::compute_distances produces,
  // without its temporaries.
  s.degree.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    s.degree[i] = static_cast<std::int32_t>(g.preds(vertex_id(static_cast<std::uint32_t>(i))).size());
  s.topo.clear();
  s.topo.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (s.degree[i] == 0) s.topo.push_back(static_cast<std::int32_t>(i));
  for (std::size_t head = 0; head < s.topo.size(); ++head) {
    const vertex_id u(static_cast<std::uint32_t>(s.topo[head]));
    for (const vertex_id w : g.succs(u))
      if (--s.degree[w.value()] == 0) s.topo.push_back(static_cast<std::int32_t>(w.value()));
  }
  if (s.topo.size() != n) throw graph_error("list_priority_order: graph contains a cycle");
  s.tdist.assign(n, 0);
  for (auto it = s.topo.rbegin(); it != s.topo.rend(); ++it) {
    const vertex_id v(static_cast<std::uint32_t>(*it));
    long long best = 0;
    for (const vertex_id q : g.succs(v)) best = std::max(best, s.tdist[q.value()]);
    s.tdist[static_cast<std::size_t>(*it)] = best + g.delay(v);
  }

  // Max-heap on (sink distance, then lowest id) - the classic critical-path
  // list scheduling priority. push_heap/pop_heap on the scratch vector is
  // exactly what std::priority_queue did here before; the comparator is a
  // strict total order (ids are unique), so the popped sequence is
  // identical on any conforming heap.
  using entry = std::pair<long long, std::uint32_t>;
  const auto cmp = [](const entry& a, const entry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  s.degree.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    s.degree[i] = static_cast<std::int32_t>(g.preds(vertex_id(static_cast<std::uint32_t>(i))).size());
  s.heap.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (s.degree[i] == 0) {
      s.heap.emplace_back(s.tdist[i], static_cast<std::uint32_t>(i));
      std::push_heap(s.heap.begin(), s.heap.end(), cmp);
    }

  out.clear();
  out.reserve(n);
  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), cmp);
    const vertex_id u(s.heap.back().second);
    s.heap.pop_back();
    out.push_back(u);
    for (const vertex_id w : g.succs(u))
      if (--s.degree[w.value()] == 0) {
        s.heap.emplace_back(s.tdist[w.value()], w.value());
        std::push_heap(s.heap.begin(), s.heap.end(), cmp);
      }
  }
}

} // namespace

std::vector<vertex_id> list_priority_order(const precedence_graph& g) {
  meta_scratch scratch;
  std::vector<vertex_id> order;
  list_priority_into(g, scratch, order);
  return order;
}

std::vector<vertex_id> meta_schedule(const precedence_graph& g, meta_kind kind) {
  switch (kind) {
  case meta_kind::depth_first: return graph::depth_first_order(g);
  case meta_kind::topological: return graph::topological_order(g);
  case meta_kind::path_based: {
    std::vector<vertex_id> order;
    order.reserve(g.vertex_count());
    for (const auto& path : graph::path_partition(g))
      order.insert(order.end(), path.begin(), path.end());
    return order;
  }
  case meta_kind::list_priority: return list_priority_order(g);
  }
  throw precondition_error("unknown meta schedule kind");
}

void meta_schedule(const precedence_graph& g, meta_kind kind, meta_scratch& scratch,
                   std::vector<vertex_id>& out) {
  if (kind == meta_kind::list_priority) {
    list_priority_into(g, scratch, out);
    return;
  }
  out = meta_schedule(g, kind); // non-default kinds keep the allocating path
}

std::vector<vertex_id> random_meta_schedule(const precedence_graph& g, rng& rand) {
  std::vector<vertex_id> order = g.vertices();
  rand.shuffle(order);
  return order;
}

} // namespace softsched::meta
