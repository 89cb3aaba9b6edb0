#include "hard/list_scheduler.h"

#include <algorithm>
#include <limits>

#include "graph/distances.h"
#include "util/check.h"

namespace softsched::hard {

schedule list_schedule(const ir::dfg& d, const ir::resource_set& resources) {
  const auto& g = d.graph();
  if (const std::string why = ir::missing_unit_reason(d, resources); !why.empty())
    throw infeasible_error(why);

  const graph::distance_labels labels = graph::compute_distances(g);
  const std::size_t n = g.vertex_count();

  schedule s;
  s.start.assign(n, -1);
  s.unit.assign(n, -1);

  // Unit pool: per class, the cycle at which each instance becomes free.
  // Unit indices are globally numbered the same way the HLS thread binding
  // numbers threads: ALUs first, then multipliers, then memory ports.
  std::vector<long long> unit_free;
  int class_base[ir::resource_class_count] = {0, 0, 0, 0};
  auto add_units = [&unit_free](int count) {
    const int base = static_cast<int>(unit_free.size());
    unit_free.insert(unit_free.end(), static_cast<std::size_t>(count), 0);
    return base;
  };
  class_base[static_cast<int>(ir::resource_class::alu)] = add_units(resources.alus);
  class_base[static_cast<int>(ir::resource_class::multiplier)] =
      add_units(resources.multipliers);
  class_base[static_cast<int>(ir::resource_class::memory_port)] =
      add_units(resources.memory_ports);

  std::vector<std::size_t> unscheduled_preds(n);
  std::vector<vertex_id> ready;
  for (const vertex_id v : g.vertices()) {
    unscheduled_preds[v.value()] = g.preds(v).size();
    if (g.preds(v).empty()) ready.push_back(v);
  }
  auto priority_less = [&labels](vertex_id a, vertex_id b) {
    // Higher sink distance first; ties by id for determinism.
    if (labels.tdist[a.value()] != labels.tdist[b.value()])
      return labels.tdist[a.value()] > labels.tdist[b.value()];
    return a < b;
  };

  std::size_t scheduled = 0;
  long long cycle = 0;
  while (scheduled < n) {
    std::sort(ready.begin(), ready.end(), priority_less);
    std::vector<vertex_id> deferred;
    std::vector<vertex_id> finished_now;
    for (const vertex_id v : ready) {
      // Data-ready time.
      long long earliest = 0;
      for (const vertex_id p : g.preds(v))
        earliest = std::max(earliest, s.start[p.value()] + g.delay(p));
      if (earliest > cycle) {
        deferred.push_back(v);
        continue;
      }
      const ir::resource_class cls = d.unit_class(v);
      if (cls == ir::resource_class::wire) {
        // Dedicated interconnect: no unit contention.
        s.start[v.value()] = cycle;
      } else {
        const int base = class_base[static_cast<int>(cls)];
        const int count = resources.count(cls);
        int chosen = -1;
        for (int u = 0; u < count; ++u) {
          if (unit_free[static_cast<std::size_t>(base + u)] <= cycle) {
            chosen = base + u;
            break;
          }
        }
        if (chosen < 0) {
          deferred.push_back(v); // all units of the class busy this cycle
          continue;
        }
        unit_free[static_cast<std::size_t>(chosen)] = cycle + g.delay(v);
        s.start[v.value()] = cycle;
        s.unit[v.value()] = chosen;
      }
      ++scheduled;
      s.makespan = std::max(s.makespan, cycle + g.delay(v));
      finished_now.push_back(v);
    }
    for (const vertex_id v : finished_now)
      for (const vertex_id w : g.succs(v))
        if (--unscheduled_preds[w.value()] == 0) deferred.push_back(w);
    ready = std::move(deferred);
    ++cycle;
    SOFTSCHED_EXPECT(cycle < std::numeric_limits<long long>::max() / 2,
                     "list scheduler failed to converge");
  }
  return s;
}

} // namespace softsched::hard
