#include "explore/dse.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace softsched::explore {

namespace {

using clock_type = std::chrono::steady_clock;

double millis_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

bool same_allocation(const ir::resource_set& a, const ir::resource_set& b) {
  return a.alus == b.alus && a.multipliers == b.multipliers &&
         a.memory_ports == b.memory_ports;
}

} // namespace

bool point_result::same_schedule(const point_result& other) const {
  return backend == other.backend && point.index == other.point.index &&
         same_allocation(point.resources, other.point.resources) &&
         point.mul_latency == other.point.mul_latency &&
         point.iter_budget == other.point.iter_budget && feasible == other.feasible &&
         infeasible_reason == other.infeasible_reason && ops == other.ops &&
         latency == other.latency && area == other.area &&
         start_times == other.start_times && unit_of == other.unit_of &&
         stats == other.stats;
}

std::size_t exploration_result::feasible_count() const {
  std::size_t n = 0;
  for (const point_result& p : points) n += p.feasible ? 1 : 0;
  return n;
}

double exploration_result::points_per_sec() const {
  return wall_ms > 0 ? static_cast<double>(points.size()) / (wall_ms / 1e3) : 0.0;
}

bool exploration_result::same_outcome(const exploration_result& other) const {
  if (points.size() != other.points.size() || backends != other.backends ||
      frontiers != other.frontiers || frontier != other.frontier)
    return false;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (!points[i].same_schedule(other.points[i])) return false;
  return true;
}

point_result run_point(const grid_spec& spec, const design_point& point,
                       const sched::scheduler_backend& backend,
                       const sched::backend_options& options,
                       sched::run_context& ctx) {
  point_result r;
  r.point = point;
  r.backend = backend.name();
  r.area = allocation_area(point.resources);

  // Everything below is private to this job: library, DFG, and whatever
  // state the backend builds. Share-nothing is the determinism argument;
  // backends are stateless, so sharing the registry instance is sound.
  ir::resource_library library;
  apply_point_latency(point, library);
  const ir::dfg design = build_design(spec.design, library);
  r.ops = design.op_count();

  // The budget axis lives on the point; a point off the axis (-1) defers
  // to whatever the caller's options carry (normally the backend default).
  sched::backend_options point_options = options;
  if (point.iter_budget >= 0) point_options.iter_budget = point.iter_budget;

  const auto t0 = clock_type::now();
  sched::backend_outcome outcome =
      backend.run({design, library, point.resources, point_options}, ctx);
  r.wall_ms = millis_since(t0);
  r.feasible = outcome.feasible;
  r.infeasible_reason = std::move(outcome.infeasible_reason);
  r.latency = outcome.latency;
  r.start_times = std::move(outcome.start_times);
  r.unit_of = std::move(outcome.unit_of);
  r.stats = outcome.stats;
  return r;
}

exploration_result run_exploration(const grid_spec& spec,
                                   const exploration_options& options) {
  const std::vector<design_point> points = enumerate_grid(spec);
  exploration_result out;
  out.backends = options.backends.empty() ? std::vector<std::string>{"soft"}
                                          : options.backends;
  // Resolve every backend before any point runs: an unknown name is a
  // caller error, not 24 infeasible points. Duplicates are rejected too -
  // they would double the grid and emit a JSON report whose "frontiers"
  // object repeats a key, which the repo's own strict parser refuses.
  std::vector<const sched::scheduler_backend*> backends;
  backends.reserve(out.backends.size());
  for (const std::string& name : out.backends) {
    const sched::scheduler_backend* backend = &sched::get_backend(name);
    SOFTSCHED_EXPECT(std::find(backends.begin(), backends.end(), backend) ==
                         backends.end(),
                     "duplicate scheduler backend '" + name + "' in exploration");
    backends.push_back(backend);
  }
  sched::backend_options bopt;
  bopt.meta = options.meta;
  bopt.iter_budget = options.iter_budget;

  const std::size_t total = points.size() * backends.size();
  out.points.resize(total);
  out.jobs = options.jobs < 1 ? thread_pool::hardware_workers()
                              : static_cast<unsigned>(options.jobs);
  // One job per (backend, point) at most: extra workers would only sit
  // idle, and an absurd --jobs value must not translate into thousands of
  // threads.
  if (out.jobs > total) out.jobs = static_cast<unsigned>(total == 0 ? 1 : total);

  const auto t0 = clock_type::now();
  {
    // Each job writes only its own pre-allocated slot, so the result vector
    // needs no lock and the outcome no longer depends on completion order.
    // Per-worker run_contexts ride along; a context never changes a
    // point's values.
    thread_pool pool(out.jobs);
    sched::worker_contexts contexts(out.jobs);
    parallel_for_index(&pool, total, [&](std::size_t i) {
      const std::size_t b = i / points.size();
      out.points[i] = run_point(spec, points[i % points.size()], *backends[b], bopt,
                                contexts.local());
    });
  }
  out.wall_ms = millis_since(t0);

  // One frontier per backend, each computed over its contiguous block but
  // indexed into the global points vector.
  out.frontiers.resize(backends.size());
  for (std::size_t b = 0; b < backends.size(); ++b) {
    std::vector<objective> objectives(points.size());
    const std::size_t base = b * points.size();
    for (std::size_t i = 0; i < points.size(); ++i)
      objectives[i] = objective{out.points[base + i].area, out.points[base + i].latency,
                                out.points[base + i].feasible};
    out.frontiers[b] = pareto_frontier(objectives);
    for (int& index : out.frontiers[b]) index += static_cast<int>(base);
  }
  out.frontier = out.frontiers.front();
  return out;
}

void write_schedule_stats(json_writer& j, const core::schedule_stats& s) {
  j.begin_object();
  j.member("select_calls", s.select_calls);
  j.member("positions_scanned", s.positions_scanned);
  j.member("commits", s.commits);
  j.member("label_passes", s.label_passes);
  j.member("cross_edge_updates", s.cross_edge_updates);
  j.member("nodes_relabeled", s.nodes_relabeled);
  j.member("closure_rebuilds", s.closure_rebuilds);
  j.member("closure_syncs", s.closure_syncs);
  j.member("closure_rows_touched", s.closure_rows_touched);
  j.end_object();
}

void write_report(json_writer& j, const grid_spec& spec,
                  const exploration_result& result) {
  const auto axis = [&](std::string_view name, const axis_range& a) {
    j.key(name);
    j.begin_array();
    j.value(a.lo);
    j.value(a.hi);
    j.end_array();
  };

  j.begin_object();
  j.member("design", spec.design.name());
  j.member("ops", result.points.empty() ? std::size_t{0} : result.points.front().ops);
  j.key("grid");
  j.begin_object();
  axis("alus", spec.alus);
  axis("muls", spec.muls);
  axis("mems", spec.mems);
  axis("mul_latency", spec.mul_latency);
  axis("iter_budget", spec.iter_budget);
  j.member("points", result.points.size());
  j.end_object();
  j.member("jobs", static_cast<unsigned long long>(result.jobs));
  j.member("wall_ms", result.wall_ms);
  j.member("points_per_sec", result.points_per_sec());
  j.member("feasible", result.feasible_count());
  j.key("backends");
  j.begin_array();
  for (const std::string& name : result.backends) j.value(name);
  j.end_array();

  j.key("points");
  j.begin_array();
  for (const point_result& p : result.points) {
    j.begin_object();
    j.member("index", p.point.index);
    j.member("backend", p.backend);
    j.member("resources", p.point.resources.label());
    j.member("alus", p.point.resources.alus);
    j.member("muls", p.point.resources.multipliers);
    j.member("mems", p.point.resources.memory_ports);
    j.member("mul_latency", p.point.mul_latency);
    j.member("iter_budget", p.point.iter_budget);
    j.member("feasible", p.feasible);
    j.member("area", p.area);
    j.member("latency", p.latency);
    j.member("wall_ms", p.wall_ms);
    if (!p.feasible) j.member("infeasible_reason", p.infeasible_reason);
    j.key("stats");
    write_schedule_stats(j, p.stats);
    j.end_object();
  }
  j.end_array();

  // Per-backend Pareto frontiers side by side; "frontier" stays the first
  // backend's for pre-registry consumers of the report.
  j.key("frontiers");
  j.begin_object();
  for (std::size_t b = 0; b < result.frontiers.size(); ++b) {
    j.key(result.backends[b]);
    j.begin_array();
    for (const int i : result.frontiers[b]) {
      const point_result& p = result.points[static_cast<std::size_t>(i)];
      j.begin_object();
      j.member("index", p.point.index);
      j.member("resources", p.point.resources.label());
      j.member("mul_latency", p.point.mul_latency);
      j.member("area", p.area);
      j.member("latency", p.latency);
      j.end_object();
    }
    j.end_array();
  }
  j.end_object();
  j.key("frontier");
  j.begin_array();
  for (const int i : result.frontier) {
    const point_result& p = result.points[static_cast<std::size_t>(i)];
    j.begin_object();
    j.member("index", p.point.index);
    j.member("resources", p.point.resources.label());
    j.member("mul_latency", p.point.mul_latency);
    j.member("area", p.area);
    j.member("latency", p.latency);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

} // namespace softsched::explore
