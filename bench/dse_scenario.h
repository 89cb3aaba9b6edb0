// dse_scenario.h - the shared "dse" benchmark scenario: two fixed 24-point
// grids (the EWF paper benchmark and a layered random DFG from the shared
// generator family), each explored twice - single-threaded and with the
// full worker pool - recording points/sec for both, the speedup, and
// whether the two runs produced bit-identical outcomes.
//
// Emitted by bench/perf_harness.cpp as the "dse" block of
// BENCH_softsched.json (`perf_harness --only dse` runs it alone). The grids
// deliberately do not scale with --quick: the scenario is sub-second, and
// keeping it fixed makes the CI regression gate compare like against like.
// The block's own checks (checks.h): 1-job and N-job outcomes agree, and
// the N-job throughput is positive.
#pragma once

#include <cstdint>

#include "checks.h"
#include "explore/dse.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace softsched::bench {

struct dse_grid_outcome {
  explore::exploration_result single;
  explore::exploration_result multi;
  bool deterministic = false;
};

inline dse_grid_outcome run_dse_grid(const explore::grid_spec& spec, unsigned jobs) {
  dse_grid_outcome out;
  explore::exploration_options opt;
  opt.jobs = 1;
  out.single = explore::run_exploration(spec, opt);
  opt.jobs = static_cast<int>(jobs);
  out.multi = explore::run_exploration(spec, opt);
  out.deterministic = out.single.same_outcome(out.multi);
  return out;
}

/// Emits the whole scenario as the value of an already-written "dse" key.
inline checks write_dse_scenario(json_writer& j, std::uint64_t seed) {
  const unsigned jobs = thread_pool::hardware_workers();

  explore::grid_spec ewf;
  ewf.design.bench = "ewf";
  ewf.alus = {1, 4};
  ewf.muls = {1, 3};
  ewf.mems = {1, 1};
  ewf.mul_latency = {1, 2};

  explore::grid_spec random;
  random.design.random_vertices = 600;
  random.design.random_edge_prob = 0.25;
  random.design.seed = seed;
  random.alus = {1, 4};
  random.muls = {1, 3};
  random.mems = {1, 2};
  random.mul_latency = {2, 2};

  bool deterministic = true;
  double single_ms = 0, multi_ms = 0;
  std::size_t total_points = 0;

  j.begin_object();
  j.member("threads", static_cast<unsigned long long>(jobs));
  j.key("grids");
  j.begin_array();
  for (const explore::grid_spec& spec : {ewf, random}) {
    const dse_grid_outcome got = run_dse_grid(spec, jobs);
    deterministic = deterministic && got.deterministic;
    single_ms += got.single.wall_ms;
    multi_ms += got.multi.wall_ms;
    total_points += got.single.points.size();

    j.begin_object();
    j.member("design", spec.design.name());
    j.member("points", got.single.points.size());
    j.member("feasible", got.single.feasible_count());
    j.member("frontier_size", got.single.frontier.size());
    j.member("single_ms", got.single.wall_ms);
    j.member("multi_ms", got.multi.wall_ms);
    j.member("points_per_sec_single", got.single.points_per_sec());
    j.member("points_per_sec_multi", got.multi.points_per_sec());
    j.member("speedup",
             got.multi.wall_ms > 0 ? got.single.wall_ms / got.multi.wall_ms : 0.0);
    j.member("deterministic", got.deterministic);
    j.end_object();
  }
  j.end_array();
  const double points_per_sec_multi =
      multi_ms > 0 ? static_cast<double>(total_points) / (multi_ms / 1e3) : 0.0;
  j.member("total_points", total_points);
  j.member("points_per_sec_single",
           single_ms > 0 ? static_cast<double>(total_points) / (single_ms / 1e3) : 0.0);
  j.member("points_per_sec_multi", points_per_sec_multi);
  j.member("speedup", multi_ms > 0 ? single_ms / multi_ms : 0.0);
  return end_block(j, {{"deterministic", deterministic},
                       {"throughput_positive", points_per_sec_multi > 0}});
}

} // namespace softsched::bench
