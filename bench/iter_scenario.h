// iter_scenario.h - the sdc-iter QoR-vs-runtime benchmark scenario: the
// named paper benchmarks (HAL, AR, EWF, FIR8) under a small constraint grid
// that includes both the Figure-3 point (2+/-,2*) and the adder-starved
// points where iteration actually pays (2+/-,1* is the pinned case where
// sdc-iter strictly beats soft). For every grid point the scenario runs
// soft and sdc-iter at the default budget, records the latency delta, the
// iterations the loop took to reach its fixed point, and the sdc-iter
// scheduling throughput over a ~100 ms timed window.
//
// Included by bench/perf_harness.cpp, which embeds the block as the "iter"
// key of BENCH_softsched.json. The grid is fixed - it does not scale with
// --quick - because qor_delta_vs_soft and points_per_sec are gated against
// the committed baseline and must compare like against like.
//
// The block's checks (checks.h) fail - and the harness exits nonzero - if
// any grid point ends worse than soft or is infeasible, if no point
// improves, if any run is nondeterministic or illegal, if any point fails
// to reach a fixed point inside the default budget, or if the timed window
// measured no throughput.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "checks.h"
#include "hard/schedule.h"
#include "ir/benchmarks.h"
#include "sched/backend.h"
#include "util/json.h"

namespace softsched::bench {

struct iter_point_outcome {
  std::string design;
  std::string constraint;
  long long soft_states = 0;
  long long iter_states = 0;
  long long delta = 0;      ///< iter_states - soft_states (gated <= 0)
  long long iterations = 0; ///< kernel re-runs the sdc-iter loop performed
  bool legal = false;
};

/// Emits the whole scenario as the value of an already-written "iter" key.
inline checks write_iter_scenario(json_writer& j) {
  const ir::resource_library library;
  const sched::scheduler_backend& soft = sched::get_backend("soft");
  const sched::scheduler_backend& iter = sched::get_backend("sdc-iter");

  std::vector<ir::dfg> suite;
  std::vector<std::string> names;
  for (const char* name : {"hal", "arf", "ewf", "fir8"}) {
    suite.push_back(ir::make_benchmark(name, library));
    names.emplace_back(name);
  }
  const ir::resource_set constraints[] = {
      ir::figure3_constraint(0), // 2+/-,2*: the paper's comparison point
      {2, 1, 1},                 // the pinned strict-improvement point (HAL)
      {3, 1, 1},                 // multiplier-starved, adders to spare
  };

  // One persistent context per backend, reused across every pass - the
  // serve worker's steady state, same discipline as backend_scenario.h.
  sched::run_context soft_ctx;
  sched::run_context iter_ctx;

  std::vector<iter_point_outcome> points;
  bool deterministic = true;
  bool all_legal = true;
  long long qor_delta = 0;
  long long improved = 0;
  long long max_iterations = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (const ir::resource_set& rs : constraints) {
      const sched::backend_outcome s = soft.run({suite[i], library, rs, {}}, soft_ctx);
      const sched::backend_outcome a = iter.run({suite[i], library, rs, {}}, iter_ctx);
      const sched::backend_outcome b = iter.run({suite[i], library, rs, {}}, iter_ctx);
      deterministic = deterministic && a.same_outcome(b);
      iter_point_outcome p;
      p.design = names[i];
      p.constraint = rs.label();
      if (!s.feasible || !a.feasible) continue; // every grid point fits; belt only
      p.soft_states = s.latency;
      p.iter_states = a.latency;
      p.delta = a.latency - s.latency;
      p.iterations = a.iterations;
      p.legal = hard::validate_schedule(suite[i], sched::to_hard_schedule(a), &rs).empty();
      all_legal = all_legal && p.legal;
      qor_delta += p.delta;
      if (p.delta < 0) ++improved;
      if (p.iterations > max_iterations) max_iterations = p.iterations;
      points.push_back(std::move(p));
    }
  }

  // Timed window: whole-grid sdc-iter passes until ~100 ms accumulate, so
  // the gated throughput is never one sub-0.1 ms timing a CI runner
  // scheduler hiccup could halve.
  constexpr double window_ms = 100.0;
  constexpr int max_passes = 4096;
  double total_ms = 0;
  int timed_passes = 0;
  while (total_ms < window_ms && timed_passes < max_passes) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const ir::dfg& d : suite)
      for (const ir::resource_set& rs : constraints)
        (void)iter.run({d, library, rs, {}}, iter_ctx);
    total_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ++timed_passes;
  }
  const double points_per_sec =
      total_ms > 0 ? static_cast<double>(points.size()) * timed_passes /
                         (total_ms / 1e3)
                   : 0.0;

  j.begin_object();
  j.member("budget", sched::sdc_iter_default_budget);
  j.key("grid");
  j.begin_array();
  for (const iter_point_outcome& p : points) {
    j.begin_object();
    j.member("design", p.design);
    j.member("constraint", p.constraint);
    j.member("soft_states", p.soft_states);
    j.member("iter_states", p.iter_states);
    j.member("delta", p.delta);
    j.member("iterations", p.iterations);
    j.member("legal", p.legal);
    j.end_object();
  }
  j.end_array();
  j.member("qor_delta_vs_soft", qor_delta);
  j.member("improved_points", improved);
  j.member("max_iterations", max_iterations);
  j.member("timed_passes", timed_passes);
  j.member("total_ms", total_ms);
  j.member("points_per_sec", points_per_sec);
  // Enforced at bench time so a regenerated baseline can never encode a
  // regression.
  return end_block(
      j, {{"deterministic", deterministic},
          {"all_legal", all_legal},
          {"all_points_feasible", points.size() == suite.size() * std::size(constraints)},
          {"never_worse_than_soft", qor_delta <= 0},
          {"improves_somewhere", improved >= 1},
          {"fixed_point", max_iterations <= sched::sdc_iter_default_budget},
          {"throughput_positive", points_per_sec > 0}});
}

} // namespace softsched::bench
