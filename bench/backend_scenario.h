// backend_scenario.h - the shared "backend" benchmark scenario: the named
// paper benchmarks (HAL, AR, EWF, FIR8) scheduled by every registered
// scheduler backend under the Figure-3 "2+/-,2*" constraint, recording per
// backend the scheduling throughput (designs = points per second), the
// per-design latency and its delta against the soft scheduler, and whether
// two full passes produce bit-identical outcomes.
//
// Emitted by bench/perf_harness.cpp as the "backend" block of
// BENCH_softsched.json (`perf_harness --only backend` runs it alone). The
// suite is fixed - it does not scale with --quick - because the CI bench
// gate compares the soft throughput against the committed baseline and
// must compare like against like. The block's checks (checks.h), per
// backend: deterministic across passes, every feasible schedule legal, and
// a positive throughput.
//
// Why this scenario exists: the paper's claim is comparative (soft
// scheduling tracks the fixed-priority baselines while staying refinable),
// so the benchmark trajectory must keep the head-to-head numbers - not
// just the soft scheduler's - from PR to PR.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "hard/schedule.h"
#include "ir/benchmarks.h"
#include "sched/backend.h"
#include "util/json.h"

namespace softsched::bench {

struct backend_design_outcome {
  std::string design;
  sched::backend_outcome outcome;
  long long vs_soft = 0; ///< latency - soft latency on the same design
  bool legal = false;    ///< hard::validate_schedule found no violation
};

struct backend_suite_outcome {
  std::string name;
  std::vector<backend_design_outcome> designs;
  double best_ms = 0;  ///< fastest single suite pass in the timed window
  double total_ms = 0; ///< whole timed window (timed_passes suite passes)
  int timed_passes = 0;
  bool deterministic = false;
  bool all_legal = false;

  /// Designs scheduled per second over the whole timed window. The window
  /// is sized to tens of milliseconds (see write_backend_scenario), so the
  /// CI-gated soft throughput is not a single sub-0.1 ms timing that one
  /// context switch on a shared runner could halve.
  [[nodiscard]] double points_per_sec() const {
    return total_ms > 0 ? static_cast<double>(designs.size()) * timed_passes /
                              (total_ms / 1e3)
                        : 0.0;
  }
};

/// One timed pass of `backend` over the suite (outcomes written in suite
/// order; timing covers scheduling only, not validation). `ctx` persists
/// across passes - exactly the serve worker's steady state, which is what
/// the gated throughput must measure.
inline std::vector<sched::backend_outcome>
run_backend_pass(const sched::scheduler_backend& backend, const std::vector<ir::dfg>& suite,
                 const ir::resource_library& library, const ir::resource_set& constraint,
                 sched::run_context& ctx, double& wall_ms) {
  std::vector<sched::backend_outcome> outcomes;
  outcomes.reserve(suite.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const ir::dfg& d : suite)
    outcomes.push_back(backend.run({d, library, constraint, {}}, ctx));
  wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                      t0)
                .count();
  return outcomes;
}

/// Emits the whole scenario as the value of an already-written "backend"
/// key.
inline checks write_backend_scenario(json_writer& j) {
  const ir::resource_library library;
  const ir::resource_set constraint = ir::figure3_constraint(0); // 2+/-,2*
  std::vector<ir::dfg> suite;
  std::vector<std::string> names;
  for (const char* name : {"hal", "arf", "ewf", "fir8"}) {
    suite.push_back(ir::make_benchmark(name, library));
    names.emplace_back(name);
  }

  std::vector<backend_suite_outcome> results;
  std::vector<long long> soft_latency(suite.size(), -1);
  checks c;
  for (const sched::scheduler_backend* backend : sched::registered_backends()) {
    backend_suite_outcome r;
    r.name = backend->name();
    // One persistent context per backend, reused across every pass: the
    // first pass warms the arena, the timed window then runs heap-silent -
    // the serve worker's steady state.
    sched::run_context ctx;
    // Two correctness passes (the second is the determinism witness), then
    // a timed window of enough further passes to accumulate ~100 ms for
    // the fast backends - a sub-0.1 ms single-pass timing would make the
    // gated throughput hostage to one scheduler hiccup on a CI runner.
    // fds is slow enough that one pass already exceeds the window.
    double ms_a = 0, ms_b = 0;
    const std::vector<sched::backend_outcome> pass_a =
        run_backend_pass(*backend, suite, library, constraint, ctx, ms_a);
    const std::vector<sched::backend_outcome> pass_b =
        run_backend_pass(*backend, suite, library, constraint, ctx, ms_b);
    constexpr double window_ms = 100.0;
    constexpr int max_passes = 4096;
    r.best_ms = ms_a < ms_b ? ms_a : ms_b;
    while (r.total_ms < window_ms && r.timed_passes < max_passes) {
      double ms = 0;
      (void)run_backend_pass(*backend, suite, library, constraint, ctx, ms);
      r.total_ms += ms;
      if (ms < r.best_ms) r.best_ms = ms;
      ++r.timed_passes;
    }
    r.deterministic = true;
    r.all_legal = true;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      r.deterministic = r.deterministic && pass_a[i].same_outcome(pass_b[i]);
      backend_design_outcome d;
      d.design = names[i];
      d.outcome = pass_a[i];
      if (backend->name() == "soft" && d.outcome.feasible)
        soft_latency[i] = d.outcome.latency;
      d.vs_soft = d.outcome.feasible && soft_latency[i] >= 0
                      ? d.outcome.latency - soft_latency[i]
                      : 0;
      if (d.outcome.feasible) {
        d.legal =
            hard::validate_schedule(suite[i], sched::to_hard_schedule(d.outcome),
                                    &constraint)
                .empty();
        r.all_legal = r.all_legal && d.legal;
      }
      r.designs.push_back(std::move(d));
    }
    c.emplace_back(r.name + "_deterministic", r.deterministic);
    c.emplace_back(r.name + "_legal", r.all_legal);
    c.emplace_back(r.name + "_throughput_positive", r.points_per_sec() > 0);
    results.push_back(std::move(r));
  }

  j.begin_object();
  j.member("constraint", constraint.label());
  j.key("designs");
  j.begin_array();
  for (const std::string& name : names) j.value(name);
  j.end_array();
  j.key("per_backend");
  j.begin_object();
  for (const backend_suite_outcome& r : results) {
    j.key(r.name);
    j.begin_object();
    j.member("best_ms", r.best_ms);
    j.member("timed_passes", r.timed_passes);
    j.member("total_ms", r.total_ms);
    j.member("points_per_sec", r.points_per_sec());
    j.key("latency");
    j.begin_object();
    for (const backend_design_outcome& d : r.designs) {
      j.key(d.design);
      j.begin_object();
      j.member("feasible", d.outcome.feasible);
      j.member("states", d.outcome.latency);
      j.member("vs_soft", d.vs_soft);
      j.end_object();
    }
    j.end_object();
    j.end_object();
  }
  j.end_object();
  return end_block(j, std::move(c));
}

} // namespace softsched::bench
