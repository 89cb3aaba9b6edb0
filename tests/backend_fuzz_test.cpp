// backend_fuzz_test.cpp - the differential cross-backend fuzz oracle.
//
// Four backends share one run(run_request, run_context&) contract and one
// legality checker; none of them should be trusted per-heuristic. This
// suite drives seeded graph::layered_for_size DFG families (the same
// generator behind `random<N>` designs in explore/serve) across an
// allocation grid and every registered backend, and checks the properties
// that hold by construction rather than by tuning:
//
//   * every feasible schedule passes hard::validate_schedule (precedence +
//     class-wise concurrency), start/unit arrays are fully populated, and
//     the latency is bracketed by the critical path and an upper bound (the
//     serial bound, or the requested budget for time-constrained fds);
//   * infeasible outcomes carry a reason and never throw;
//   * repeat runs are bit-for-bit identical per backend (same_outcome),
//     including across a reused context;
//   * cross-backend: soft never strays past 2x the hard list scheduler (a
//     serializing regression trips this on any wide design), and sdc-iter -
//     whose base run IS the soft kernel - never exceeds soft's latency.
//
// The paper's one-state Figure 3 envelope (soft <= list + 1) is pinned on
// the named benchmarks in sched_test; it is NOT a property of arbitrary
// layered families - a 1000-design sweep shows gaps up to 16 states
// (ratio <= 1.31x), so the fuzz oracle pins the 2x sanity envelope instead.
//
// Every failure message leads with the reproducing (seed, vertices,
// edge_prob, allocation) tuple. SOFTSCHED_FUZZ_DESIGNS scales the sweep:
// the tier-1 default keeps ctest fast; the nightly storm leg runs 1000
// designs under ASan/UBSan.
#include <gtest/gtest.h>

#include <string>

#include "fuzz_families.h"
#include "graph/distances.h"
#include "hard/schedule.h"
#include "ir/dfg.h"
#include "ir/resource.h"
#include "sched/backend.h"
#include "util/check.h"

namespace ss = softsched::sched;
namespace sh = softsched::hard;
namespace si = softsched::ir;
namespace sg = softsched::graph;

namespace {

using fuzz_families::build_case;
using fuzz_families::fuzz_case;
using fuzz_families::fuzz_cases;

std::string repro(const fuzz_case& c, const si::resource_set& rs) {
  return "repro: seed=" + std::to_string(c.seed) +
         " vertices=" + std::to_string(c.vertices) +
         " edge_prob=" + std::to_string(c.edge_prob) + " resources " +
         rs.label();
}

long long serial_bound(const si::dfg& d) {
  long long total = 0;
  for (const sg::vertex_id v : d.graph().vertices()) total += d.graph().delay(v);
  return total;
}

/// The allocation grid each design fans out over: starved, tight and
/// comfortable points, plus a zero-unit column that must come back as an
/// infeasible outcome, never a throw.
const si::resource_set allocation_grid[] = {
    {0, 1, 1}, {1, 0, 1}, {1, 1, 1}, {2, 1, 1},
    {1, 2, 1}, {2, 2, 1}, {3, 2, 2}, {4, 3, 2},
};

} // namespace

TEST(BackendFuzz, EveryBackendLegalDeterministicAndCrossChecked) {
  const si::resource_library lib;
  // One reused context per backend: the fuzz sweep doubles as a long
  // arena-reuse soak, and a reused context must never change an outcome
  // (the fresh-context rerun below witnesses it per case).
  std::vector<std::unique_ptr<ss::run_context>> contexts;
  const auto backends = ss::registered_backends();
  for (std::size_t b = 0; b < backends.size(); ++b)
    contexts.push_back(std::make_unique<ss::run_context>());

  for (const fuzz_case& c : fuzz_cases()) {
    const si::dfg d = build_case(c, lib);
    const long long critical = sg::compute_distances(d.graph()).diameter;
    const long long serial = serial_bound(d);
    // fds' default mode scans a 64-budget window, each pass O(V * L); on a
    // 160-vertex design that is ~40s per run. An explicit budget just above
    // the critical path keeps the storm leg tractable and pins the
    // time-constrained contract directly: fds must fit the budget or report
    // an infeasible outcome.
    const long long fds_budget = critical + 8;
    for (const si::resource_set& rs : allocation_grid) {
      const std::string tuple = repro(c, rs);
      long long soft_latency = -1;
      long long list_latency = -1;
      long long iter_latency = -1;
      for (std::size_t b = 0; b < backends.size(); ++b) {
        const ss::scheduler_backend& backend = *backends[b];
        const bool is_fds = backend.name() == "fds";
        ss::backend_options opt;
        if (is_fds) opt.fds_latency = fds_budget;
        ss::backend_outcome r;
        ASSERT_NO_THROW(r = backend.run({d, lib, rs, opt}, *contexts[b]))
            << tuple << " backend " << backend.name();

        // Bit-for-bit repeat determinism, reused and fresh contexts alike.
        const ss::backend_outcome again = backend.run({d, lib, rs, opt}, *contexts[b]);
        EXPECT_TRUE(r.same_outcome(again))
            << tuple << " backend " << backend.name() << " (reused context)";
        ss::run_context fresh;
        const ss::backend_outcome cold = backend.run({d, lib, rs, opt}, fresh);
        EXPECT_TRUE(r.same_outcome(cold))
            << tuple << " backend " << backend.name() << " (fresh context)";

        if (!r.feasible) {
          EXPECT_FALSE(r.infeasible_reason.empty())
              << tuple << " backend " << backend.name();
          continue;
        }
        ASSERT_EQ(r.start_times.size(), d.op_count())
            << tuple << " backend " << backend.name();
        ASSERT_EQ(r.unit_of.size(), d.op_count())
            << tuple << " backend " << backend.name();
        EXPECT_GE(r.latency, critical) << tuple << " backend " << backend.name();
        // Time-constrained fds answers to its budget, not the serial bound
        // (which it may legally exceed on short-critical-path designs).
        EXPECT_LE(r.latency, is_fds ? fds_budget : serial)
            << tuple << " backend " << backend.name();
        // The shared oracle: one legality checker for every backend.
        const auto violations =
            sh::validate_schedule(d, ss::to_hard_schedule(r), &rs);
        EXPECT_TRUE(violations.empty())
            << tuple << " backend " << backend.name() << ": "
            << (violations.empty() ? "" : violations.front());

        if (backend.name() == "soft") soft_latency = r.latency;
        if (backend.name() == "list") list_latency = r.latency;
        if (backend.name() == "sdc-iter") iter_latency = r.latency;
      }
      // Cross-backend invariants. Feasibility agrees for the unit-binding
      // backends (all screen zero-unit classes identically), so a feasible
      // soft implies feasible list and sdc-iter on this grid.
      if (soft_latency >= 0) {
        ASSERT_GE(list_latency, 0) << tuple;
        ASSERT_GE(iter_latency, 0) << tuple;
        // The sanity envelope on arbitrary layered designs: soft's greedy
        // serialization can trail the hard list scheduler (observed gaps up
        // to 16 states / 1.31x over a 1000-design sweep), but doubling it
        // means a serializing regression, not a heuristic gap. The paper's
        // one-state envelope is pinned on the named benchmarks in sched_test.
        EXPECT_LE(soft_latency, 2 * list_latency) << tuple;
        // sdc-iter's base run is the soft kernel and the loop keeps the
        // incumbent: iterated latency never exceeds its base backend's.
        EXPECT_LE(iter_latency, soft_latency) << tuple;
      }
    }
  }
}

TEST(BackendFuzz, ZeroUnitAllocationsAreOutcomesForEveryBackend) {
  // The all-starved corner on one design of each size: every backend must
  // report infeasibility with a reason instead of throwing or "fitting".
  const si::resource_library lib;
  for (const int vertices : {8, 45, 160}) {
    const fuzz_case c{0xdeadULL + static_cast<std::uint64_t>(vertices), vertices,
                      0.25};
    const si::dfg d = build_case(c, lib);
    const si::resource_set rs{0, 0, 0};
    for (const ss::scheduler_backend* backend : ss::registered_backends()) {
      ss::run_context ctx;
      ss::backend_outcome r;
      ASSERT_NO_THROW(r = backend->run({d, lib, rs, {}}, ctx))
          << repro(c, rs) << " backend " << backend->name();
      EXPECT_FALSE(r.feasible) << repro(c, rs) << " backend " << backend->name();
      EXPECT_FALSE(r.infeasible_reason.empty())
          << repro(c, rs) << " backend " << backend->name();
    }
  }
}
