// sched_test.cpp - the scheduler-backend registry (src/sched) and the
// backend threading through serve and explore:
//
//   * registry lookup, stable indices, capability flags;
//   * parity: every backend produces a legal schedule (precedence +
//     resource constraints via the shared hard::validate_schedule checker)
//     on the named benchmarks, bounded below by the critical path and
//     above by the serial sum of delays;
//   * the Figure-3 shape: soft tracks the list scheduler within one state
//     on the paper's first two resource constraints;
//   * determinism: repeat runs are bit-identical per backend;
//   * serve: the backend lands in the cache key (identical designs under
//     different backends never share an entry), mixed-backend request
//     streams stay deterministic across worker counts and cache sizes,
//     and unknown backends error field-level at parse time;
//   * explore: the backend axis emits per-backend Pareto frontiers,
//     identical for any worker count.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "explore/dse.h"
#include "graph/distances.h"
#include "hard/schedule.h"
#include "ir/benchmarks.h"
#include "ir/dfg_hash.h"
#include "sched/backend.h"
#include "batch_session.h"
#include "serve/daemon.h"
#include "util/check.h"

namespace ss = softsched::sched;
namespace se = softsched::explore;
namespace sh = softsched::hard;
namespace si = softsched::ir;
namespace sg = softsched::graph;
namespace sv = softsched::serve;
namespace sm = softsched::meta;
using softsched::infeasible_error;
using softsched::precondition_error;

namespace {

const char* const named_benchmarks[] = {"hal", "arf", "ewf", "fir8"};

long long serial_bound(const si::dfg& d) {
  long long total = 0;
  for (const sg::vertex_id v : d.graph().vertices()) total += d.graph().delay(v);
  return total;
}

/// One run on a fresh default (arena-backed) context - the plain spelling
/// most tests want; context reuse and arena/heap parity get their own
/// tests below.
ss::backend_outcome run_once(const ss::scheduler_backend& backend, const si::dfg& d,
                             const si::resource_library& lib,
                             const si::resource_set& rs,
                             const ss::backend_options& opt = {}) {
  ss::run_context ctx;
  return backend.run({d, lib, rs, opt}, ctx);
}

} // namespace

// -- registry ---------------------------------------------------------------

TEST(SchedRegistry, NamesLookupAndStableIndices) {
  EXPECT_EQ(ss::backend_names(),
            (std::vector<std::string>{"soft", "list", "fds", "sdc-iter"}));
  ASSERT_EQ(ss::registered_backends().size(), 4u);
  for (const char* name : {"soft", "list", "fds", "sdc-iter"}) {
    const ss::scheduler_backend* b = ss::find_backend(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(b->name(), name);
    EXPECT_EQ(&ss::get_backend(name), b);
  }
  // Registry indices feed the serve cache salt: pinned, append-only.
  EXPECT_EQ(ss::backend_index("soft"), 0);
  EXPECT_EQ(ss::backend_index("list"), 1);
  EXPECT_EQ(ss::backend_index("fds"), 2);
  EXPECT_EQ(ss::backend_index("sdc-iter"), 3);
  EXPECT_EQ(ss::backend_index("threaded"), -1);
  EXPECT_EQ(ss::find_backend("threaded"), nullptr);
}

TEST(SchedRegistry, UnknownNameThrowsListingBackends) {
  try {
    (void)ss::get_backend("simulated-annealing");
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("simulated-annealing"), std::string::npos);
    EXPECT_NE(what.find("soft|list|fds|sdc-iter"), std::string::npos);
  }
}

TEST(SchedRegistry, CapabilityFlags) {
  const ss::backend_caps soft = ss::get_backend("soft").caps();
  EXPECT_TRUE(soft.binds_units);
  EXPECT_TRUE(soft.uses_meta);
  EXPECT_TRUE(soft.refinable);

  const ss::backend_caps list = ss::get_backend("list").caps();
  EXPECT_TRUE(list.binds_units);
  EXPECT_FALSE(list.uses_meta);
  EXPECT_FALSE(list.refinable);

  const ss::backend_caps fds = ss::get_backend("fds").caps();
  EXPECT_FALSE(fds.binds_units);
  EXPECT_FALSE(fds.iterative);

  // sdc-iter is the first backend to set `iterative`; it consumes the meta
  // order (its base run is the soft kernel) and tightens latency targets.
  const ss::backend_caps iter = ss::get_backend("sdc-iter").caps();
  EXPECT_TRUE(iter.binds_units);
  EXPECT_TRUE(iter.uses_meta);
  EXPECT_TRUE(iter.iterative);
  EXPECT_FALSE(iter.refinable);
  for (const ss::scheduler_backend* b : ss::registered_backends())
    EXPECT_EQ(b->caps().iterative, b->name() == "sdc-iter") << b->name();
}

// -- parity: legality on the named benchmarks -------------------------------

TEST(SchedParity, EveryBackendLegalOnNamedBenchmarks) {
  const si::resource_library lib;
  for (const char* name : named_benchmarks) {
    const si::dfg d = si::make_benchmark(name, lib);
    const long long critical = sg::compute_distances(d.graph()).diameter;
    // Figure 3's first two constraint columns; the third (2+/-,1*) is where
    // the FDS heuristic's peak plateaus - covered separately below.
    for (const int constraint : {0, 1}) {
      const si::resource_set rs = si::figure3_constraint(constraint);
      for (const ss::scheduler_backend* backend : ss::registered_backends()) {
        const ss::backend_outcome r = run_once(*backend, d, lib, rs);
        ASSERT_TRUE(r.feasible) << name << " " << rs.label() << " "
                                << backend->name() << ": " << r.infeasible_reason;
        EXPECT_GE(r.latency, critical) << name << " " << backend->name();
        EXPECT_LE(r.latency, serial_bound(d)) << name << " " << backend->name();
        ASSERT_EQ(r.start_times.size(), d.op_count());
        ASSERT_EQ(r.unit_of.size(), d.op_count());
        // The shared checker: precedence feasibility + class-wise
        // concurrency limits, one implementation for every backend.
        const auto violations = sh::validate_schedule(d, ss::to_hard_schedule(r), &rs);
        EXPECT_TRUE(violations.empty())
            << name << " " << rs.label() << " " << backend->name() << ": "
            << (violations.empty() ? "" : violations.front());
        for (const int u : r.unit_of) {
          if (backend->caps().binds_units)
            EXPECT_GE(u, 0) << backend->name();
          else
            EXPECT_EQ(u, -1) << backend->name();
        }
      }
    }
  }
}

TEST(SchedParity, SoftTracksListWithinOneStateOnFigure3Constraints) {
  // The paper's Figure 3 claim: threaded soft scheduling with the
  // list-priority meta order tracks the hard list scheduler. Both are
  // bounded below by the critical path; soft never trails by more than one
  // state on the first two constraint columns.
  const si::resource_library lib;
  const ss::scheduler_backend& soft = ss::get_backend("soft");
  const ss::scheduler_backend& list = ss::get_backend("list");
  for (const char* name : named_benchmarks) {
    const si::dfg d = si::make_benchmark(name, lib);
    for (const int constraint : {0, 1}) {
      const si::resource_set rs = si::figure3_constraint(constraint);
      const ss::backend_outcome s = run_once(soft, d, lib, rs);
      const ss::backend_outcome l = run_once(list, d, lib, rs);
      ASSERT_TRUE(s.feasible && l.feasible) << name;
      EXPECT_LE(s.latency, l.latency + 1) << name << " " << rs.label();
    }
  }
}

TEST(SchedParity, ZeroUnitAllocationIsAnOutcomeNotAnException) {
  const si::resource_library lib;
  const si::dfg d = si::make_benchmark("ewf", lib);
  const si::resource_set no_muls{2, 0, 1};
  for (const ss::scheduler_backend* backend : ss::registered_backends()) {
    const ss::backend_outcome r = run_once(*backend, d, lib, no_muls);
    EXPECT_FALSE(r.feasible) << backend->name();
    EXPECT_FALSE(r.infeasible_reason.empty()) << backend->name();
    EXPECT_EQ(r.latency, -1) << backend->name();
  }
}

TEST(SchedParity, FdsReportsUnreachableAllocationInsteadOfIllegalSchedule) {
  // This FDS implementation's one-level forces plateau at peak 2 on EWF,
  // so 2+/-,1* is unreachable for any budget: the backend must say so
  // rather than return a schedule violating the allocation.
  const si::resource_library lib;
  const si::dfg d = si::make_benchmark("ewf", lib);
  const ss::backend_outcome r =
      run_once(ss::get_backend("fds"), d, lib, si::figure3_constraint(2));
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.infeasible_reason.find("peak usage exceeds"), std::string::npos);
}

TEST(SchedParity, FdsExplicitBudgetRunsOnceAndChecksTheAllocation) {
  const si::resource_library lib;
  const si::dfg d = si::make_benchmark("hal", lib);
  const si::resource_set rs = si::figure3_constraint(0);
  ss::backend_options opt;
  opt.fds_latency = 12; // comfortably above HAL's critical path of 6
  const ss::backend_outcome r = run_once(ss::get_backend("fds"), d, lib, rs, opt);
  ASSERT_TRUE(r.feasible) << r.infeasible_reason;
  EXPECT_EQ(r.latency, sh::validate_schedule(d, ss::to_hard_schedule(r), &rs).empty()
                           ? r.latency
                           : -1); // legal at the explicit budget
  EXPECT_LE(r.latency, 12);

  // A budget below the critical path is infeasible, not a throw.
  opt.fds_latency = 3;
  const ss::backend_outcome tight = run_once(ss::get_backend("fds"), d, lib, rs, opt);
  EXPECT_FALSE(tight.feasible);
  EXPECT_FALSE(tight.infeasible_reason.empty());
}

TEST(SchedParity, RepeatRunsAreBitIdenticalPerBackend) {
  const si::resource_library lib;
  const si::dfg d = si::make_benchmark("arf", lib);
  const si::resource_set rs = si::figure3_constraint(0);
  for (const ss::scheduler_backend* backend : ss::registered_backends()) {
    const ss::backend_outcome a = run_once(*backend, d, lib, rs);
    const ss::backend_outcome b = run_once(*backend, d, lib, rs);
    EXPECT_TRUE(a.same_outcome(b)) << backend->name();
  }
}

// -- the run_request/run_context API ----------------------------------------

TEST(SchedContext, OneContextReusedAcrossRunsMatchesFreshContexts) {
  // The per-worker reuse story: one context carried across designs,
  // allocations and backends (arena rewound between runs) must produce
  // exactly what a fresh context produces every time.
  const si::resource_library lib;
  ss::run_context shared;
  std::uint64_t expected_runs = 0;
  for (const char* name : named_benchmarks) {
    const si::dfg d = si::make_benchmark(name, lib);
    for (const int constraint : {0, 1}) {
      const si::resource_set rs = si::figure3_constraint(constraint);
      for (const ss::scheduler_backend* backend : ss::registered_backends()) {
        const ss::backend_outcome reused = backend->run({d, lib, rs, {}}, shared);
        const ss::backend_outcome fresh = run_once(*backend, d, lib, rs);
        EXPECT_TRUE(reused.same_outcome(fresh))
            << name << " " << rs.label() << " " << backend->name();
        ++expected_runs;
      }
    }
  }
  // At least one begin_run per backend run; iterative backends begin one
  // more per internal re-scheduling iteration, so >= rather than ==.
  EXPECT_GE(shared.runs(), expected_runs);
}

TEST(SchedContext, ArenaOffMatchesArenaOn) {
  // arena_mode::off is the cross-validated heap baseline: same outcome,
  // different memory source. All contexts are reused across runs so the
  // comparison also covers steady-state reuse, and a pathologically small
  // block size only changes how many blocks the arena chains.
  const si::resource_library lib;
  ss::run_context with_arena(ss::arena_mode::on);
  ss::run_context heap(ss::arena_mode::off);
  ss::run_context tiny_blocks(ss::arena_mode::on, 256);
  ASSERT_TRUE(with_arena.arena_enabled());
  ASSERT_FALSE(heap.arena_enabled());
  EXPECT_EQ(heap.arena(), nullptr);
  for (const char* name : named_benchmarks) {
    const si::dfg d = si::make_benchmark(name, lib);
    const si::resource_set rs = si::figure3_constraint(0);
    for (const ss::scheduler_backend* backend : ss::registered_backends()) {
      const ss::backend_outcome a = backend->run({d, lib, rs, {}}, with_arena);
      const ss::backend_outcome h = backend->run({d, lib, rs, {}}, heap);
      const ss::backend_outcome t = backend->run({d, lib, rs, {}}, tiny_blocks);
      EXPECT_TRUE(a.same_outcome(h)) << name << " " << backend->name();
      EXPECT_TRUE(t.same_outcome(h)) << name << " " << backend->name();
    }
  }
  // The arena really was in play: blocks were carved and recycled.
  const softsched::util::arena_stats* st = with_arena.arena_stats();
  ASSERT_NE(st, nullptr);
  EXPECT_GT(st->allocations, 0u);
  EXPECT_GT(st->resets, 0u);
  EXPECT_EQ(heap.arena_stats(), nullptr);
}

TEST(SchedContext, SoftAccumulatesKernelStatsIntoTheContext) {
  const si::resource_library lib;
  const si::dfg d = si::make_benchmark("ewf", lib);
  const si::resource_set rs = si::figure3_constraint(0);
  ss::run_context ctx;
  const ss::backend_outcome once = ss::get_backend("soft").run({d, lib, rs, {}}, ctx);
  ASSERT_TRUE(once.feasible);
  EXPECT_EQ(ctx.totals.commits, once.stats.commits);
  (void)ss::get_backend("soft").run({d, lib, rs, {}}, ctx);
  EXPECT_EQ(ctx.totals.commits, 2 * once.stats.commits);
}

// -- the cache-key salt -----------------------------------------------------

TEST(SchedSalt, MetaEntersOnlyForMetaConsumingBackends) {
  constexpr sm::meta_kind metas[] = {sm::meta_kind::depth_first,
                                     sm::meta_kind::topological,
                                     sm::meta_kind::path_based,
                                     sm::meta_kind::list_priority};
  std::set<std::uint64_t> distinct;
  for (const ss::scheduler_backend* backend : ss::registered_backends()) {
    std::set<std::uint64_t> per_backend;
    for (const sm::meta_kind meta : metas) {
      const std::uint64_t salt = ss::backend_option_salt(*backend, meta);
      EXPECT_NE(salt, 0u);
      per_backend.insert(salt);
      distinct.insert(salt);
    }
    // Soft consumes the meta order, so every meta is a distinct schedule
    // and a distinct key; list/fds ignore it, so all metas share one cache
    // entry instead of scheduling identical results four times.
    EXPECT_EQ(per_backend.size(), backend->caps().uses_meta ? 4u : 1u)
        << backend->name();
  }
  // 4 soft + 1 list + 1 fds + 4 sdc-iter, no collisions.
  EXPECT_EQ(distinct.size(), 10u);
  // The soft salts are the pre-registry meta salts (meta + 1): cache keys
  // for soft requests survived the refactor unchanged.
  EXPECT_EQ(ss::backend_option_salt(ss::get_backend("soft"),
                                    sm::meta_kind::depth_first),
            1u);
  EXPECT_EQ(ss::backend_option_salt(ss::get_backend("soft"),
                                    sm::meta_kind::list_priority),
            4u);
}

TEST(SchedSalt, LegacyKeyValuesSurviveTheBudgetWidening) {
  // The PR 5 key values are pinned bit-for-bit: a warm cache (RAM or disk)
  // built before the salt gained budget bits must keep hitting.
  EXPECT_EQ(ss::backend_option_salt(ss::get_backend("soft"),
                                    sm::meta_kind::depth_first),
            1u);
  EXPECT_EQ(ss::backend_option_salt(ss::get_backend("soft"),
                                    sm::meta_kind::topological),
            2u);
  EXPECT_EQ(ss::backend_option_salt(ss::get_backend("soft"),
                                    sm::meta_kind::path_based),
            3u);
  EXPECT_EQ(ss::backend_option_salt(ss::get_backend("soft"),
                                    sm::meta_kind::list_priority),
            4u);
  EXPECT_EQ(ss::backend_option_salt(ss::get_backend("list"),
                                    sm::meta_kind::list_priority),
            257u);
  EXPECT_EQ(ss::backend_option_salt(ss::get_backend("fds"),
                                    sm::meta_kind::list_priority),
            513u);
  // And the budget cannot leak into a non-iterative backend's salt.
  for (const char* name : {"soft", "list", "fds"}) {
    const ss::scheduler_backend& b = ss::get_backend(name);
    EXPECT_EQ(ss::backend_option_salt(b, sm::meta_kind::list_priority, 0),
              ss::backend_option_salt(b, sm::meta_kind::list_priority, 7))
        << name;
  }
}

TEST(SchedSalt, BudgetVariantsGetDistinctSaltsForIterativeBackends) {
  const ss::scheduler_backend& iter = ss::get_backend("sdc-iter");
  std::set<std::uint64_t> salts;
  for (const long long budget : {0LL, 1LL, 2LL, 8LL, 1024LL})
    salts.insert(ss::backend_option_salt(iter, sm::meta_kind::list_priority, budget));
  EXPECT_EQ(salts.size(), 5u); // every budget its own cache key
  // -1 resolves to the default budget before salting: the default and its
  // explicit spelling share one entry instead of scheduling twice.
  EXPECT_EQ(ss::backend_option_salt(iter, sm::meta_kind::list_priority, -1),
            ss::backend_option_salt(iter, sm::meta_kind::list_priority,
                                    ss::sdc_iter_default_budget));
  // Meta still enters underneath the budget bits.
  EXPECT_NE(ss::backend_option_salt(iter, sm::meta_kind::depth_first, 4),
            ss::backend_option_salt(iter, sm::meta_kind::list_priority, 4));
}

// -- sdc-iter: the feedback-guided iterative backend -------------------------

TEST(SchedIter, BudgetZeroEqualsSoftByteForByte) {
  // The base run is the shared soft kernel itself, so budget 0 is not
  // "close to" soft - it is soft, down to the kernel counters.
  const si::resource_library lib;
  const ss::scheduler_backend& soft = ss::get_backend("soft");
  const ss::scheduler_backend& iter = ss::get_backend("sdc-iter");
  ss::backend_options zero;
  zero.iter_budget = 0;
  for (const char* name : named_benchmarks) {
    const si::dfg d = si::make_benchmark(name, lib);
    for (const int constraint : {0, 1}) {
      const si::resource_set rs = si::figure3_constraint(constraint);
      for (const sm::meta_kind meta : sm::figure3_meta_kinds) {
        ss::backend_options soft_opt;
        soft_opt.meta = meta;
        ss::backend_options iter_opt = zero;
        iter_opt.meta = meta;
        const ss::backend_outcome a = run_once(soft, d, lib, rs, soft_opt);
        const ss::backend_outcome b = run_once(iter, d, lib, rs, iter_opt);
        EXPECT_TRUE(a.same_outcome(b))
            << name << " " << rs.label() << " meta " << static_cast<int>(meta);
      }
    }
  }
}

TEST(SchedIter, QoRIsMonotoneNonWorseningInTheBudget) {
  // The incumbent-best loop makes per-iteration QoR monotone: a larger
  // budget can only extend the search, never lose the incumbent. Budget 0
  // anchors the sweep at the soft latency.
  const si::resource_library lib;
  const ss::scheduler_backend& iter = ss::get_backend("sdc-iter");
  for (const char* name : named_benchmarks) {
    const si::dfg d = si::make_benchmark(name, lib);
    for (const int constraint : {0, 1}) {
      const si::resource_set rs = si::figure3_constraint(constraint);
      long long previous = -1;
      for (long long budget = 0; budget <= 8; ++budget) {
        ss::backend_options opt;
        opt.iter_budget = budget;
        const ss::backend_outcome r = run_once(iter, d, lib, rs, opt);
        ASSERT_TRUE(r.feasible) << name << " " << rs.label();
        EXPECT_LE(r.iterations, budget);
        if (previous >= 0) {
          EXPECT_LE(r.latency, previous)
              << name << " " << rs.label() << " budget " << budget;
        }
        previous = r.latency;
      }
    }
  }
}

TEST(SchedIter, ReachesAFixedPointWellWithinALargeBudget) {
  // The loop stops when a full variant cycle cannot improve the incumbent -
  // reported iterations must sit far under an absurd budget, and pushing
  // the budget further must not change the outcome (it is a fixed point,
  // not a timeout).
  const si::resource_library lib;
  const ss::scheduler_backend& iter = ss::get_backend("sdc-iter");
  for (const char* name : named_benchmarks) {
    const si::dfg d = si::make_benchmark(name, lib);
    for (const int constraint : {0, 1}) {
      const si::resource_set rs = si::figure3_constraint(constraint);
      ss::backend_options big;
      big.iter_budget = ss::sdc_iter_max_budget;
      const ss::backend_outcome at_max = run_once(iter, d, lib, rs, big);
      ASSERT_TRUE(at_max.feasible) << name;
      EXPECT_LT(at_max.iterations, 64) << name << " " << rs.label();
      ss::backend_options half;
      half.iter_budget = ss::sdc_iter_max_budget / 2;
      const ss::backend_outcome at_half = run_once(iter, d, lib, rs, half);
      EXPECT_TRUE(at_max.same_outcome(at_half)) << name << " " << rs.label();
    }
  }
}

TEST(SchedIter, InfeasibleProblemsFoldBackAsOutcomesNeverThrows) {
  // Zero-unit allocations and starved classes are outcomes, exactly like
  // every other backend - the internal sub-scheduling must never leak an
  // infeasible_error out of run().
  const si::resource_library lib;
  const ss::scheduler_backend& iter = ss::get_backend("sdc-iter");
  const si::dfg d = si::make_benchmark("ewf", lib);
  for (const int alus : {0, 1}) {
    for (const int muls : {0, 1}) {
      const si::resource_set rs{alus, muls, 1};
      ss::backend_outcome r;
      EXPECT_NO_THROW(r = run_once(iter, d, lib, rs)) << rs.label();
      if (alus == 0 || muls == 0) {
        EXPECT_FALSE(r.feasible) << rs.label();
        EXPECT_FALSE(r.infeasible_reason.empty());
        EXPECT_EQ(r.iterations, 0);
      } else {
        EXPECT_TRUE(r.feasible) << rs.label();
      }
    }
  }
}

TEST(SchedIter, StrictlyBeatsSoftOnThePinnedCase) {
  // The acceptance pin: HAL under 2 ALUs / 1 multiplier. Soft lands at 14
  // states, the default-budget feedback loop unpacks it to 13 (the list
  // scheduler's latency) - the first case where iteration pays.
  const si::resource_library lib;
  const si::dfg d = si::make_benchmark("hal", lib);
  const si::resource_set rs{2, 1, 1};
  const ss::backend_outcome soft = run_once(ss::get_backend("soft"), d, lib, rs);
  const ss::backend_outcome iter = run_once(ss::get_backend("sdc-iter"), d, lib, rs);
  ASSERT_TRUE(soft.feasible);
  ASSERT_TRUE(iter.feasible);
  EXPECT_EQ(soft.latency, 14);
  EXPECT_EQ(iter.latency, 13);
  EXPECT_GE(iter.iterations, 1);
  // And the improved schedule is still legal under the shared checker.
  const auto violations =
      sh::validate_schedule(d, ss::to_hard_schedule(iter), &rs);
  EXPECT_TRUE(violations.empty());
}

TEST(SchedIter, NeverWorseThanSoftAcrossTheNamedGrid) {
  // The acceptance sweep: every named benchmark x allocation grid point,
  // default budget - sdc-iter's latency is bounded by soft's everywhere
  // (the incumbent argument), checked exhaustively rather than trusted.
  const si::resource_library lib;
  const ss::scheduler_backend& soft = ss::get_backend("soft");
  const ss::scheduler_backend& iter = ss::get_backend("sdc-iter");
  for (const char* name : named_benchmarks) {
    const si::dfg d = si::make_benchmark(name, lib);
    for (int alus = 1; alus <= 3; ++alus) {
      for (int muls = 1; muls <= 3; ++muls) {
        const si::resource_set rs{alus, muls, 1};
        const ss::backend_outcome s = run_once(soft, d, lib, rs);
        const ss::backend_outcome it = run_once(iter, d, lib, rs);
        ASSERT_EQ(s.feasible, it.feasible) << name << " " << rs.label();
        if (!s.feasible) continue;
        EXPECT_LE(it.latency, s.latency) << name << " " << rs.label();
        const auto violations =
            sh::validate_schedule(d, ss::to_hard_schedule(it), &rs);
        EXPECT_TRUE(violations.empty()) << name << " " << rs.label();
      }
    }
  }
}

// -- serve ------------------------------------------------------------------

namespace {

namespace bs = batch_session;

/// One batch session of `lines` on a fresh default service, parsed.
std::vector<softsched::json_value> collect(const std::vector<std::string>& lines) {
  return bs::parsed(bs::run(sv::service_options{}, lines));
}

std::string key_of(const softsched::json_value& r) { return bs::text(r, "key"); }

} // namespace

TEST(SchedServe, IdenticalDesignsUnderDifferentBackendsGetDistinctKeys) {
  const auto rs = collect({
      R"({"bench":"ewf"})",
      R"({"bench":"ewf","backend":"soft"})",
      R"({"bench":"ewf","backend":"list"})",
      R"({"bench":"ewf","backend":"fds"})",
      R"({"bench":"ewf","backend":"list","meta":"dfs"})",
  });
  ASSERT_EQ(rs.size(), 5u);
  for (const softsched::json_value& r : rs)
    ASSERT_EQ(r.find("error"), nullptr) << bs::text(r, "error");
  // Default backend is soft: lines 1 and 2 share one key (and dedup).
  EXPECT_EQ(key_of(rs[0]), key_of(rs[1]));
  EXPECT_EQ(bs::text(rs[0], "backend"), "soft");
  // Distinct backends never share a cache entry.
  EXPECT_NE(key_of(rs[1]), key_of(rs[2]));
  EXPECT_NE(key_of(rs[1]), key_of(rs[3]));
  EXPECT_NE(key_of(rs[2]), key_of(rs[3]));
  // The meta order is ignored by hard backends, so it does not fragment
  // their cache entries: list+dfs coalesces onto list+default.
  EXPECT_EQ(key_of(rs[4]), key_of(rs[2]));
  // And the schedules really came from different schedulers: the list
  // backend binds units, fds does not, soft carries kernel stats.
  EXPECT_EQ(bs::text(rs[2], "backend"), "list");
  ASSERT_TRUE(rs[2].find("feasible")->as_bool());
  for (const long long u : bs::numbers(rs[2], "unit")) EXPECT_GE(u, 0);
  ASSERT_TRUE(rs[3].find("feasible")->as_bool());
  for (const long long u : bs::numbers(rs[3], "unit")) EXPECT_EQ(u, -1);
  EXPECT_GT(rs[0].find("stats")->find("commits")->as_number(), 0);
  EXPECT_EQ(rs[2].find("stats")->find("commits")->as_number(), 0);
}

TEST(SchedServe, BudgetSweepsAndMixedBatchesNeverCoalesceInTheCache) {
  // The widened-salt regression: a budget sweep against sdc-iter gets one
  // cache entry per budget, -1/default/explicit-8 share exactly one, and a
  // mixed-backend batch over one design keeps every backend distinct.
  const auto rs = collect({
      R"({"bench":"hal","backend":"sdc-iter","iter_budget":0})",
      R"({"bench":"hal","backend":"sdc-iter","iter_budget":1})",
      R"({"bench":"hal","backend":"sdc-iter","iter_budget":4})",
      R"({"bench":"hal","backend":"sdc-iter"})",
      R"({"bench":"hal","backend":"sdc-iter","iter_budget":8})",
      R"({"bench":"hal","backend":"soft"})",
      R"({"bench":"hal","backend":"list"})",
      R"({"bench":"hal","backend":"fds"})",
  });
  ASSERT_EQ(rs.size(), 8u);
  for (const softsched::json_value& r : rs)
    ASSERT_EQ(r.find("error"), nullptr) << bs::text(r, "error");
  // Budgets 0, 1, 4, default: four distinct keys.
  const std::set<std::string> budget_keys{key_of(rs[0]), key_of(rs[1]), key_of(rs[2]),
                                          key_of(rs[3])};
  EXPECT_EQ(budget_keys.size(), 4u);
  // Default (-1) and explicit 8 coalesce onto one entry.
  EXPECT_EQ(key_of(rs[3]), key_of(rs[4]));
  // Mixed backends on the same design never share an entry, including the
  // new one: 4 backends, 4 keys (sdc-iter keyed at its default budget).
  const std::set<std::string> backend_keys{key_of(rs[3]), key_of(rs[5]), key_of(rs[6]),
                                           key_of(rs[7])};
  EXPECT_EQ(backend_keys.size(), 4u);
  // Budget 0 really served the soft schedule, at its own key.
  EXPECT_EQ(rs[0].find("latency")->as_number(), rs[5].find("latency")->as_number());
  EXPECT_NE(key_of(rs[0]), key_of(rs[5]));
}

TEST(SchedServe, IterBudgetOnAOneShotBackendIsAFieldLevelParseError) {
  const auto rs = collect({
      R"({"bench":"ewf","backend":"list","iter_budget":4})",
      R"({"bench":"ewf","iter_budget":4})",
      R"({"bench":"ewf","backend":"sdc-iter","iter_budget":2000})",
      R"({"bench":"ewf","backend":"sdc-iter","iter_budget":-1})",
  });
  ASSERT_EQ(rs.size(), 4u);
  // A budget against a one-shot backend (explicit or defaulted soft) is a
  // request error, not a silently identical schedule.
  EXPECT_NE(bs::text(rs[0], "error").find("iter_budget"), std::string::npos);
  EXPECT_NE(bs::text(rs[0], "error").find("iterative"), std::string::npos);
  EXPECT_NE(bs::text(rs[1], "error").find("iter_budget"), std::string::npos);
  // Out-of-range budgets are range errors; -1 is not accepted on the wire
  // (omit the field for the default).
  EXPECT_NE(bs::text(rs[2], "error").find("iter_budget"), std::string::npos);
  EXPECT_NE(bs::text(rs[3], "error").find("iter_budget"), std::string::npos);
}

TEST(SchedServe, UnknownBackendIsAFieldLevelParseError) {
  const auto rs = collect({R"({"bench":"ewf","backend":"threaded"})"});
  ASSERT_EQ(rs.size(), 1u);
  const std::string error = bs::text(rs[0], "error");
  EXPECT_NE(error.find("backend"), std::string::npos);
  EXPECT_NE(error.find("threaded"), std::string::npos);
  EXPECT_NE(error.find("soft|list|fds|sdc-iter"), std::string::npos);
}

TEST(SchedServe, MixedBackendStreamDeterministicAcrossJobsAndCacheSizes) {
  // The acceptance property with the backend axis mixed in: responses are
  // payload-identical for any worker count and any cache budget, on a
  // stream that interleaves backends, repeats designs across backends, and
  // includes an error line.
  std::vector<std::string> lines;
  for (int i = 0; i < 3; ++i)
    for (const char* backend : {"soft", "list", "fds", "sdc-iter"})
      lines.push_back("{\"id\":\"q" + std::to_string(i) + std::string(backend) +
                      "\",\"bench\":\"hal\",\"backend\":\"" + backend +
                      "\",\"alus\":" + std::to_string(2 + i) + ",\"muls\":2}");
  lines.push_back(R"({"bench":"ewf","backend":"list"})");
  lines.push_back(R"({"bench":"ewf","backend":"nope"})");

  sv::service_options ref_opt;
  ref_opt.jobs = 1;
  sv::service reference(ref_opt);
  const std::vector<std::string> ref = bs::strip_ms(bs::run(reference, lines));
  ASSERT_EQ(ref.size(), 14u);

  for (const int jobs : {1, 4}) {
    for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{64} << 20}) {
      sv::service_options opt;
      opt.jobs = jobs;
      opt.cache_bytes = cache_bytes;
      EXPECT_EQ(bs::strip_ms(bs::run(opt, lines)), ref)
          << "jobs=" << jobs << " cache=" << cache_bytes;
    }
  }

  // A hot re-run serves from the cache and still emits identical payloads.
  EXPECT_EQ(bs::strip_ms(bs::run(reference, lines)), ref);
  EXPECT_GT(reference.stats().cache_hits, 0u);
}

// -- explore ----------------------------------------------------------------

namespace {

se::grid_spec small_ewf_grid() {
  se::grid_spec spec;
  spec.design.bench = "ewf";
  spec.alus = {2, 3};
  spec.muls = {1, 2};
  spec.mems = {1, 1};
  spec.mul_latency = {2, 2};
  return spec;
}

} // namespace

TEST(SchedExplore, BackendAxisEmitsPerBackendFrontiers) {
  const se::grid_spec spec = small_ewf_grid();
  se::exploration_options opt;
  opt.jobs = 2;
  opt.backends = {"soft", "list"};
  const se::exploration_result r = se::run_exploration(spec, opt);

  ASSERT_EQ(r.backends, (std::vector<std::string>{"soft", "list"}));
  const std::size_t grid = se::point_count(spec);
  ASSERT_EQ(r.points.size(), 2 * grid);
  ASSERT_EQ(r.frontiers.size(), 2u);
  EXPECT_EQ(r.frontier, r.frontiers[0]);
  EXPECT_FALSE(r.frontiers[0].empty());
  EXPECT_FALSE(r.frontiers[1].empty());
  // Backend-major blocks: grid order repeats per backend, frontier indices
  // stay inside their backend's block.
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    EXPECT_EQ(r.points[i].backend, i < grid ? "soft" : "list");
    EXPECT_EQ(r.points[i].point.index, static_cast<int>(i % grid));
  }
  for (const int i : r.frontiers[0]) EXPECT_LT(static_cast<std::size_t>(i), grid);
  for (const int i : r.frontiers[1]) {
    EXPECT_GE(static_cast<std::size_t>(i), grid);
    EXPECT_LT(static_cast<std::size_t>(i), 2 * grid);
  }
}

TEST(SchedExplore, BackendAxisDeterministicAcrossWorkerCounts) {
  const se::grid_spec spec = small_ewf_grid();
  se::exploration_options one;
  one.jobs = 1;
  one.backends = {"soft", "list", "fds"};
  se::exploration_options eight = one;
  eight.jobs = 8;
  const se::exploration_result a = se::run_exploration(spec, one);
  const se::exploration_result b = se::run_exploration(spec, eight);
  EXPECT_TRUE(a.same_outcome(b));
}

TEST(SchedExplore, DefaultOptionsStaySoftOnly) {
  const se::grid_spec spec = small_ewf_grid();
  const se::exploration_result r = se::run_exploration(spec, {.jobs = 2});
  EXPECT_EQ(r.backends, std::vector<std::string>{"soft"});
  ASSERT_EQ(r.frontiers.size(), 1u);
  EXPECT_EQ(r.frontier, r.frontiers[0]);
  for (const se::point_result& p : r.points) EXPECT_EQ(p.backend, "soft");
}

TEST(SchedExplore, UnknownBackendThrowsBeforeAnyPointRuns) {
  se::exploration_options opt;
  opt.backends = {"soft", "annealer"};
  EXPECT_THROW((void)se::run_exploration(small_ewf_grid(), opt), precondition_error);
}

TEST(SchedExplore, DuplicateBackendThrows) {
  // A repeated name would double the grid and emit a report whose
  // "frontiers" object carries the same key twice - invalid JSON by the
  // repo's own strict-parser contract.
  se::exploration_options opt;
  opt.backends = {"soft", "list", "soft"};
  EXPECT_THROW((void)se::run_exploration(small_ewf_grid(), opt), precondition_error);
}
