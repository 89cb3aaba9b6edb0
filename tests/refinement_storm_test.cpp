// refinement_storm_test.cpp - failure-injection / stress property test:
// fire long random sequences of refinements (spills, wire delays,
// register moves, ECO op additions) at live threaded schedules and check
// every invariant after every single step. This is the soft-scheduling
// robustness claim under sustained engineering change.
#include <gtest/gtest.h>

#include "core/hls_binding.h"
#include "core/threaded_graph.h"
#include "graph/distances.h"
#include "hard/extract.h"
#include "hard/schedule.h"
#include "ir/benchmarks.h"
#include "meta/meta_schedule.h"
#include "refine/refinement.h"
#include "util/rng.h"

namespace sg = softsched::graph;
namespace sc = softsched::core;
namespace si = softsched::ir;
namespace sh = softsched::hard;
namespace sm = softsched::meta;
namespace sf = softsched::refine;
using sg::vertex_id;
using softsched::rng;

namespace {

// gtest prints a case's parameter as its raw bytes, and ctest names the
// case by that text. So the benchmark name is held inline, not as a
// pointer whose value moves with the binary's string layout, and no field
// leaves padding.
struct storm_case {
  char benchmark[8];
  std::uint64_t seed;
  std::int64_t steps;
};

si::dfg make_benchmark(const si::resource_library& lib, const std::string& name) {
  if (name == "hal") return si::make_hal(lib);
  if (name == "arf") return si::make_arf(lib);
  if (name == "ewf") return si::make_ewf(lib);
  return si::make_fir8(lib);
}

/// Picks a random existing dependence edge between two non-wire ops.
std::pair<vertex_id, vertex_id> random_edge(const si::dfg& d, rng& rand) {
  std::vector<std::pair<vertex_id, vertex_id>> edges;
  for (const vertex_id v : d.graph().vertices()) {
    if (d.kind(v) == si::op_kind::wire) continue;
    for (const vertex_id s : d.graph().succs(v)) {
      if (d.kind(s) == si::op_kind::wire) continue;
      edges.emplace_back(v, s);
    }
  }
  return edges[static_cast<std::size_t>(rand.below(edges.size()))];
}

} // namespace

class RefinementStorm : public ::testing::TestWithParam<storm_case> {};

TEST_P(RefinementStorm, InvariantsSurviveSustainedChange) {
  const storm_case param = GetParam();
  const si::resource_library lib;
  si::dfg d = make_benchmark(lib, param.benchmark);
  rng rand(param.seed);

  sc::threaded_graph state = sc::make_hls_state(d, si::figure3_constraint(0));
  state.schedule_all(sm::meta_schedule(d.graph(), sm::meta_kind::list_priority));
  long long previous_diameter = state.diameter();

  for (int step = 0; step < param.steps; ++step) {
    const int action = static_cast<int>(rand.below(4));
    switch (action) {
    case 0: { // spill a random spillable value
      std::vector<vertex_id> candidates;
      for (const vertex_id v : d.graph().vertices()) {
        if (d.kind(v) == si::op_kind::store || d.kind(v) == si::op_kind::wire) continue;
        if (d.graph().succs(v).empty()) continue;
        candidates.push_back(v);
      }
      if (candidates.empty()) break;
      const vertex_id victim =
          candidates[static_cast<std::size_t>(rand.below(candidates.size()))];
      sf::apply_spill(d, state, victim);
      break;
    }
    case 1: { // wire delay on a random edge
      const auto [from, to] = random_edge(d, rand);
      sf::apply_wire_delay(d, state, from, to, 1 + static_cast<int>(rand.below(3)));
      break;
    }
    case 2: { // register move on a random edge
      const auto [from, to] = random_edge(d, rand);
      sf::apply_register_move(d, state, from, to);
      break;
    }
    default: { // ECO: new op consuming two random existing values
      const vertex_id a(static_cast<std::uint32_t>(rand.below(d.graph().vertex_count())));
      const vertex_id b(static_cast<std::uint32_t>(rand.below(d.graph().vertex_count())));
      std::vector<vertex_id> ins{a};
      if (b != a) ins.push_back(b);
      const vertex_id eco = d.add_op(si::op_kind::add,
                                     std::span<const vertex_id>(ins),
                                     std::string("eco") += std::to_string(step));
      state.schedule(eco);
      break;
    }
    }
    ASSERT_NO_THROW(state.check_invariants()) << param.benchmark << " step " << step;
    // Lemma 4 holds across refinements too: the diameter never shrinks.
    const long long now = state.diameter();
    ASSERT_GE(now, previous_diameter) << param.benchmark << " step " << step;
    previous_diameter = now;
    // Everything in the mutated DFG is scheduled - no op left behind.
    ASSERT_EQ(state.scheduled_count(), d.graph().vertex_count());
  }

  // The final state extracts into a valid hard schedule.
  sh::schedule s = sh::extract_schedule(state);
  const auto violations = sh::validate_schedule(d, s, nullptr);
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_GE(s.makespan, sg::compute_distances(d.graph()).diameter);
}

INSTANTIATE_TEST_SUITE_P(
    Storms, RefinementStorm,
    ::testing::Values(storm_case{"hal", 101, 40}, storm_case{"arf", 102, 40},
                      storm_case{"ewf", 103, 40}, storm_case{"fir", 104, 40},
                      storm_case{"ewf", 105, 80}, storm_case{"arf", 106, 80}),
    [](const ::testing::TestParamInfo<storm_case>& info) {
      return std::string(info.param.benchmark) + "_seed" +
             std::to_string(info.param.seed);
    });
