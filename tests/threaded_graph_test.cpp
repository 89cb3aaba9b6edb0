// threaded_graph_test.cpp - unit tests for the threaded scheduling state:
// construction, scheduling mechanics, Figure-1 behaviour, invariants, and
// online optimality against the naive Definition-5 selector.
#include <gtest/gtest.h>

#include "core/hls_binding.h"
#include "core/threaded_graph.h"
#include "graph/distances.h"
#include "graph/generators.h"
#include "graph/topo.h"
#include "ir/benchmarks.h"
#include "util/check.h"
#include "util/rng.h"

namespace sg = softsched::graph;
namespace sc = softsched::core;
namespace si = softsched::ir;
using softsched::rng;
using sg::vertex_id;

TEST(ThreadedGraph, EmptyStateHasZeroDiameter) {
  sg::precedence_graph g;
  sc::threaded_graph state(g, 3);
  EXPECT_EQ(state.thread_count(), 3);
  EXPECT_EQ(state.scheduled_count(), 0u);
  EXPECT_EQ(state.diameter(), 0);
  EXPECT_NO_THROW(state.check_invariants());
}

TEST(ThreadedGraph, RequiresAtLeastOneThread) {
  sg::precedence_graph g;
  EXPECT_THROW(sc::threaded_graph(g, 0), softsched::precondition_error);
}

TEST(ThreadedGraph, SingleVertexScheduling) {
  sg::precedence_graph g;
  const vertex_id v = g.add_vertex(3, "only");
  sc::threaded_graph state(g, 2);
  state.schedule(v);
  EXPECT_TRUE(state.scheduled(v));
  EXPECT_EQ(state.scheduled_count(), 1u);
  EXPECT_EQ(state.diameter(), 3);
  EXPECT_NO_THROW(state.check_invariants());
}

TEST(ThreadedGraph, ReschedulingIsIdempotent) {
  // Definition 3: v already in V_S leaves the state untouched.
  sg::precedence_graph g;
  const vertex_id a = g.add_vertex(1);
  const vertex_id b = g.add_vertex(1);
  g.add_edge(a, b);
  sc::threaded_graph state(g, 1);
  state.schedule(a);
  state.schedule(b);
  const auto edges_before = state.state_edges();
  state.schedule(a);
  EXPECT_EQ(state.state_edges(), edges_before);
  EXPECT_EQ(state.scheduled_count(), 2u);
}

TEST(ThreadedGraph, SelectOnScheduledVertexThrows) {
  sg::precedence_graph g;
  const vertex_id a = g.add_vertex(1);
  sc::threaded_graph state(g, 1);
  state.schedule(a);
  EXPECT_THROW((void)state.select(a), softsched::precondition_error);
}

TEST(ThreadedGraph, ChainOnOneThreadSerializes) {
  rng unused(1);
  sg::precedence_graph g = sg::chain(5, 2);
  sc::threaded_graph state(g, 1);
  state.schedule_all(sg::topological_order(g));
  EXPECT_EQ(state.diameter(), 10);
  EXPECT_EQ(state.thread_sequence(0).size(), 5u);
  state.check_invariants();
}

TEST(ThreadedGraph, IndependentOpsSpreadAcrossThreads) {
  sg::precedence_graph g;
  for (int i = 0; i < 4; ++i) g.add_vertex(1);
  sc::threaded_graph state(g, 4);
  state.schedule_all(g.vertices());
  // Four independent unit ops on four threads: diameter stays 1.
  EXPECT_EQ(state.diameter(), 1);
  state.check_invariants();
}

TEST(ThreadedGraph, TwoThreadsSerializeWhenSaturated) {
  sg::precedence_graph g;
  for (int i = 0; i < 4; ++i) g.add_vertex(1);
  sc::threaded_graph state(g, 2);
  state.schedule_all(g.vertices());
  // Four independent unit ops on two units -> two per thread -> diameter 2.
  EXPECT_EQ(state.diameter(), 2);
  state.check_invariants();
}

TEST(ThreadedGraph, ArtificialEdgeSerializesSharedUnit) {
  // The paper's Section 3 example: vertices 2 and 5 share a unit, so the
  // state carries an artificial 2 -> 5 (or 5 -> 2) edge even though they
  // are incomparable in G.
  si::resource_library lib;
  const si::dfg d = si::make_figure1(lib);
  sc::threaded_graph state(d.graph(), 2);
  state.schedule_all(sg::topological_order(d.graph()));
  const vertex_id v2 = si::find_op(d, "2");
  const vertex_id v5 = si::find_op(d, "5");
  if (state.thread_of(v2) == state.thread_of(v5)) {
    EXPECT_TRUE(state.state_precedes(v2, v5) || state.state_precedes(v5, v2));
  }
  state.check_invariants();
}

TEST(ThreadedGraph, Figure1SoftScheduleReaches5States) {
  // Figure 1 (e): the 7-vertex example on two units schedules in 5 states.
  si::resource_library lib;
  const si::dfg d = si::make_figure1(lib);
  EXPECT_EQ(sg::compute_distances(d.graph()).diameter, 5);
  sc::threaded_graph state(d.graph(), 2);
  state.schedule_all(sg::topological_order(d.graph()));
  EXPECT_EQ(state.diameter(), 5);
  state.check_invariants();
}

TEST(ThreadedGraph, InfeasibleWhenNoCompatibleThread) {
  si::resource_library lib;
  const si::dfg d = si::make_hal(lib);
  // Zero multipliers but HAL has six multiplications.
  EXPECT_THROW((void)sc::make_hls_state(d, si::resource_set{2, 0, 1}),
               softsched::infeasible_error);
}

TEST(ThreadedGraph, HlsBindingRespectsResourceClasses) {
  si::resource_library lib;
  const si::dfg d = si::make_hal(lib);
  sc::threaded_graph state = sc::make_hls_state(d, si::resource_set{2, 2, 1});
  state.schedule_all(sg::topological_order(d.graph()));
  state.check_invariants();
  // Every multiplication must sit on a multiplier thread.
  for (const vertex_id v : d.graph().vertices()) {
    const int tag = state.thread_tag(state.thread_of(v));
    EXPECT_EQ(tag, static_cast<int>(d.unit_class(v)))
        << "op " << d.graph().name(v) << " bound to wrong unit class";
  }
}

TEST(ThreadedGraph, StateEdgesContainThreadChains) {
  sg::precedence_graph g = sg::chain(3, 1);
  sc::threaded_graph state(g, 1);
  state.schedule_all(sg::topological_order(g));
  const auto edges = state.state_edges();
  // Chain of 3 on one thread: exactly the two chain edges.
  EXPECT_EQ(edges.size(), 2u);
}

TEST(ThreadedGraph, AddThreadExtendsCapacity) {
  sg::precedence_graph g;
  for (int i = 0; i < 3; ++i) g.add_vertex(1);
  sc::threaded_graph state(g, 1);
  state.schedule(vertex_id(0));
  EXPECT_EQ(state.add_thread(0), 1);
  state.schedule(vertex_id(1));
  state.schedule(vertex_id(2));
  EXPECT_EQ(state.thread_count(), 2);
  // Three unit ops over two threads -> diameter 2.
  EXPECT_EQ(state.diameter(), 2);
  state.check_invariants();
}

TEST(ThreadedGraph, SourceAndSinkDistancesMatchDefinition) {
  sg::precedence_graph g = sg::chain(4, 3); // delays 3,3,3,3
  sc::threaded_graph state(g, 1);
  state.schedule_all(sg::topological_order(g));
  EXPECT_EQ(state.source_distance(vertex_id(0)), 3);
  EXPECT_EQ(state.source_distance(vertex_id(3)), 12);
  EXPECT_EQ(state.sink_distance(vertex_id(0)), 12);
  EXPECT_EQ(state.sink_distance(vertex_id(3)), 3);
}

TEST(ThreadedGraph, AsapStartTimesRespectState) {
  si::resource_library lib;
  const si::dfg d = si::make_figure1(lib);
  sc::threaded_graph state(d.graph(), 2);
  state.schedule_all(sg::topological_order(d.graph()));
  const std::vector<long long> start = state.asap_start_times();
  for (const auto& [from, to] : state.state_edges()) {
    EXPECT_GE(start[to.value()],
              start[from.value()] + d.graph().delay(from))
        << "state edge violated by start times";
  }
}

TEST(ThreadedGraph, RegressionLine59UsesInsertedVertexDelay) {
  // Algorithm 1 line 59 reads "curDelay = sdist + tdist + cur.delay" in the
  // paper; the Lemma-5 quantity is the *inserted* vertex's delay. This
  // construction separates the two formulas:
  //   G: p(10) -> v(1); z(2) unrelated. p on thread 0, z on thread 1.
  //   true cost: after-p = 11, front-of-t1 = 13, after-z = 11
  //   cur.delay cost: after-p = 20, front-of-t1 = 12, after-z = 12
  // A cur.delay implementation would pick front-of-t1 and land at
  // diameter 13; the correct formula reaches 11.
  sg::precedence_graph g;
  const vertex_id p = g.add_vertex(10, "p");
  const vertex_id v = g.add_vertex(1, "v");
  const vertex_id z = g.add_vertex(2, "z");
  g.add_edge(p, v);
  sc::threaded_graph state(g, 2);
  state.commit(state.position_front(0), p);
  state.commit(state.position_front(1), z);

  const sc::insert_position chosen = state.select(v);
  EXPECT_EQ(chosen.cost, 11);
  state.commit(chosen, v);
  EXPECT_EQ(state.diameter(), 11);
  state.check_invariants();
}

// ---------------------------------------------------------------------------
// Property tests over random DAGs: invariants after every step, and online
// optimality of the fast select against the naive Definition-5 selector.
// ---------------------------------------------------------------------------

// gtest names each case by the parameter's raw bytes, so the struct has no
// padding: `threads` fills the last 8 bytes itself.
struct random_case {
  std::uint64_t seed;
  int layers;
  int width;
  double edge_prob;
  std::int64_t threads;
};

class ThreadedGraphRandom : public ::testing::TestWithParam<random_case> {};

TEST_P(ThreadedGraphRandom, InvariantsHoldAfterEveryStep) {
  const random_case param = GetParam();
  rng rand(param.seed);
  sg::layered_params lp;
  lp.layers = param.layers;
  lp.width = param.width;
  lp.edge_prob = param.edge_prob;
  const sg::precedence_graph g = sg::layered_random(lp, rand);
  sc::threaded_graph state(g, static_cast<int>(param.threads));

  // Feed in a random (non-topological!) meta order: the online schedule
  // must stay correct regardless (Definition 3).
  std::vector<vertex_id> order = g.vertices();
  rand.shuffle(order);
  for (const vertex_id v : order) {
    state.schedule(v);
    ASSERT_NO_THROW(state.check_invariants()) << "after scheduling v" << v.value();
  }
  EXPECT_EQ(state.scheduled_count(), g.vertex_count());

  // Correctness condition: the final makespan is at least the critical path.
  EXPECT_GE(state.diameter(), sg::compute_distances(g).diameter);
}

TEST_P(ThreadedGraphRandom, FastSelectMatchesNaiveDiameter) {
  const random_case param = GetParam();
  rng rand(param.seed ^ 0xabcdef);
  sg::layered_params lp;
  lp.layers = param.layers;
  lp.width = param.width;
  lp.edge_prob = param.edge_prob;
  const sg::precedence_graph g = sg::layered_random(lp, rand);
  sc::threaded_graph state(g, static_cast<int>(param.threads));

  std::vector<vertex_id> order = g.vertices();
  rand.shuffle(order);
  for (const vertex_id v : order) {
    const sc::insert_position fast = state.select(v);
    const sc::insert_position naive = state.select_naive(v);
    // Theorem 2 / Corollary 1: committing the fast choice yields the same
    // (minimal) diameter as exhaustive speculation. The positions may
    // differ under cost ties, so compare resulting diameters.
    sc::threaded_graph fast_state(state);
    fast_state.commit(fast, v);
    EXPECT_EQ(fast_state.diameter(), naive.cost)
        << "fast select suboptimal for v" << v.value();
    // Lemma 4: diameters never shrink; Lemma 5/6: predicted cost is exact.
    EXPECT_EQ(fast_state.diameter(), std::max(state.diameter(), fast.cost));
    state.commit(fast, v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDags, ThreadedGraphRandom,
    ::testing::Values(random_case{11, 4, 3, 0.4, 2}, random_case{12, 6, 4, 0.3, 3},
                      random_case{13, 5, 5, 0.5, 2}, random_case{14, 8, 3, 0.25, 4},
                      random_case{15, 3, 8, 0.35, 3}, random_case{16, 10, 2, 0.5, 2},
                      random_case{17, 7, 4, 0.2, 5}, random_case{18, 5, 6, 0.45, 1}),
    [](const ::testing::TestParamInfo<random_case>& info) {
      return "seed" + std::to_string(info.param.seed);
    });
