// binding_test.cpp - the HLS thread binding layer: resource-class tags,
// dedicated wire threads, source-graph growth underneath a live state,
// and the transitive-closure cache refresh that makes growth safe.
#include <gtest/gtest.h>

#include "core/hls_binding.h"
#include "core/threaded_graph.h"
#include "graph/topo.h"
#include "ir/benchmarks.h"
#include "util/check.h"

namespace sg = softsched::graph;
namespace sc = softsched::core;
namespace si = softsched::ir;
using sg::vertex_id;

TEST(Binding, ThreadLayoutFollowsResourceSet) {
  const si::resource_library lib;
  const si::dfg d = si::make_hal(lib);
  sc::threaded_graph state = sc::make_hls_state(d, si::resource_set{3, 2, 1});
  ASSERT_EQ(state.thread_count(), 6);
  EXPECT_EQ(state.thread_tag(0), static_cast<int>(si::resource_class::alu));
  EXPECT_EQ(state.thread_tag(2), static_cast<int>(si::resource_class::alu));
  EXPECT_EQ(state.thread_tag(3), static_cast<int>(si::resource_class::multiplier));
  EXPECT_EQ(state.thread_tag(4), static_cast<int>(si::resource_class::multiplier));
  EXPECT_EQ(state.thread_tag(5), static_cast<int>(si::resource_class::memory_port));
}

TEST(Binding, VertexTagsFollowOpClasses) {
  const si::resource_library lib;
  si::dfg d("t", lib);
  const vertex_id a = d.add_op(si::op_kind::add, {});
  const vertex_id m = d.add_op(si::op_kind::mul, {});
  const vertex_id ld = d.add_op(si::op_kind::load, {});
  const vertex_id w = d.add_wire(2, {});
  EXPECT_EQ(sc::hls_vertex_tag(d, a), static_cast<int>(si::resource_class::alu));
  EXPECT_EQ(sc::hls_vertex_tag(d, m), static_cast<int>(si::resource_class::multiplier));
  EXPECT_EQ(sc::hls_vertex_tag(d, ld), static_cast<int>(si::resource_class::memory_port));
  // Wire tags are unique per vertex (dedicated units).
  EXPECT_EQ(sc::hls_vertex_tag(d, w), sc::wire_tag_base + static_cast<int>(w.value()));
}

TEST(Binding, WireVertexNeedsItsDedicatedThread) {
  const si::resource_library lib;
  si::dfg d("t", lib);
  const vertex_id a = d.add_op(si::op_kind::add, {}, "a");
  const vertex_id w = d.add_wire(2, {a}, "w");
  sc::threaded_graph state = sc::make_hls_state(d, si::resource_set{1, 1, 1});
  state.schedule(a);
  // No wire thread yet: scheduling the wire has no compatible thread.
  EXPECT_THROW(state.schedule(w), softsched::infeasible_error);
  const int wire_thread = sc::add_wire_thread(state, w);
  state.schedule(w);
  EXPECT_EQ(state.thread_of(w), wire_thread);
  state.check_invariants();
}

TEST(Binding, TwoWiresNeverShareAThread) {
  const si::resource_library lib;
  si::dfg d("t", lib);
  const vertex_id a = d.add_op(si::op_kind::add, {}, "a");
  const vertex_id w1 = d.add_wire(1, {a}, "w1");
  const vertex_id w2 = d.add_wire(1, {a}, "w2");
  sc::threaded_graph state = sc::make_hls_state(d, si::resource_set{1, 1, 1});
  state.schedule(a);
  sc::add_wire_thread(state, w1);
  sc::add_wire_thread(state, w2);
  state.schedule(w1);
  state.schedule(w2);
  EXPECT_NE(state.thread_of(w1), state.thread_of(w2));
  // Wires are dedicated: two independent wires must stay unordered.
  EXPECT_FALSE(state.state_precedes(w1, w2));
  EXPECT_FALSE(state.state_precedes(w2, w1));
}

TEST(Binding, SourceGraphGrowthRefreshesClosure) {
  // The closure cache syncs via precedence_graph::cursor(): new vertices
  // and edges added mid-schedule must be honoured by later selects
  // (incrementally while the graph only grows; see docs/DESIGN.md §4).
  const si::resource_library lib;
  si::dfg d("t", lib);
  const vertex_id a = d.add_op(si::op_kind::add, {}, "a");
  const vertex_id b = d.add_op(si::op_kind::add, {}, "b");
  sc::threaded_graph state = sc::make_hls_state(d, si::resource_set{1, 1, 1});
  state.schedule(a);
  state.schedule(b); // a, b independent: both on the single ALU thread

  // Growth: c depends on both.
  const vertex_id c = d.add_op(si::op_kind::add, {a, b}, "c");
  state.schedule(c);
  EXPECT_TRUE(state.state_precedes(a, c));
  EXPECT_TRUE(state.state_precedes(b, c));
  state.check_invariants();

  // Growth again: d2 feeds nothing but must order after its input c.
  const vertex_id d2 = d.add_op(si::op_kind::add, {c}, "d");
  state.schedule(d2);
  EXPECT_TRUE(state.state_precedes(c, d2));
  state.check_invariants();
}

TEST(Binding, EdgeRemovalLoosensOnlyFutureDecisions) {
  // Rewiring a G edge through a new op (spill rewiring does this) must not
  // invalidate the already-committed state: the state order may stay
  // tighter than G.
  const si::resource_library lib;
  si::dfg d("t", lib);
  const vertex_id a = d.add_op(si::op_kind::add, {}, "a");
  const vertex_id b = d.add_op(si::op_kind::add, {a}, "b");
  sc::threaded_graph state = sc::make_hls_state(d, si::resource_set{2, 1, 1});
  state.schedule(a);
  state.schedule(b);
  ASSERT_TRUE(state.state_precedes(a, b));
  // a -> b becomes a -> m -> b; m is not scheduled yet.
  d.graph().remove_edge_reach_preserved(a, b);
  const vertex_id m = d.add_op(si::op_kind::add, {a}, "m");
  d.graph().add_edge(m, b);
  // The committed relation survives; invariants still hold (the state is
  // allowed to be tighter than G).
  EXPECT_TRUE(state.state_precedes(a, b));
  EXPECT_NO_THROW(state.check_invariants());
}

TEST(Binding, MakeStateRejectsMissingClasses) {
  const si::resource_library lib;
  const si::dfg d = si::make_hal(lib); // needs ALUs and multipliers
  EXPECT_THROW((void)sc::make_hls_state(d, si::resource_set{0, 2, 1}),
               softsched::infeasible_error);
  EXPECT_THROW((void)sc::make_hls_state(d, si::resource_set{2, 0, 1}),
               softsched::infeasible_error);
  // Memory ports only matter if the DFG has loads/stores.
  EXPECT_NO_THROW((void)sc::make_hls_state(d, si::resource_set{2, 2, 0}));
}

TEST(Binding, NegativeResourceCountsRejected) {
  const si::resource_library lib;
  const si::dfg d = si::make_hal(lib);
  EXPECT_THROW((void)sc::make_hls_state(d, si::resource_set{-1, 2, 1}),
               softsched::precondition_error);
}
