// incremental_test.cpp - equivalence properties for the incremental hot
// path: (1) a transitive_closure grown in place through random
// add_vertex/add_edge interleavings must stay bit-for-bit equal to a
// from-scratch rebuild; (2) grow_from() must replay a precedence_graph's
// growth exactly, including across reach-preserving rewires; (3) the
// dirty-region relabeling of threaded_graph must agree with a full
// label() pass after every commit, through schedules and refinement
// storms alike, and sink distances kept exact only on each thread's fresh
// suffix must read as the from-scratch ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/hls_binding.h"
#include "core/threaded_graph.h"
#include "explore/grid.h"
#include "graph/generators.h"
#include "graph/precedence_graph.h"
#include "graph/reachability.h"
#include "ir/benchmarks.h"
#include "meta/meta_schedule.h"
#include "refine/refinement.h"
#include "util/check.h"
#include "util/rng.h"

namespace sg = softsched::graph;
namespace sc = softsched::core;
namespace se = softsched::explore;
namespace si = softsched::ir;
namespace sm = softsched::meta;
namespace sf = softsched::refine;
using sg::vertex_id;
using softsched::rng;

namespace {

/// Exhaustive reaches() comparison (independent of equals(), so the two
/// check each other).
void expect_same_relation(const sg::transitive_closure& a, const sg::transitive_closure& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  for (std::uint32_t u = 0; u < a.vertex_count(); ++u)
    for (std::uint32_t w = 0; w < a.vertex_count(); ++w)
      ASSERT_EQ(a.reaches(vertex_id(u), vertex_id(w)), b.reaches(vertex_id(u), vertex_id(w)))
          << "pair (" << u << ", " << w << ")";
}

} // namespace

TEST(IncrementalClosure, RandomGrowthMatchesRebuildBitForBit) {
  // Property: interleave add_vertex / add_edge (DAG kept by construction:
  // edges only point to higher creation indices) with queries; after every
  // mutation the incrementally grown closure equals a fresh rebuild.
  for (const std::uint64_t seed : {7u, 19u, 101u, 555u}) {
    rng rand(seed);
    sg::precedence_graph g;
    g.add_vertex(1);
    sg::transitive_closure grown(g);

    for (int step = 0; step < 120; ++step) {
      if (rand.chance(0.4)) {
        g.add_vertex(1 + static_cast<int>(rand.below(3)));
        grown.add_vertex();
      } else {
        const auto n = static_cast<std::uint32_t>(g.vertex_count());
        if (n < 2) continue;
        const vertex_id from(static_cast<std::uint32_t>(rand.below(n - 1)));
        const vertex_id to(
            static_cast<std::uint32_t>(from.value() + 1 + rand.below(n - 1 - from.value())));
        const bool existed = g.has_edge(from, to);
        g.add_edge(from, to);
        const std::size_t touched = grown.add_edge(from, to);
        if (existed) {
          EXPECT_EQ(touched, 0u); // set semantics: no-op edges touch nothing
        }
      }
      const sg::transitive_closure rebuilt(g);
      ASSERT_TRUE(grown.equals(rebuilt)) << "seed " << seed << " step " << step;
      ASSERT_EQ(grown.pair_count(), rebuilt.pair_count());
    }
    expect_same_relation(grown, sg::transitive_closure(g));
  }
}

TEST(IncrementalClosure, AddEdgeRejectsCycles) {
  sg::precedence_graph g;
  const vertex_id a = g.add_vertex(1);
  const vertex_id b = g.add_vertex(1);
  const vertex_id c = g.add_vertex(1);
  g.add_edge(a, b);
  g.add_edge(b, c);
  sg::transitive_closure closure(g);
  EXPECT_THROW(closure.add_edge(c, a), softsched::graph_error);
  EXPECT_THROW(closure.add_edge(b, a), softsched::graph_error);
  EXPECT_EQ(closure.add_edge(a, c), 0u); // already implied; no rows change
}

TEST(IncrementalClosure, GrowFromReplaysGraphGrowth) {
  rng rand(42);
  sg::precedence_graph g = sg::gnp_dag(12, 0.3, 1, 2, rand);
  sg::transitive_closure closure(g);
  sg::graph_cursor cursor = g.cursor();

  for (int round = 0; round < 10; ++round) {
    // A growth burst: new vertices wired to existing ones.
    const auto base = static_cast<std::uint32_t>(g.vertex_count());
    const vertex_id fresh = g.add_vertex(1);
    for (int i = 0; i < 3; ++i) {
      const vertex_id src(static_cast<std::uint32_t>(rand.below(base)));
      g.add_edge(src, fresh);
    }
    closure.grow_from(g, cursor);
    EXPECT_EQ(cursor, g.cursor());
    ASSERT_TRUE(closure.equals(sg::transitive_closure(g))) << "round " << round;
  }
}

TEST(IncrementalClosure, ReachPreservingRemovalKeepsCursorAndConverges) {
  // a -> b; rewire to a -> w -> b with the reach-preserving removal. Once
  // the bypass is complete the grown closure must again equal a rebuild
  // exactly.
  sg::precedence_graph g;
  const vertex_id a = g.add_vertex(1);
  const vertex_id b = g.add_vertex(1);
  const vertex_id pre = g.add_vertex(1);
  g.add_edge(pre, a);
  g.add_edge(a, b);
  sg::transitive_closure closure(g);
  sg::graph_cursor cursor = g.cursor();

  g.remove_edge_reach_preserved(a, b);
  const vertex_id w = g.add_vertex(2);
  g.add_edge(a, w);
  g.add_edge(w, b);

  closure.grow_from(g, cursor);
  ASSERT_TRUE(closure.equals(sg::transitive_closure(g)));
  EXPECT_TRUE(closure.strictly_reaches(pre, b));
  EXPECT_TRUE(closure.strictly_reaches(a, b));
  EXPECT_TRUE(closure.strictly_reaches(w, b));
}

TEST(IncrementalLabels, RandomSchedulesMatchFullRelabel) {
  // Property: after every commit of a random schedule, the incrementally
  // patched sdist/tdist equal a forced full label() pass.
  for (const std::uint64_t seed : {11u, 29u, 83u}) {
    rng rand(seed);
    sg::layered_params lp;
    lp.layers = 6;
    lp.width = 5;
    lp.edge_prob = 0.35;
    const sg::precedence_graph g = sg::layered_random(lp, rand);
    sc::threaded_graph state(g, 3);

    std::vector<vertex_id> order = g.vertices();
    rand.shuffle(order);
    for (const vertex_id v : order) {
      state.schedule(v);
      ASSERT_TRUE(state.labels_match_full_relabel()) << "seed " << seed;
    }
    state.check_invariants();
    // The whole run needed exactly one full pass (the first select); all
    // later labels came from dirty-region patches.
    EXPECT_EQ(state.stats().label_passes, 1u);
    EXPECT_GT(state.stats().nodes_relabeled, 0u);
  }
}

TEST(IncrementalLabels, RefinementStormMatchesFullRelabelAndRebuild) {
  // The hot path end to end: spills, wire delays, moves and ECOs against a
  // live HLS schedule; after every refinement the patched labels and the
  // incrementally grown closure must match their from-scratch versions
  // (labels checked directly, closure indirectly through check_invariants'
  // correctness condition).
  const si::resource_library lib;
  si::dfg d = si::make_ewf(lib);
  rng rand(404);
  sc::threaded_graph state = sc::make_hls_state(d, si::figure3_constraint(0));
  state.schedule_all(sm::meta_schedule(d.graph(), sm::meta_kind::list_priority));

  for (int step = 0; step < 30; ++step) {
    switch (rand.below(3)) {
    case 0: {
      std::vector<vertex_id> candidates;
      for (const vertex_id v : d.graph().vertices()) {
        if (d.kind(v) == si::op_kind::store || d.kind(v) == si::op_kind::wire) continue;
        if (d.graph().succs(v).empty()) continue;
        candidates.push_back(v);
      }
      sf::apply_spill(d, state,
                      candidates[static_cast<std::size_t>(rand.below(candidates.size()))]);
      break;
    }
    case 1: {
      std::vector<std::pair<vertex_id, vertex_id>> edges;
      for (const vertex_id v : d.graph().vertices()) {
        if (d.kind(v) == si::op_kind::wire) continue;
        for (const vertex_id s : d.graph().succs(v))
          if (d.kind(s) != si::op_kind::wire) edges.emplace_back(v, s);
      }
      const auto [from, to] = edges[static_cast<std::size_t>(rand.below(edges.size()))];
      sf::apply_wire_delay(d, state, from, to, 1 + static_cast<int>(rand.below(2)));
      break;
    }
    default: {
      const vertex_id a(static_cast<std::uint32_t>(rand.below(d.graph().vertex_count())));
      const vertex_id eco =
          d.add_op(si::op_kind::add, {a}, std::string("eco") += std::to_string(step));
      state.schedule(eco);
      break;
    }
    }
    ASSERT_TRUE(state.labels_match_full_relabel()) << "step " << step;
    ASSERT_NO_THROW(state.check_invariants()) << "step " << step;
  }
  // The storm must have exercised the incremental paths, not the fallback.
  EXPECT_GT(state.stats().closure_syncs, 0u);
  EXPECT_GT(state.stats().nodes_relabeled, 0u);
  EXPECT_EQ(state.stats().closure_rebuilds, 1u); // the initial build only
}

TEST(IncrementalLabels, FromScratchModeStaysEquivalent) {
  // set_incremental(false) is the measurable baseline: same decisions,
  // same schedule, only more work.
  const si::resource_library lib;
  const si::dfg d = si::make_arf(lib);
  const auto order = sm::meta_schedule(d.graph(), sm::meta_kind::list_priority);

  sc::threaded_graph fast = sc::make_hls_state(d, si::figure3_constraint(1));
  sc::threaded_graph slow = sc::make_hls_state(d, si::figure3_constraint(1));
  slow.set_incremental(false);
  fast.schedule_all(order);
  slow.schedule_all(order);

  EXPECT_EQ(fast.diameter(), slow.diameter());
  for (const vertex_id v : d.graph().vertices()) {
    EXPECT_EQ(fast.thread_of(v), slow.thread_of(v));
    EXPECT_EQ(fast.source_distance(v), slow.source_distance(v));
    EXPECT_EQ(fast.sink_distance(v), slow.sink_distance(v));
  }
  // The baseline never patches labels; the incremental run patches every
  // commit and labels once. SOFTSCHED_PARANOID's self-checks count no pass.
  EXPECT_EQ(slow.stats().nodes_relabeled, 0u);
  EXPECT_GT(fast.stats().nodes_relabeled, 0u);
  EXPECT_EQ(fast.stats().label_passes, 1u);
}

TEST(IncrementalLabels, LayeredDesignAndRefinementsMatchFromScratchTwin) {
  // The two paths a 30-60-op design rarely takes: a commit whose backward
  // patch raises more of the select's pred cone than the cone leaves
  // outside, which drops the cone from the fresh set, and the refresh of a
  // stale sink distance on read. A 600-op layered design fed in list order
  // appends each op after its predecessors, so a cone can outweigh its
  // complement; the refinements then read anywhere. After every step the
  // state must match a from-scratch twin vertex by vertex. The counters are
  // pinned: they change when the patch or the refresh writes more or less,
  // and SOFTSCHED_PARANOID (ctest runs this case a second time under it)
  // must not change them.
  const si::resource_library lib;
  se::design_spec spec;
  spec.random_vertices = 600;
  spec.seed = 0xf7e5;
  si::dfg d = se::build_design(spec, lib);
  si::dfg twin_d = se::build_design(spec, lib);
  const si::resource_set allocation{3, 2, 1};
  sc::threaded_graph state = sc::make_hls_state(d, allocation);
  sc::threaded_graph twin = sc::make_hls_state(twin_d, allocation);
  twin.set_incremental(false);
  const auto order = sm::meta_schedule(d.graph(), sm::meta_kind::list_priority);
  ASSERT_GE(order.size(), 500u);
  state.schedule_all(order);
  twin.schedule_all(order);

  const auto expect_twins = [&](const std::string& at) {
    // Before any read refreshes a stale node: the check itself is neutral.
    ASSERT_TRUE(state.labels_match_full_relabel()) << at;
    ASSERT_EQ(state.diameter(), twin.diameter()) << at;
    for (const vertex_id v : d.graph().vertices()) {
      ASSERT_EQ(state.thread_of(v), twin.thread_of(v)) << at;
      ASSERT_EQ(state.source_distance(v), twin.source_distance(v)) << at;
      ASSERT_EQ(state.sink_distance(v), twin.sink_distance(v)) << at;
    }
  };
  expect_twins("after the schedule");

  rng rand(0x5eed);
  const auto producer = [&](bool spillable) {
    std::vector<vertex_id> candidates;
    for (const vertex_id v : d.graph().vertices())
      if (!d.graph().succs(v).empty() && !(spillable && d.kind(v) == si::op_kind::store))
        candidates.push_back(v);
    return candidates[static_cast<std::size_t>(rand.below(candidates.size()))];
  };
  for (int step = 0; step < 40; ++step) {
    const std::string at = "step " + std::to_string(step);
    const auto action = rand.below(4);
    if (action == 3) {
      std::vector<vertex_id> inputs;
      for (int i = 0; i < 3; ++i) {
        const vertex_id in(static_cast<std::uint32_t>(rand.below(d.op_count())));
        if (std::find(inputs.begin(), inputs.end(), in) == inputs.end()) inputs.push_back(in);
      }
      const std::string name = "eco" + std::to_string(step);
      state.schedule(d.add_op(si::op_kind::add, std::span<const vertex_id>(inputs), name));
      twin.schedule(twin_d.add_op(si::op_kind::add, std::span<const vertex_id>(inputs), name));
    } else if (action == 0) {
      const vertex_id value = producer(true);
      sf::apply_spill(d, state, value);
      sf::apply_spill(twin_d, twin, value);
    } else {
      const vertex_id from = producer(false);
      const auto succs = d.graph().succs(from);
      const vertex_id to = succs[static_cast<std::size_t>(rand.below(succs.size()))];
      if (action == 1) {
        const int delay = 1 + static_cast<int>(rand.below(3));
        sf::apply_wire_delay(d, state, from, to, delay);
        sf::apply_wire_delay(twin_d, twin, from, to, delay);
      } else {
        sf::apply_register_move(d, state, from, to);
        sf::apply_register_move(twin_d, twin, from, to);
      }
    }
    expect_twins(at);
  }
  state.check_invariants();

  const sc::schedule_stats& s = state.stats();
  EXPECT_EQ(s.select_calls, 784u);
  EXPECT_EQ(s.positions_scanned, 14604u);
  EXPECT_EQ(s.positions_rejected, 85230u);
  EXPECT_EQ(s.commits, 784u);
  EXPECT_EQ(s.label_passes, 1u);
  EXPECT_EQ(s.cross_edge_updates, 2396u);
  EXPECT_EQ(s.nodes_relabeled, 41392u);
  EXPECT_EQ(s.closure_rebuilds, 1u);
  EXPECT_EQ(s.closure_syncs, 40u);
  EXPECT_EQ(s.closure_rows_touched, 42052u);
}

TEST(IncrementalLabels, IllegalManualCommitStillDiagnosedByNextLabelPass) {
  // Manual commits must not patch labels: an illegal position can close a
  // cycle - even a zero-weight one the patch worklist's lap detector
  // cannot see - and the pre-incremental contract is that the next full
  // label pass (here via diameter()) throws. Same adversarial shape as
  // Legality.PaperLiteralGuardAcceptsCycleCreatingPosition, with delay-0
  // ops so the cycle is zero-weight.
  sg::precedence_graph g;
  const vertex_id v = g.add_vertex(0, "v");
  const vertex_id x = g.add_vertex(0, "x");
  const vertex_id w = g.add_vertex(0, "w");
  const vertex_id q = g.add_vertex(0, "q");
  g.add_edge(v, x);
  g.add_edge(w, q);

  sc::threaded_graph state(g, 2);
  state.commit(state.position_front(0), x);
  state.commit(state.position_after(x), w);
  state.commit(state.position_front(1), q);
  (void)state.diameter(); // labels valid before the corrupting commit

  state.commit(state.position_after(q), v); // closes v -> x -> w -> q -> v
  EXPECT_THROW((void)state.diameter(), softsched::graph_error);
}

TEST(IncrementalBuffers, ReusableOutputBuffersMatchReturningOverloads) {
  const si::resource_library lib;
  const si::dfg d = si::make_fir8(lib);
  sc::threaded_graph state = sc::make_hls_state(d, si::figure3_constraint(0));
  state.schedule_all(sm::meta_schedule(d.graph(), sm::meta_kind::topological));

  std::vector<vertex_id> seq_buf;
  for (int k = 0; k < state.thread_count(); ++k) {
    state.thread_sequence(k, seq_buf);
    EXPECT_EQ(seq_buf, state.thread_sequence(k));
  }
  std::vector<std::pair<vertex_id, vertex_id>> edge_buf(7); // stale content must be cleared
  state.state_edges(edge_buf);
  EXPECT_EQ(edge_buf, state.state_edges());
}
