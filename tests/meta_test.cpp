// meta_test.cpp - the four meta schedules of Section 5 (+ random):
// permutation/feasibility properties and their characteristic shapes.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/distances.h"
#include "graph/generators.h"
#include "graph/topo.h"
#include "ir/benchmarks.h"
#include "meta/meta_schedule.h"
#include "util/check.h"
#include "util/rng.h"

namespace sg = softsched::graph;
namespace sm = softsched::meta;
namespace si = softsched::ir;
using sg::vertex_id;
using softsched::rng;

namespace {

sg::precedence_graph sample_graph(std::uint64_t seed) {
  rng rand(seed);
  return sg::gnp_dag(30, 0.15, 1, 2, rand);
}

} // namespace

TEST(MetaSchedule, NamesMatchPaperRows) {
  EXPECT_EQ(sm::meta_name(sm::meta_kind::depth_first), "meta sched1");
  EXPECT_EQ(sm::meta_name(sm::meta_kind::topological), "meta sched2");
  EXPECT_EQ(sm::meta_name(sm::meta_kind::path_based), "meta sched3");
  EXPECT_EQ(sm::meta_name(sm::meta_kind::list_priority), "meta sched4");
}

TEST(MetaSchedule, AllKindsProducePermutations) {
  const sg::precedence_graph g = sample_graph(51);
  for (const sm::meta_kind kind : sm::figure3_meta_kinds) {
    const auto order = sm::meta_schedule(g, kind);
    EXPECT_TRUE(sg::is_permutation(g, order)) << sm::meta_name(kind);
  }
  rng rand(5);
  EXPECT_TRUE(sg::is_permutation(g, sm::random_meta_schedule(g, rand)));
}

TEST(MetaSchedule, TopologicalKindIsTopological) {
  const sg::precedence_graph g = sample_graph(52);
  EXPECT_TRUE(sg::is_topological(g, sm::meta_schedule(g, sm::meta_kind::topological)));
}

TEST(MetaSchedule, ListPriorityIsTopologicalAndCriticalPathFirst) {
  const sg::precedence_graph g = sample_graph(53);
  const auto order = sm::meta_schedule(g, sm::meta_kind::list_priority);
  EXPECT_TRUE(sg::is_topological(g, order));
  // The first vertex must start a critical path: its sink distance equals
  // the diameter.
  const sg::distance_labels labels = sg::compute_distances(g);
  EXPECT_EQ(labels.tdist[order.front().value()], labels.diameter);
}

TEST(MetaSchedule, PathBasedStartsWithCriticalPath) {
  const sg::precedence_graph g = sample_graph(54);
  const auto order = sm::meta_schedule(g, sm::meta_kind::path_based);
  const sg::distance_labels labels = sg::compute_distances(g);
  // The order begins with a full critical path, in path order.
  long long walked = 0;
  std::size_t i = 0;
  for (; i < order.size(); ++i) {
    walked += g.delay(order[i]);
    if (walked == labels.diameter) break;
  }
  EXPECT_EQ(walked, labels.diameter) << "first peeled path must be critical";
  for (std::size_t j = 1; j <= i; ++j)
    EXPECT_TRUE(g.has_edge(order[j - 1], order[j]));
}

TEST(MetaSchedule, DepthFirstDivesBeforeWidening) {
  // On a chain-of-chains, DFS emits a full downstream chain before any
  // sibling.
  sg::precedence_graph g;
  const vertex_id root = g.add_vertex(1, "root");
  const vertex_id a1 = g.add_vertex(1, "a1");
  const vertex_id a2 = g.add_vertex(1, "a2");
  const vertex_id b1 = g.add_vertex(1, "b1");
  g.add_edge(root, a1);
  g.add_edge(a1, a2);
  g.add_edge(root, b1);
  const auto order = sm::meta_schedule(g, sm::meta_kind::depth_first);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], root);
  EXPECT_EQ(order[1], a1);
  EXPECT_EQ(order[2], a2); // dives through a-branch before b1
  EXPECT_EQ(order[3], b1);
}

TEST(MetaSchedule, DeterministicAcrossCalls) {
  const sg::precedence_graph g = sample_graph(56);
  for (const sm::meta_kind kind : sm::figure3_meta_kinds) {
    EXPECT_EQ(sm::meta_schedule(g, kind), sm::meta_schedule(g, kind))
        << sm::meta_name(kind);
  }
}

TEST(MetaSchedule, WorksOnAllPaperBenchmarks) {
  const si::resource_library lib;
  for (const si::dfg& d : si::figure3_benchmarks(lib)) {
    for (const sm::meta_kind kind : sm::figure3_meta_kinds) {
      const auto order = sm::meta_schedule(d.graph(), kind);
      EXPECT_TRUE(sg::is_permutation(d.graph(), order))
          << d.name() << "/" << sm::meta_name(kind);
    }
  }
}
