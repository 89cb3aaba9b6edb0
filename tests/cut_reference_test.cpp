// cut_reference_test.cpp - select()'s per-thread legality cuts against
// their reference, the cone BFS (docs/DESIGN.md §1).
//
// ctest runs this binary as one entry with SOFTSCHED_PARANOID=1, under
// which every select() derives the cuts both ways and throws graph_error
// on any difference, and on a cone that is not a prefix (suffix) of its
// thread. Two workloads feed it: the fuzz oracle's design families in
// every meta order plus a random one (random orders schedule successors
// first, so both cones are non-trivial), and a spill/wire/ECO refinement
// storm, whose mid-thread inserts and fresh wire threads leave the largest
// part of the state outside the pred cone.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/hls_binding.h"
#include "core/threaded_graph.h"
#include "fuzz_families.h"
#include "ir/benchmarks.h"
#include "meta/meta_schedule.h"
#include "refine/refinement.h"
#include "util/rng.h"

namespace sc = softsched::core;
namespace si = softsched::ir;
namespace sm = softsched::meta;
namespace sf = softsched::refine;
using softsched::graph::vertex_id;
using softsched::rng;

namespace {

constexpr const char* needs_paranoid =
    "run through ctest, which sets SOFTSCHED_PARANOID=1 for this binary";

} // namespace

TEST(CutReference, FuzzFamiliesInEveryFeedOrder) {
  ASSERT_NE(std::getenv("SOFTSCHED_PARANOID"), nullptr) << needs_paranoid;
  const si::resource_library lib;
  const si::resource_set allocations[] = {{1, 1, 1}, {2, 2, 1}, {4, 3, 2}};
  for (const fuzz_families::fuzz_case& c : fuzz_families::fuzz_cases()) {
    const si::dfg d = fuzz_families::build_case(c, lib);
    std::vector<std::vector<vertex_id>> orders;
    for (const sm::meta_kind kind : sm::figure3_meta_kinds)
      orders.push_back(sm::meta_schedule(d.graph(), kind));
    rng rand(c.seed);
    orders.push_back(sm::random_meta_schedule(d.graph(), rand));
    for (const si::resource_set& rs : allocations) {
      for (std::size_t o = 0; o < orders.size(); ++o) {
        const std::string repro = "seed=" + std::to_string(c.seed) + " vertices=" +
                                  std::to_string(c.vertices) + " edge_prob=" +
                                  std::to_string(c.edge_prob) + " resources " +
                                  rs.label() + " order " + std::to_string(o);
        sc::threaded_graph state = sc::make_hls_state(d, rs);
        ASSERT_NO_THROW(state.schedule_all(orders[o])) << repro;
        ASSERT_NO_THROW(state.check_invariants()) << repro;
      }
    }
  }
}

TEST(CutReference, SpillWireEcoStorm) {
  ASSERT_NE(std::getenv("SOFTSCHED_PARANOID"), nullptr) << needs_paranoid;
  const si::resource_library lib;
  si::dfg d = si::make_fir(lib, 32);
  sc::threaded_graph state = sc::make_hls_state(d, si::resource_set{3, 3, 2});
  state.schedule_all(sm::meta_schedule(d.graph(), sm::meta_kind::list_priority));
  rng rand(0xc075);
  const auto pick = [&](const std::vector<vertex_id>& from) {
    return from[static_cast<std::size_t>(rand.below(from.size()))];
  };
  std::vector<vertex_id> values;
  std::vector<std::pair<vertex_id, vertex_id>> edges;
  for (int step = 0; step < 120; ++step) {
    const std::string at = "step " + std::to_string(step);
    values.clear();
    edges.clear();
    for (const vertex_id v : d.graph().vertices()) {
      if (d.kind(v) == si::op_kind::wire) continue;
      if (d.kind(v) != si::op_kind::store && !d.graph().succs(v).empty())
        values.push_back(v);
      for (const vertex_id s : d.graph().succs(v))
        if (d.kind(s) != si::op_kind::wire) edges.emplace_back(v, s);
    }
    switch (rand.below(3)) {
    case 0:
      ASSERT_NO_THROW(sf::apply_spill(d, state, pick(values))) << at;
      break;
    case 1: {
      const auto [from, to] = edges[static_cast<std::size_t>(rand.below(edges.size()))];
      ASSERT_NO_THROW(sf::apply_wire_delay(d, state, from, to,
                                           1 + static_cast<int>(rand.below(3))))
          << at;
      break;
    }
    default: {
      std::vector<vertex_id> inputs{pick(values)};
      if (const vertex_id b = pick(values); b != inputs.front()) inputs.push_back(b);
      const vertex_id eco = d.add_op(si::op_kind::add, std::span<const vertex_id>(inputs),
                                     "eco" + std::to_string(step));
      ASSERT_NO_THROW(state.schedule(eco)) << at;
      break;
    }
    }
  }
  EXPECT_EQ(state.scheduled_count(), d.graph().vertex_count());
  EXPECT_NO_THROW(state.check_invariants());
}
