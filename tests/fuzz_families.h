// fuzz_families.h - the seeded random design families shared by the
// differential fuzz oracle (backend_fuzz_test) and the paranoid legality
// cross-check (cut_reference_test): explore's layered random DFGs, cycling
// sizes and densities so one sweep covers chains, diamonds and wide layers.
// SOFTSCHED_FUZZ_DESIGNS scales the sweep; the nightly storm sets 1000.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <vector>

#include "explore/grid.h"
#include "ir/dfg.h"
#include "ir/resource.h"

namespace fuzz_families {

/// How many random designs the sweep draws. Tier-1 stays small enough for
/// ctest; the nightly storm sets SOFTSCHED_FUZZ_DESIGNS=1000.
inline int fuzz_designs() {
  if (const char* env = std::getenv("SOFTSCHED_FUZZ_DESIGNS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 24;
}

struct fuzz_case {
  std::uint64_t seed;
  int vertices;
  double edge_prob;
};

/// The DFG family: explore's seeded layered random designs (shape from
/// graph::layered_for_size, kinds from the fixed explore mix), sized and
/// wired from the case alone - the reproducing tuple rebuilds the graph
/// exactly.
inline softsched::ir::dfg build_case(const fuzz_case& c,
                                     const softsched::ir::resource_library& lib) {
  softsched::explore::design_spec spec;
  spec.random_vertices = c.vertices;
  spec.random_edge_prob = c.edge_prob;
  spec.seed = c.seed;
  return softsched::explore::build_design(spec, lib);
}

/// The design sweep: deterministic from the base seed, cycling sizes and
/// densities so one run covers chains, diamonds and wide layers.
inline std::vector<fuzz_case> fuzz_cases() {
  constexpr int sizes[] = {8, 20, 45, 90, 160};
  constexpr double probs[] = {0.10, 0.25, 0.45};
  std::vector<fuzz_case> cases;
  const int n = fuzz_designs();
  cases.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    fuzz_case c;
    c.seed = 0x5eedf00dULL + static_cast<std::uint64_t>(i) * 7919;
    c.vertices = sizes[i % std::size(sizes)];
    c.edge_prob = probs[(i / static_cast<int>(std::size(sizes))) % std::size(probs)];
    cases.push_back(c);
  }
  return cases;
}

} // namespace fuzz_families
