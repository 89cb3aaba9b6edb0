// inputs.h - seeded input generation for the softbench workloads. Every
// input is a pure function of the run's --seed; the program under test only
// ever sees the generated designs and request bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/dfg.h"
#include "util/rng.h"

namespace softbench {

/// A layered random DFG of about `ops` operations, built by the program's
/// own random-design family (the one serve's "random" requests use).
[[nodiscard]] softsched::ir::dfg random_design(const softsched::ir::resource_library& library,
                                               int ops, double edge_prob, std::uint64_t seed);

/// The design in .dfg text form (ir/dfg_io), as a client would upload it.
[[nodiscard]] std::string dfg_text(const softsched::ir::dfg& d);

/// An isomorphic re-upload of `d`, as a regenerated front-end would emit
/// it: operations declared in a seeded random topological order, renamed
/// `n<k>` by a seeded permutation, with each operation's inputs shuffled.
struct renumbered_dfg {
  std::string text;
  std::vector<std::uint32_t> new_index; ///< original vertex id -> k of its name n<k>
};
[[nodiscard]] renumbered_dfg renumber(const softsched::ir::dfg& d, std::uint64_t seed);

/// Whether `copy` (parsed from renumber(original).text) is `original` under
/// the renaming: same op count, kinds, delays and edge set.
[[nodiscard]] bool same_design_under(const softsched::ir::dfg& original,
                                     const softsched::ir::dfg& copy,
                                     const std::vector<std::uint32_t>& new_index);

/// Mixes a run seed with a stream tag so independent input streams never
/// share random sequences.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

} // namespace softbench
