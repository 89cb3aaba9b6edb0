// checks.h - the verdict every object block of BENCH_softsched.json ends
// with: one "checks" object of named booleans, the block's own constraints
// checked where they are computed. perf_harness prints each false one as
// <block>.<check> and exits 1; ci/bench_gate.py requires all of them to be
// true without knowing what any of them means.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace softsched::bench {

/// A block's named checks, in the order they are written.
using checks = std::vector<std::pair<std::string, bool>>;

/// Writes `c` as the last member of the block object being written, closes
/// the object, and hands `c` back as the block's verdict.
inline checks end_block(json_writer& j, checks c) {
  j.key("checks");
  j.begin_object();
  for (const auto& [name, ok] : c) j.member(name, ok);
  j.end_object();
  j.end_object();
  return c;
}

} // namespace softsched::bench
