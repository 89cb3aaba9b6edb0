// memory_scenario.h - the memory micro-profile of the scheduling hot path:
// the Figure-3 suite run through the soft backend on a warmed arena-backed
// run_context vs. the heap-mode baseline, with the process-wide allocation
// counters (util/alloc_count.h) diffed around each measured window.
//
// Emitted into BENCH_softsched.json as the "memory" scenario. Its checks
// (checks.h): the warmed arena path must perform at least `min_alloc_ratio`
// times fewer heap allocations per scheduled design than heap mode, and the
// two modes must produce identical outcomes (the arena is a cost lever,
// never a result lever). The harness exits nonzero if either fails, so a
// regression cannot hide behind a stale committed baseline.
//
// The harness binary must link softsched::alloc_count; the counters read
// zero (and the `instrumented` check fails) otherwise.
//
// peak_live_bytes doubles as the cache-miss proxy: it is the hot working
// set one run touches, and the arena packs it into a handful of contiguous
// blocks where heap mode scatters it across the allocator's free lists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "ir/benchmarks.h"
#include "sched/backend.h"
#include "util/alloc_count.h"
#include "util/json.h"

namespace softsched::bench {

inline checks write_memory_scenario(json_writer& j) {
  const ir::resource_library library;
  const ir::resource_set constraint = ir::figure3_constraint(0); // 2+/-,2*
  std::vector<ir::dfg> suite;
  std::vector<std::string> names;
  for (const char* name : {"hal", "arf", "ewf", "fir8"}) {
    suite.push_back(ir::make_benchmark(name, library));
    names.emplace_back(name);
  }
  const sched::scheduler_backend& soft = sched::get_backend("soft");

  constexpr int passes = 50;
  constexpr double min_alloc_ratio = 5.0;
  const double designs = static_cast<double>(passes) * static_cast<double>(suite.size());

  struct mode_profile {
    double allocs_per_design = 0;
    double bytes_per_design = 0;
    double frees_per_design = 0;
  };
  std::vector<sched::backend_outcome> reference;
  bool parity = true;

  const auto measure = [&](sched::run_context& ctx) {
    // One warm-up pass: the arena grows its blocks, every scratch vector
    // reaches steady-state capacity. The measured window is the serve
    // worker's hot loop.
    for (const ir::dfg& d : suite) {
      sched::backend_outcome warm = soft.run({d, library, constraint, {}}, ctx);
      if (reference.size() < suite.size()) reference.push_back(std::move(warm));
    }
    const std::uint64_t allocs0 = util::heap_alloc_count();
    const std::uint64_t bytes0 = util::heap_alloc_bytes();
    const std::uint64_t frees0 = util::heap_free_count();
    for (int pass = 0; pass < passes; ++pass)
      for (std::size_t i = 0; i < suite.size(); ++i)
        parity = parity && soft.run({suite[i], library, constraint, {}}, ctx)
                               .same_outcome(reference[i]);
    mode_profile p;
    p.allocs_per_design = static_cast<double>(util::heap_alloc_count() - allocs0) / designs;
    p.bytes_per_design = static_cast<double>(util::heap_alloc_bytes() - bytes0) / designs;
    p.frees_per_design = static_cast<double>(util::heap_free_count() - frees0) / designs;
    return p;
  };

  sched::run_context with_arena(sched::arena_mode::on);
  sched::run_context heap_mode(sched::arena_mode::off);
  const mode_profile arena = measure(with_arena);
  const mode_profile heap = measure(heap_mode);

  // Guard against an uninstrumented binary: heap mode schedules four real
  // designs per pass, which cannot be allocation-free.
  const bool instrumented = heap.allocs_per_design > 0;
  const double ratio =
      arena.allocs_per_design > 0 ? heap.allocs_per_design / arena.allocs_per_design
                                  : heap.allocs_per_design; // arena fully silent

  const util::arena_stats& astats = *with_arena.arena_stats();
  j.begin_object();
  j.member("constraint", constraint.label());
  j.key("designs");
  j.begin_array();
  for (const std::string& name : names) j.value(name);
  j.end_array();
  j.member("passes", passes);
  const auto mode_block = [&](const char* key, const mode_profile& p) {
    j.key(key);
    j.begin_object();
    j.member("allocations_per_design", p.allocs_per_design);
    j.member("bytes_per_design", p.bytes_per_design);
    j.member("frees_per_design", p.frees_per_design);
    j.end_object();
  };
  mode_block("arena", arena);
  mode_block("heap", heap);
  j.member("alloc_ratio", ratio);
  j.member("min_alloc_ratio", min_alloc_ratio);
  j.member("peak_live_bytes", static_cast<std::uint64_t>(astats.peak_bytes));
  j.member("arena_blocks", static_cast<std::uint64_t>(astats.blocks));
  j.member("arena_block_bytes", static_cast<std::uint64_t>(astats.block_bytes));
  return end_block(j, {{"instrumented", instrumented},
                       {"modes_agree", parity},
                       {"alloc_ratio_ok", ratio >= min_alloc_ratio}});
}

} // namespace softsched::bench
