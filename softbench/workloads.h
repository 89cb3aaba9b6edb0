// workloads.h - helpers the workloads and the self-tests share that reach
// into the program under test.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "core/threaded_graph.h"
#include "sched/backend.h"

namespace softbench {

/// The soft backend's run() split into the public calls it makes -
/// meta::meta_schedule, core::make_hls_state (+ add_wire_thread),
/// threaded_graph::schedule_all, then diameter / asap_start_times /
/// thread_of - with a span on each when `spans` is non-null. Must reproduce
/// run()'s outcome exactly; the traced runs and the self-tests check it.
[[nodiscard]] softsched::sched::backend_outcome decomposed_soft_run(
    const softsched::sched::run_request& request, softsched::sched::run_context& ctx,
    span_buffer* spans, std::uint32_t owner);

/// Empty when `outcome` is a feasible schedule that passes the program's
/// shared legality checker (hard::validate_schedule) against the design and
/// allocation; otherwise the first violation.
[[nodiscard]] std::string illegal_outcome(const softsched::ir::dfg& design,
                                          const softsched::ir::resource_set& resources,
                                          const softsched::sched::backend_outcome& outcome);

/// Sums of the kernel's exact counters (threaded_graph::stats()) and the
/// per-layer metrics derived from them.
struct layer_counters {
  softsched::core::schedule_stats sum;
  std::uint64_t threads_added = 0;

  void add(const softsched::core::schedule_stats& s);
  /// Adds core.* and graph.* counter metrics.
  void emit(run_result& out) const;
};

} // namespace softbench
