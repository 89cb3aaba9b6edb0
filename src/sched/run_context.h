// run_context.h - the request/context pair of the scheduler-backend API:
//
//   backend.run(run_request, run_context&) -> backend_outcome
//
// run_request aggregates everything one scheduling run consumes (design,
// library, allocation, options) so future constraint fields - the ROADMAP
// item-4 memory-bank/window work - extend the struct instead of breaking
// the signature again.
//
// run_context is the reusable per-WORKER scratch object: an arena plus the
// staging buffers (thread tags, meta-order, label/closure/worklist arrays
// inside the threaded state) that the soft backend re-fills on every run.
// Per-worker, not per-request: a serve worker schedules thousands of
// canonical designs back to back, and the whole point is that run N+1
// reuses the blocks run N warmed up - begin_run() tears the previous
// state down and rewinds the arena in O(1), so a warmed-up worker runs
// heap-silent (docs/DESIGN.md §8). Contexts are single-threaded by
// construction; ownership by exactly one worker is the synchronization.
//
// Arena off (arena_mode::off) is the cross-validated heap baseline, the
// same escape-hatch pattern as threaded_graph::set_incremental(false):
// every backend outcome must be byte-identical in both modes - only cost
// differs - and CI's paranoid storm schedules both side by side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/threaded_graph.h"
#include "ir/dfg.h"
#include "ir/resource.h"
#include "meta/meta_schedule.h"
#include "util/arena.h"

namespace softsched::sched {

/// Per-run knobs. Fields a backend does not consume are ignored (but still
/// participate in the serve cache key via the meta salt - see
/// backend_option_salt in backend.h).
struct backend_options {
  meta::meta_kind meta = meta::meta_kind::list_priority; ///< soft / sdc-iter feed order
  /// Force-directed latency budget; -1 = search the smallest budget whose
  /// FDS schedule fits the allocation (what makes FDS resource-comparable).
  long long fds_latency = -1;
  /// sdc-iter refinement budget: the maximum number of re-scheduling
  /// iterations past the base run. 0 = base schedule only (byte-for-byte
  /// the soft backend); -1 = sdc_iter_default_budget. Ignored by
  /// non-iterative backends.
  long long iter_budget = -1;
};

/// Everything one backend run consumes. The referenced objects must
/// outlive the run() call (not the context - the context never retains
/// them past begin_run() of the next run).
struct run_request {
  const ir::dfg& design;
  const ir::resource_library& library; ///< the library design's delays were baked from
  const ir::resource_set& resources;   ///< the unit allocation to respect
  backend_options options = {};
};

/// Whether a run_context backs the scheduling state with its arena or with
/// plain heap allocation (the measurable baseline).
enum class arena_mode { off, on };

class run_context {
public:
  explicit run_context(arena_mode mode = arena_mode::on,
                       std::size_t arena_block_bytes = util::arena::default_block_bytes);
  ~run_context();

  run_context(const run_context&) = delete;
  run_context& operator=(const run_context&) = delete;

  /// The backing arena; nullptr in heap mode. Passed straight into the
  /// threaded state's storage by the soft backend.
  [[nodiscard]] util::arena* arena() noexcept { return arena_.get(); }
  [[nodiscard]] bool arena_enabled() const noexcept { return arena_ != nullptr; }

  /// Starts a fresh run: destroys the previous run's state (its storage
  /// lives in the arena, so destruction must precede the rewind), then
  /// rewinds the arena in O(1) keeping its blocks. Every backend calls
  /// this once on entry to run().
  void begin_run();

  /// Runs started on this context since construction.
  [[nodiscard]] std::uint64_t runs() const noexcept { return runs_; }

  /// Arena counters, or nullptr in heap mode.
  [[nodiscard]] const util::arena_stats* arena_stats() const noexcept {
    return arena_ != nullptr ? &arena_->stats() : nullptr;
  }

  /// Folds one run's kernel counters into `totals` (the per-worker stats
  /// sink the serve engine and harnesses can aggregate without re-walking
  /// outcomes).
  void accumulate(const core::schedule_stats& s) noexcept;

  // -- backend scratch ----------------------------------------------------
  // Owned by the backend between begin_run() and the end of run(); opaque
  // (and possibly dangling into the previous request's graph) outside that
  // window. Consumers must not touch these, except `state` as below.

  /// The soft scheduling state, rebuilt per run over the context's arena.
  /// After a feasible run() of a caps().refinable backend it stays live
  /// until the next begin_run(), for the caller to refine in place
  /// (refine::apply_spill, apply_wire_delay), extract or print.
  std::optional<core::threaded_graph> state;
  /// Thread-tag staging for core::make_hls_state.
  std::vector<int> thread_tags;
  /// meta::meta_schedule internal buffers + the order it emits.
  meta::meta_scratch meta;
  std::vector<graph::vertex_id> meta_order;

  /// Kernel counters accumulated across runs (see accumulate()).
  core::schedule_stats totals;

private:
  std::unique_ptr<util::arena> arena_; ///< null in heap mode
  std::uint64_t runs_ = 0;
};

/// One arena-backed run_context per worker of a thread_pool, plus one for
/// the threads that are not its workers: worker i
/// (thread_pool::current_worker_index() == i) owns slot i, any other thread
/// the extra slot. Picking a slot takes no lock, so the calling thread's
/// context stays single-threaded as long as at most one non-worker thread
/// schedules at a time - parallel_for_index runs a 1-worker fan-out on its
/// caller, and that caller is the one.
class worker_contexts {
public:
  explicit worker_contexts(unsigned workers);

  /// The calling thread's context.
  [[nodiscard]] run_context& local() noexcept;

private:
  std::vector<std::unique_ptr<run_context>> slots_; ///< workers + 1
};

} // namespace softsched::sched
