// backend.h - the pluggable scheduler-backend layer: one uniform interface
// over the soft scheduler (core/threaded_graph, the paper's contribution)
// and the hard baselines (hard/list_scheduler, hard/force_directed), so
// every consumer - the CLI, the batch scheduling service, the DSE grid -
// can pick a scheduler by name and compare them head-to-head (the paper's
// Figure 1/3 story, generalized per docs/DESIGN.md §7).
//
// A backend is a stateless, deterministic strategy object:
//
//   run(run_request, run_context&) -> backend_outcome
//
// run_request (sched/run_context.h) aggregates the design, the library its
// delays were baked from, the unit allocation, and the per-run options.
// run_context is the caller-owned per-worker scratch object - arena plus
// staging buffers - the backend may burn through; it never changes the
// outcome, only its cost (arena on/off is byte-for-byte cross-validated).
// Outcomes use one shape - per-op start cycles, per-op unit binding
// (-1 = unbound, e.g. FDS), final latency in states, and the soft kernel's
// schedule_stats (zero for hard backends) - so results are directly
// comparable and cacheable.
//
// Registration is static: registered_backends() returns the fixed registry
// in a stable order, and each backend's registry index feeds the serve
// cache key salt (backend_option_salt). The index MUST therefore never be
// reordered within a release - see docs/DESIGN.md §7 for why the cache key
// has to include the backend at all.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/threaded_graph.h"
#include "hard/schedule.h"
#include "ir/dfg.h"
#include "ir/resource.h"
#include "meta/meta_schedule.h"
#include "sched/run_context.h"

namespace softsched::sched {

/// What a backend can and cannot do - consumers branch on capabilities,
/// never on backend names.
struct backend_caps {
  bool binds_units = true; ///< emits a unit index per op (FDS does not)
  bool uses_meta = false;  ///< consumes the meta feed order (soft, sdc-iter)
  bool refinable = false;  ///< schedule stays soft / live-refinable
  bool iterative = false;  ///< re-schedules in a feedback loop; consumes iter_budget
};

/// The uniform scheduling outcome. Infeasible allocations are a reported
/// outcome, not an exception - every consumer (serve cache, DSE grid)
/// treats them as first-class results.
struct backend_outcome {
  bool feasible = false;
  std::string infeasible_reason;      ///< set iff !feasible
  long long latency = -1;             ///< makespan in states; -1 when infeasible
  std::vector<long long> start_times; ///< per-op start cycle (vertex-id order)
  std::vector<int> unit_of;           ///< per-op unit binding; -1 = unbound
  core::schedule_stats stats;         ///< soft kernel counters; zero for hard backends
  /// Refinement iterations actually run past the base schedule; 0 for
  /// every one-shot backend and for an iterative backend at budget 0.
  long long iterations = 0;

  /// Value equality - the repeat-run determinism witness.
  [[nodiscard]] bool same_outcome(const backend_outcome& other) const;
};

/// A feasible outcome as a hard::schedule - the shape
/// hard::validate_schedule (the shared legality checker), write_gantt and
/// the register allocator consume.
[[nodiscard]] hard::schedule to_hard_schedule(const backend_outcome& outcome);

/// One scheduler strategy. Implementations are stateless and deterministic:
/// the outcome of run() is a pure function of the request - the context
/// only changes where scratch memory comes from - so outcomes are cacheable
/// by content (serve) and reproducible for any worker count (explore).
class scheduler_backend {
public:
  virtual ~scheduler_backend() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual backend_caps caps() const noexcept = 0;

  /// Schedules request.design under request.resources, staging all
  /// per-run state in `ctx` (calls ctx.begin_run() on entry, so the
  /// previous run's scratch is recycled). Must not throw on an infeasible
  /// allocation - that is an outcome. Throws graph_error on a cyclic
  /// input. `ctx` must not be shared across threads.
  [[nodiscard]] virtual backend_outcome run(const run_request& request,
                                            run_context& ctx) const = 0;
};

/// The registry, in stable registration order: soft (index 0), list (1),
/// fds (2), sdc-iter (3). Index order is part of the serve cache-key
/// contract - append only.
[[nodiscard]] std::span<const scheduler_backend* const> registered_backends();

/// Lookup by name ("soft" | "list" | "fds" | "sdc-iter"); nullptr when
/// unknown.
[[nodiscard]] const scheduler_backend* find_backend(std::string_view name);

/// Lookup that throws precondition_error listing the registered names.
[[nodiscard]] const scheduler_backend& get_backend(std::string_view name);

/// Registry index of a backend (position in registered_backends()); -1
/// when unknown. Stable across runs - the serve cache salt depends on it.
[[nodiscard]] int backend_index(std::string_view name);

/// All registered names in registry order ("soft", "list", "fds",
/// "sdc-iter").
[[nodiscard]] std::vector<std::string> backend_names();

/// The registered names joined as "soft|list|fds|sdc-iter" - the one
/// spelling every unknown-backend error message uses (get_backend, the
/// serve request parser).
[[nodiscard]] std::string backend_names_joined();

/// sdc-iter's refinement budget when the request leaves iter_budget at -1,
/// and the ceiling the CLI / serve request validation enforces. The
/// default is part of the cache-key contract: -1 resolves to it before
/// salting, so "default budget" and "explicitly 8" share one entry.
inline constexpr long long sdc_iter_default_budget = 8;
inline constexpr long long sdc_iter_max_budget = 1024;

/// The option salt the serve engine mixes into schedule_key: everything
/// the outcome depends on beyond graph + delays + allocation, i.e. which
/// backend ran, the feed order (only for backends whose caps().uses_meta),
/// and the iteration budget (only for backends whose caps().iterative).
/// Backends that ignore a knob get one salt for every value of it, so a
/// client sweeping meta orders against `list` - or budgets against `soft` -
/// hits one cache entry instead of scheduling identical results N times.
///
/// Layout (docs/DESIGN.md §7/§9): bits 0-7 meta+1 (or 1 when meta is
/// ignored), bits 8-31 registry index, bits 32+ effective budget + 1 for
/// iterative backends (zero otherwise). The salt is nonzero for every
/// combination so "no salt" stays distinguishable, the soft backend with
/// any meta produces the exact salts the pre-registry engine used, and
/// every pre-iter backend keeps its PR 5 key values (soft 1-4, list 257,
/// fds 513) - warm caches survive the widening. iter_budget -1 resolves
/// to sdc_iter_default_budget before salting. The arena mode of the
/// context is deliberately NOT in the salt: it cannot change the outcome.
[[nodiscard]] std::uint64_t backend_option_salt(const scheduler_backend& backend,
                                                meta::meta_kind meta,
                                                long long iter_budget = -1);

} // namespace softsched::sched
