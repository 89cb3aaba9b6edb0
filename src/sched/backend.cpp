#include "sched/backend.h"

#include <algorithm>
#include <array>

#include "core/hls_binding.h"
#include "graph/distances.h"
#include "hard/asap_alap.h"
#include "hard/force_directed.h"
#include "hard/list_scheduler.h"
#include "util/check.h"

namespace softsched::sched {

namespace {

using graph::vertex_id;

/// The classes an allocation can actually constrain (wire is dedicated).
constexpr std::array<ir::resource_class, 3> contended_classes = {
    ir::resource_class::alu, ir::resource_class::multiplier,
    ir::resource_class::memory_port};

backend_outcome outcome_from_hard(const hard::schedule& s) {
  backend_outcome r;
  r.feasible = true;
  r.latency = s.makespan;
  r.start_times = s.start;
  r.unit_of = s.unit;
  return r;
}

/// The shared soft-kernel run: schedules request.design with the threaded
/// scheduler over the feed order already staged in ctx.meta_order. The
/// caller owns begin_run() and the meta order - the soft backend fills it
/// from the requested meta kind, sdc-iter from its fold of the previous
/// iteration's critical subgraph. Factoring this out is what makes
/// "sdc-iter at budget 0 equals soft byte-for-byte" a structural fact
/// instead of a test hope.
backend_outcome soft_kernel_run(const run_request& request, run_context& ctx) {
  const ir::dfg& d = request.design;
  backend_outcome r;
  try {
    ctx.state.emplace(
        core::make_hls_state(d, request.resources, ctx.arena(), ctx.thread_tags));
    core::threaded_graph& state = *ctx.state;
    // Wire pseudo-ops each need their dedicated thread before scheduling
    // (hls_binding contract) - inline .dfg designs may carry them.
    const auto n = static_cast<std::uint32_t>(d.op_count());
    for (std::uint32_t i = 0; i < n; ++i)
      if (d.kind(vertex_id(i)) == ir::op_kind::wire)
        core::add_wire_thread(state, vertex_id(i));
    state.schedule_all(ctx.meta_order);
    r.latency = state.diameter();
    state.asap_start_times(r.start_times);
    r.unit_of.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
      r.unit_of.push_back(state.thread_of(vertex_id(i)));
    r.stats = state.stats();
    ctx.accumulate(r.stats);
    r.feasible = true;
  } catch (const infeasible_error& e) {
    r.infeasible_reason = e.what();
  }
  return r;
}

// -- soft: the paper's K-threaded online scheduler -------------------------

class soft_backend final : public scheduler_backend {
public:
  [[nodiscard]] std::string_view name() const noexcept override { return "soft"; }
  [[nodiscard]] backend_caps caps() const noexcept override {
    return {.binds_units = true, .uses_meta = true, .refinable = true};
  }

  [[nodiscard]] backend_outcome run(const run_request& request,
                                    run_context& ctx) const override {
    ctx.begin_run();
    meta::meta_schedule(request.design.graph(), request.options.meta, ctx.meta,
                        ctx.meta_order);
    return soft_kernel_run(request, ctx);
  }
};

// -- list: the resource-constrained critical-path baseline -----------------

class list_backend final : public scheduler_backend {
public:
  [[nodiscard]] std::string_view name() const noexcept override { return "list"; }
  [[nodiscard]] backend_caps caps() const noexcept override {
    return {.binds_units = true, .uses_meta = false, .refinable = false};
  }

  [[nodiscard]] backend_outcome run(const run_request& request,
                                    run_context& ctx) const override {
    ctx.begin_run(); // hard backends still honor the context contract
    try {
      return outcome_from_hard(hard::list_schedule(request.design, request.resources));
    } catch (const infeasible_error& e) {
      backend_outcome r;
      r.infeasible_reason = e.what();
      return r;
    }
  }
};

// -- fds: force-directed, made resource-comparable by a budget search ------

class fds_backend final : public scheduler_backend {
public:
  [[nodiscard]] std::string_view name() const noexcept override { return "fds"; }
  [[nodiscard]] backend_caps caps() const noexcept override {
    return {.binds_units = false, .uses_meta = false, .refinable = false};
  }

  [[nodiscard]] backend_outcome run(const run_request& request,
                                    run_context& ctx) const override {
    ctx.begin_run(); // hard backends still honor the context contract
    const ir::dfg& d = request.design;
    const ir::resource_set& resources = request.resources;
    const backend_options& options = request.options;
    backend_outcome r;
    // Same zero-unit screen as the other backends: FDS itself is
    // time-constrained and would happily "fit" an allocation with no units
    // by smearing pressure it never checks against.
    r.infeasible_reason = ir::missing_unit_reason(d, resources);
    if (!r.infeasible_reason.empty()) return r;

    // Lower bounds on any resource-legal latency: the critical path, and
    // per class ceil(total work / units) - FDS cannot beat either, so the
    // budget search starts at their max instead of probing dead budgets.
    const long long critical = graph::compute_distances(d.graph()).diameter;
    if (options.fds_latency > 0 && options.fds_latency < critical) {
      r.infeasible_reason = "latency budget " + std::to_string(options.fds_latency) +
                            " is below the critical path " + std::to_string(critical);
      return r;
    }
    long long floor = critical;
    for (const ir::resource_class cls : contended_classes) {
      const int units = resources.count(cls);
      if (units <= 0) continue;
      long long work = 0;
      for (const vertex_id v : d.graph().vertices())
        if (d.unit_class(v) == cls) work += d.graph().delay(v);
      floor = std::max(floor, (work + units - 1) / units);
    }

    const long long first = options.fds_latency > 0 ? options.fds_latency : floor;
    // -1 asks for the smallest fitting budget; an explicit budget runs once.
    const long long last = options.fds_latency > 0 ? first : floor + budget_scan;
    for (long long latency = first; latency <= last; ++latency) {
      hard::fds_result fds;
      try {
        fds = hard::force_directed_schedule(d, latency);
      } catch (const infeasible_error& e) {
        r.infeasible_reason = e.what(); // budget below the critical path
        return r;
      }
      const bool fits = std::ranges::all_of(contended_classes, [&](auto cls) {
        return fds.peak[static_cast<int>(cls)] <= resources.count(cls);
      });
      if (fits) return outcome_from_hard(fds.sched);
    }
    r.infeasible_reason =
        options.fds_latency > 0
            ? "force-directed peak usage exceeds " + resources.label() +
                  " at latency budget " + std::to_string(first)
            : "force-directed peak usage exceeds " + resources.label() +
                  " for every latency budget up to " + std::to_string(last);
    return r;
  }

private:
  /// How far past the lower bound the budget search walks before declaring
  /// the allocation unreachable. FDS balances well; real designs fit at or
  /// within a few states of the bound, and the cap keeps a pathological
  /// (design, allocation) pair from scanning forever.
  static constexpr long long budget_scan = 64;
};

// -- sdc-iter: feedback-guided iterative refinement (Ye et al. style) ------

/// One refinement step's extraction: the critical subgraph of `best` -
/// every op on a schedule-tight dependence chain ending at the makespan
/// (the longest register-to-register paths) plus every op active in a
/// state where its class' usage has saturated the allocation. Returns a
/// per-vertex membership mask.
std::vector<char> extract_critical_set(const ir::dfg& d,
                                       const ir::resource_set& resources,
                                       const backend_outcome& best) {
  const auto n = d.op_count();
  std::vector<char> in_set(n, 0);
  // Tight chains: walk predecessors backwards from every op finishing at
  // the makespan, following edges with zero slack (finish(u) == start(v)).
  std::vector<vertex_id> worklist;
  for (std::size_t i = 0; i < n; ++i) {
    const vertex_id v{static_cast<std::uint32_t>(i)};
    if (best.start_times[i] + d.graph().delay(v) == best.latency) {
      in_set[i] = 1;
      worklist.push_back(v);
    }
  }
  while (!worklist.empty()) {
    const vertex_id v = worklist.back();
    worklist.pop_back();
    for (const vertex_id u : d.graph().preds(v)) {
      if (in_set[u.value()]) continue;
      if (best.start_times[u.value()] + d.graph().delay(u) ==
          best.start_times[v.value()]) {
        in_set[u.value()] = 1;
        worklist.push_back(u);
      }
    }
  }
  // Oversubscribed states: ops of a contended class active in a cycle
  // where that class' usage equals its allocation (the states a tighter
  // schedule must unpack first).
  const hard::schedule hs = to_hard_schedule(best);
  for (const ir::resource_class cls : contended_classes) {
    const int units = resources.count(cls);
    if (units <= 0 || d.count_class(cls) == 0) continue;
    const std::vector<int> profile = hard::usage_profile(d, hs, cls);
    for (std::size_t i = 0; i < n; ++i) {
      const vertex_id v{static_cast<std::uint32_t>(i)};
      if (in_set[i] || d.unit_class(v) != cls) continue;
      const long long s = best.start_times[i];
      const long long e = s + d.graph().delay(v);
      for (long long t = s; t < e && t < static_cast<long long>(profile.size()); ++t) {
        if (profile[static_cast<std::size_t>(t)] >= units) {
          in_set[i] = 1;
          break;
        }
      }
    }
  }
  return in_set;
}

class sdc_iter_backend final : public scheduler_backend {
public:
  [[nodiscard]] std::string_view name() const noexcept override { return "sdc-iter"; }
  [[nodiscard]] backend_caps caps() const noexcept override {
    return {.binds_units = true, .uses_meta = true, .refinable = false, .iterative = true};
  }

  /// schedule -> extract -> re-schedule tightened -> fold -> repeat:
  ///   1. Base run: the soft kernel over the requested meta order -
  ///      byte-for-byte the soft backend (budget 0 returns it unchanged).
  ///   2. Extract the critical subgraph of the incumbent best schedule
  ///      (extract_critical_set above).
  ///   3. Re-schedule that subgraph in canonical (ascending-vertex-id)
  ///      space under tightened constraints: a resource-constrained list
  ///      schedule of the induced sub-DFG plus its ALAP frame against a
  ///      latency target one state under the incumbent.
  ///   4. Fold back: a new feed order that promotes the extracted ops in
  ///      sub-schedule priority, the remainder following in a meta order
  ///      cycled deterministically per iteration, and re-run the kernel.
  ///   5. Keep the incumbent best (QoR is monotone non-worsening); stop at
  ///      the budget or at a fixed point - a full variant cycle with no
  ///      improvement reproduces itself forever, so it is one.
  [[nodiscard]] backend_outcome run(const run_request& request,
                                    run_context& ctx) const override {
    const long long budget = request.options.iter_budget < 0
                                 ? sdc_iter_default_budget
                                 : request.options.iter_budget;
    ctx.begin_run();
    const ir::dfg& d = request.design;
    meta::meta_schedule(d.graph(), request.options.meta, ctx.meta, ctx.meta_order);
    backend_outcome best = soft_kernel_run(request, ctx);
    if (!best.feasible || budget == 0 || d.op_count() == 0) return best;

    const long long critical = graph::compute_distances(d.graph()).diameter;
    // The remainder variants start at the requested meta kind so iteration
    // order - and therefore the outcome - is a pure function of the request.
    constexpr int variant_count =
        static_cast<int>(std::size(meta::figure3_meta_kinds));
    int base_variant = 0;
    for (int i = 0; i < variant_count; ++i)
      if (meta::figure3_meta_kinds[i] == request.options.meta) base_variant = i;

    std::vector<vertex_id> folded;
    int stale = 0; // non-improving iterations since the last improvement
    for (long long iter = 0; iter < budget; ++iter) {
      if (best.latency <= critical) break; // already optimal: fixed point
      if (stale >= variant_count) break;   // full variant cycle, no change
      const std::vector<char> in_set =
          extract_critical_set(d, request.resources, best);
      const meta::meta_kind remainder_kind =
          meta::figure3_meta_kinds[(base_variant + stale) % variant_count];
      if (!fold_order(d, request.resources, best, in_set, remainder_kind, ctx,
                      folded))
        break; // infeasible subproblem: the incumbent is the outcome
      ctx.begin_run();
      ctx.meta_order = folded;
      backend_outcome candidate = soft_kernel_run(request, ctx);
      best.iterations = iter + 1;
      if (candidate.feasible && candidate.latency < best.latency) {
        const long long iterations = best.iterations;
        best = std::move(candidate);
        best.iterations = iterations;
        stale = 0;
      } else {
        ++stale;
      }
    }
    return best;
  }

private:
  /// Builds the fold of one iteration into `folded`: the extracted ops
  /// first, ordered by their tightened sub-schedule (list start, ALAP
  /// start, vertex id), then the remainder in `remainder_kind` order.
  /// Returns false when the subproblem is degenerate or infeasible - the
  /// caller folds the incumbent back as the outcome instead of throwing.
  static bool fold_order(const ir::dfg& d, const ir::resource_set& resources,
                         const backend_outcome& best,
                         const std::vector<char>& in_set,
                         meta::meta_kind remainder_kind, run_context& ctx,
                         std::vector<vertex_id>& folded) {
    const auto n = d.op_count();
    // Induced sub-DFG in canonical space: members in ascending vertex id,
    // edges restricted to the set (ordering heuristic, not a legality
    // claim - the fold feeds the soft kernel, which re-checks everything).
    std::vector<std::uint32_t> sub_id(n, UINT32_MAX);
    std::vector<vertex_id> members;
    for (std::size_t i = 0; i < n; ++i)
      if (in_set[i]) {
        sub_id[i] = static_cast<std::uint32_t>(members.size());
        members.push_back(vertex_id{static_cast<std::uint32_t>(i)});
      }
    if (members.empty() || members.size() == n) return false;
    ir::dfg sub("sdc-iter-sub", d.library());
    std::vector<vertex_id> inputs;
    for (const vertex_id v : members) {
      inputs.clear();
      for (const vertex_id p : d.graph().preds(v))
        if (sub_id[p.value()] != UINT32_MAX)
          inputs.push_back(vertex_id{sub_id[p.value()]});
      if (d.kind(v) == ir::op_kind::wire) {
        const vertex_id w = sub.add_wire(d.graph().delay(v), {});
        for (const vertex_id in : inputs) sub.add_dependence(in, w);
      } else {
        sub.add_op(d.kind(v), inputs);
      }
    }
    // Tightened re-schedule: resource-constrained list schedule of the
    // subgraph, plus the ALAP frame against one state under the incumbent
    // (clamped to the subgraph's own critical path - the tightest target
    // that is still schedulable).
    hard::schedule sub_sched;
    try {
      sub_sched = hard::list_schedule(sub, resources);
    } catch (const infeasible_error&) {
      return false;
    }
    const long long sub_critical = graph::compute_distances(sub.graph()).diameter;
    const long long target = std::max(sub_critical, best.latency - 1);
    std::vector<long long> alap_start;
    try {
      alap_start = hard::alap_schedule(sub, target).start;
    } catch (const infeasible_error&) {
      return false;
    }
    std::ranges::sort(members, [&](vertex_id a, vertex_id b) {
      const std::uint32_t sa = sub_id[a.value()];
      const std::uint32_t sb = sub_id[b.value()];
      if (sub_sched.start[sa] != sub_sched.start[sb])
        return sub_sched.start[sa] < sub_sched.start[sb];
      if (alap_start[sa] != alap_start[sb]) return alap_start[sa] < alap_start[sb];
      return a.value() < b.value();
    });
    folded.assign(members.begin(), members.end());
    meta::meta_schedule(d.graph(), remainder_kind, ctx.meta, ctx.meta_order);
    for (const vertex_id v : ctx.meta_order)
      if (!in_set[v.value()]) folded.push_back(v);
    return true;
  }
};

const soft_backend soft_instance;
const list_backend list_instance;
const fds_backend fds_instance;
const sdc_iter_backend sdc_iter_instance;

/// Registration order is a wire contract: backend_index feeds the serve
/// cache salt (docs/DESIGN.md §7). Append only.
constexpr std::array<const scheduler_backend*, 4> registry = {
    &soft_instance, &list_instance, &fds_instance, &sdc_iter_instance};

} // namespace

hard::schedule to_hard_schedule(const backend_outcome& outcome) {
  hard::schedule s;
  s.start = outcome.start_times;
  s.unit = outcome.unit_of;
  s.makespan = outcome.latency;
  return s;
}

bool backend_outcome::same_outcome(const backend_outcome& other) const {
  return feasible == other.feasible && infeasible_reason == other.infeasible_reason &&
         latency == other.latency && start_times == other.start_times &&
         unit_of == other.unit_of && stats == other.stats &&
         iterations == other.iterations;
}

std::span<const scheduler_backend* const> registered_backends() { return registry; }

const scheduler_backend* find_backend(std::string_view name) {
  for (const scheduler_backend* b : registry)
    if (b->name() == name) return b;
  return nullptr;
}

const scheduler_backend& get_backend(std::string_view name) {
  const scheduler_backend* b = find_backend(name);
  if (b == nullptr)
    throw precondition_error("unknown scheduler backend '" + std::string(name) +
                             "' (expected " + backend_names_joined() + ")");
  return *b;
}

int backend_index(std::string_view name) {
  for (std::size_t i = 0; i < registry.size(); ++i)
    if (registry[i]->name() == name) return static_cast<int>(i);
  return -1;
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  names.reserve(registry.size());
  for (const scheduler_backend* b : registry) names.emplace_back(b->name());
  return names;
}

std::string backend_names_joined() {
  std::string joined;
  for (const scheduler_backend* b : registry) {
    if (!joined.empty()) joined += "|";
    joined += b->name();
  }
  return joined;
}

std::uint64_t backend_option_salt(const scheduler_backend& backend,
                                  meta::meta_kind meta, long long iter_budget) {
  // Low byte: meta kind + 1 (the pre-registry salt, so soft keys are
  // unchanged) - but only for backends that consume the meta order; the
  // rest collapse every meta onto one salt so identical outcomes share one
  // cache entry. Bits 8-31: the registry index, so the same design +
  // allocation under two backends can never share an entry. Bits 32+:
  // effective iteration budget + 1, only for iterative backends - budget
  // sweeps against sdc-iter get distinct keys while non-iterative backends
  // collapse every budget onto one salt (the knob cannot change their
  // outcome). -1 resolves to the default budget before salting so the
  // default and its explicit spelling share one entry. Every pre-iter
  // (backend, meta) salt value is bit-for-bit the PR 5 value.
  const int index = backend_index(backend.name());
  SOFTSCHED_EXPECT(index >= 0, "salt requested for an unregistered backend");
  const std::uint64_t meta_bits =
      backend.caps().uses_meta ? static_cast<std::uint64_t>(meta) + 1 : 1;
  std::uint64_t salt = (static_cast<std::uint64_t>(index) << 8) | meta_bits;
  if (backend.caps().iterative) {
    const long long effective =
        iter_budget < 0 ? sdc_iter_default_budget : iter_budget;
    salt |= (static_cast<std::uint64_t>(effective) + 1) << 32;
  }
  return salt;
}

} // namespace softsched::sched
