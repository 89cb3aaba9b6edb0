#include "workloads.h"

#include "core/hls_binding.h"
#include "hard/schedule.h"
#include "util/check.h"

namespace softbench {

namespace sc = softsched::core;
namespace si = softsched::ir;
namespace ss = softsched::sched;
using softsched::graph::vertex_id;

ss::backend_outcome decomposed_soft_run(const ss::run_request& request, ss::run_context& ctx,
                                        span_buffer* spans, std::uint32_t owner) {
  const si::dfg& d = request.design;
  ss::backend_outcome r;
  ctx.begin_run();
  timed(spans, span_kind::meta_order, owner, [&] {
    softsched::meta::meta_schedule(d.graph(), request.options.meta, ctx.meta, ctx.meta_order);
  });
  try {
    const auto n = static_cast<std::uint32_t>(d.op_count());
    timed(spans, span_kind::core_build, owner, [&] {
      ctx.state.emplace(sc::make_hls_state(d, request.resources, ctx.arena(), ctx.thread_tags));
      for (std::uint32_t i = 0; i < n; ++i)
        if (d.kind(vertex_id(i)) == si::op_kind::wire)
          sc::add_wire_thread(*ctx.state, vertex_id(i));
    });
    sc::threaded_graph& state = *ctx.state;
    timed(spans, span_kind::core_schedule, owner, [&] { state.schedule_all(ctx.meta_order); });
    timed(spans, span_kind::core_extract, owner, [&] {
      r.latency = state.diameter();
      state.asap_start_times(r.start_times);
      r.unit_of.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) r.unit_of.push_back(state.thread_of(vertex_id(i)));
    });
    r.stats = state.stats();
    ctx.accumulate(r.stats);
    r.feasible = true;
  } catch (const softsched::infeasible_error& e) {
    r.infeasible_reason = e.what();
  }
  return r;
}

std::string illegal_outcome(const si::dfg& design, const si::resource_set& resources,
                            const ss::backend_outcome& outcome) {
  if (!outcome.feasible) return "infeasible: " + outcome.infeasible_reason;
  const std::vector<std::string> violations =
      softsched::hard::validate_schedule(design, ss::to_hard_schedule(outcome), &resources);
  return violations.empty() ? std::string() : violations.front();
}

void layer_counters::add(const sc::schedule_stats& s) {
  sum.select_calls += s.select_calls;
  sum.positions_scanned += s.positions_scanned;
  sum.positions_rejected += s.positions_rejected;
  sum.commits += s.commits;
  sum.label_passes += s.label_passes;
  sum.cross_edge_updates += s.cross_edge_updates;
  sum.nodes_relabeled += s.nodes_relabeled;
  sum.closure_rebuilds += s.closure_rebuilds;
  sum.closure_syncs += s.closure_syncs;
  sum.closure_rows_touched += s.closure_rows_touched;
}

void layer_counters::emit(run_result& out) const {
  const auto count = [&](const char* name, std::uint64_t v) {
    out.add(name, static_cast<double>(v), "count");
  };
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  count("core.select_calls", sum.select_calls);
  count("core.positions_scanned", sum.positions_scanned);
  count("core.positions_rejected", sum.positions_rejected);
  out.add("core.legal_ratio",
          ratio(sum.positions_scanned, sum.positions_scanned + sum.positions_rejected),
          "ratio");
  count("core.commits", sum.commits);
  count("core.cross_edge_updates", sum.cross_edge_updates);
  count("core.nodes_relabeled", sum.nodes_relabeled);
  out.add("core.relabel_per_commit", ratio(sum.nodes_relabeled, sum.commits), "ratio");
  count("core.label_passes", sum.label_passes);
  count("core.threads_added", threads_added);
  count("graph.closure_rebuilds", sum.closure_rebuilds);
  count("graph.closure_syncs", sum.closure_syncs);
  count("graph.closure_rows_touched", sum.closure_rows_touched);
}

} // namespace softbench
