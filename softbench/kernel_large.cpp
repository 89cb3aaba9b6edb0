// kernel_large - one-shot soft scheduling of large designs, in process, one
// thread, through the backend API with one reused run_context (the way a
// serve worker schedules). The core kernel does nearly all the work here.
#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common.h"
#include "inputs.h"
#include "ir/benchmarks.h"
#include "workloads.h"

namespace softbench {

namespace si = softsched::ir;
namespace ss = softsched::sched;

namespace {

/// Layered random designs: a fixed size ladder (the seed varies structure,
/// not size, so every seed does comparable work) at two edge densities.
constexpr int random_sizes[] = {200, 400, 600, 800, 1000, 1300, 1600, 2000, 2500};
constexpr double edge_probs[] = {0.15, 0.25};
const si::resource_set allocations[] = {{3, 2, 1}, {4, 3, 2}};

/// Measured passes over the design set per second of --seconds: sized so a
/// pass-count run lasts about --seconds on a 4-vCPU x86 VM while the work
/// stays a pure function of (seed, seconds).
constexpr double passes_per_second = 0.4;
constexpr int setup_repeats = 3;
/// The highest percentile of the 46 design points with ten of them beyond it.
constexpr double tail_p = 78;

struct point {
  std::shared_ptr<const si::dfg> design;
  si::resource_set resources;
};

std::vector<point> build_points(const si::resource_library& library, std::uint64_t seed) {
  std::vector<std::shared_ptr<const si::dfg>> designs;
  designs.push_back(std::make_shared<si::dfg>(si::make_hal(library)));
  designs.push_back(std::make_shared<si::dfg>(si::make_arf(library)));
  designs.push_back(std::make_shared<si::dfg>(si::make_ewf(library)));
  designs.push_back(std::make_shared<si::dfg>(si::make_fir(library, 64)));
  designs.push_back(std::make_shared<si::dfg>(si::make_iir_cascade(library, 16)));
  std::uint64_t tag = 0;
  for (const double p : edge_probs)
    for (const int n : random_sizes)
      designs.push_back(std::make_shared<si::dfg>(
          random_design(library, n, p, derive_seed(seed, ++tag))));
  std::vector<point> points;
  for (const auto& d : designs)
    for (const si::resource_set& rs : allocations) points.push_back({d, rs});
  return points;
}

ss::run_request request_of(const point& p, const si::resource_library& library) {
  return {*p.design, library, p.resources, {}};
}

} // namespace

run_result run_kernel_large(const run_args& args) {
  run_result out;
  const si::resource_library library;
  const ss::scheduler_backend& soft = ss::get_backend("soft");
  ss::run_context ctx;
  const int passes = std::max(3, static_cast<int>(args.seconds * passes_per_second + 0.5));

  // -- set-up: build the inputs, then one untimed pass (arena growth,
  //    first-touch pages); repeated, reporting the median ------------------
  std::vector<point> points;
  std::vector<ss::backend_outcome> reference;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.trace ? 1 : setup_repeats); ++rep) {
    const auto t0 = clock_type::now();
    points = build_points(library, args.seed);
    reference.clear();
    for (const point& p : points) reference.push_back(soft.run(request_of(p, library), ctx));
    setup_s.push_back(ms_between(t0, clock_type::now()) / 1e3);
  }

  // Every outcome must be feasible and legal; later passes must reproduce
  // it exactly, which makes them legal too.
  long long states_total = 0;
  std::size_t ops_per_pass = 0;
  const auto v0 = clock_type::now();
  for (std::size_t i = 0; i < points.size(); ++i) {
    ops_per_pass += points[i].design->op_count();
    states_total += reference[i].latency;
    if (const std::string why = illegal_outcome(*points[i].design, points[i].resources,
                                                reference[i]);
        !why.empty())
      out.fail(points[i].design->name() + ": " + why);
  }
  const double validate_ms = ms_between(v0, clock_type::now());
  out.attempted += points.size();

  if (!args.trace) {
    // Each design point's best run() over the passes (add_best_timings),
    // each pass on the next CPU.
    std::vector<double> best_ms(points.size(), std::numeric_limits<double>::infinity());
    cpu_rotation cpus;
    for (int pass = 0; pass < passes; ++pass) {
      if (pass > 0) cpus.step();
      for (std::size_t i = 0; i < points.size(); ++i) {
        const auto t0 = clock_type::now();
        const ss::backend_outcome outcome = soft.run(request_of(points[i], library), ctx);
        best_ms[i] = std::min(best_ms[i], ms_between(t0, clock_type::now()));
        ++out.attempted;
        if (!outcome.same_outcome(reference[i]))
          out.fail(points[i].design->name() + ": outcome differs between passes");
      }
    }
    add_best_timings(out, std::move(best_ms), static_cast<double>(ops_per_pass), tail_p);
    out.add("states_total", static_cast<double>(states_total), "states");
    out.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    out.add("setup_s", median(setup_s), "s");
    return out;
  }

  // -- traced run: every pass through run() untraced, then every pass
  //    decomposed into its public calls with a span on each; sched.run_ms
  //    is the reference the spans must add up to -----------------------------
  double run_ms = 0;
  std::uint64_t computed = 0;
  for (int pass = 0; pass < passes; ++pass)
    for (const point& p : points) {
      const auto t0 = clock_type::now();
      const ss::backend_outcome outcome = soft.run(request_of(p, library), ctx);
      run_ms += ms_between(t0, clock_type::now());
      ++computed;
      if (!outcome.same_outcome(reference[&p - points.data()]))
        out.fail(p.design->name() + ": outcome differs between passes");
    }

  span_buffer spans(points.size() * static_cast<std::size_t>(passes) * 4);
  layer_counters counters;
  double traced_ms = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto t0 = clock_type::now();
      const ss::backend_outcome outcome = decomposed_soft_run(
          request_of(points[i], library), ctx, &spans, static_cast<std::uint32_t>(i));
      traced_ms += ms_between(t0, clock_type::now());
      counters.add(outcome.stats);
      ++out.attempted;
      if (!outcome.same_outcome(reference[i]))
        out.fail(points[i].design->name() + ": decomposed run differs from run()");
    }
  }
  spans.write_csv(args.work_dir + "/trace-kernel_large.csv");

  add_span_metrics(out, &spans);
  counters.emit(out);
  out.add("sched.run_ms", run_ms, "ms");
  out.add("sched.computed", static_cast<double>(computed), "count");
  out.add("hard.validate_ms", validate_ms, "ms");
  out.add("trace.overhead", traced_ms / run_ms - 1, "ratio");
  out.add("trace.unattributed_share", 1 - spans.all_ms() / traced_ms, "ratio");
  out.add("trace.states_total", static_cast<double>(states_total), "states");
  return out;
}

} // namespace softbench
