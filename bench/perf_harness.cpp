// perf_harness - the measured-baseline harness behind BENCH_softsched.json.
//
// Three scenario families, all timed with the same clock and emitted as one
// JSON document so every future PR has a trajectory to compare against:
//
//   * paper_benchmarks  - schedule the Figure-3 suite (HAL, AR, EWF, FIR)
//                         plus larger parameterized workloads end to end;
//   * random_dag_sweep  - layered random DAGs up to |V| = 10k through the
//                         generic K-threaded core, recording the dirty-
//                         region relabeling counters against what full
//                         relabeling would have written (the empirical
//                         Theorem-3 check: label work per commit stays far
//                         below the state size) and the wall time's
//                         scaling exponent in |V|;
//   * refinement storms - sustained random rewires/ECOs against a live
//                         schedule, run twice: incremental maintenance on
//                         (the soft-scheduling hot path) vs. the
//                         from-scratch baseline (set_incremental(false):
//                         closure rebuild per change + full relabel per
//                         commit). Both wall times and the speedup are
//                         recorded; the two runs must agree on the final
//                         diameter.
//
// Later blocks (dse, serve, load, socket, persist, backend, iter, memory)
// come from the bench/*_scenario.h headers.
//
// Every object block ends with its "checks" (checks.h); the harness prints
// each false one as <block>.<check> and exits 1. The block table below also
// names each block's gated metrics, written as the document's top-level
// "gated" table, which ci/bench_gate.py compares against the baseline.
//
// Usage: perf_harness [--quick] [--out PATH] [--seed N] [--only BLOCK[,BLOCK...]]
//                     [--retry] [--cache-dir DIR]
//   --quick caps sizes/iterations for CI smoke jobs.
//   --only runs just the named scenario blocks (the document keeps its
//   schema, with only those blocks under "scenarios").
//   --retry and --cache-dir apply to the load block: a closed-loop retry
//   client, and a 64 MiB persistent tier in DIR (load_scenario.h).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "backend_scenario.h"
#include "checks.h"
#include "core/hls_binding.h"
#include "core/threaded_graph.h"
#include "dse_scenario.h"
#include "iter_scenario.h"
#include "load_scenario.h"
#include "memory_scenario.h"
#include "persist_scenario.h"
#include "serve_scenario.h"
#include "socket_scenario.h"
#include "graph/generators.h"
#include "ir/benchmarks.h"
#include "meta/meta_schedule.h"
#include "refine/refinement.h"
#include "util/json.h"
#include "util/rng.h"

namespace sc = softsched::core;
namespace sg = softsched::graph;
namespace si = softsched::ir;
namespace sm = softsched::meta;
namespace sf = softsched::refine;
namespace sb = softsched::bench;
using sg::vertex_id;
using softsched::json_writer;
using softsched::rng;

namespace {

using clock_type = std::chrono::steady_clock;

double millis_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

// One spelling of the counter block everywhere (reports, harnesses).
void write_stats(json_writer& j, const sc::schedule_stats& s) {
  softsched::explore::write_schedule_stats(j, s);
}

// -- scenario 1: the paper benchmarks end to end ---------------------------

sb::checks run_paper_benchmarks(json_writer& j, bool quick) {
  const si::resource_library lib;
  std::vector<si::dfg> suite = si::figure3_benchmarks(lib);
  suite.push_back(si::make_fir(lib, quick ? 32 : 64));
  suite.push_back(si::make_iir_cascade(lib, quick ? 8 : 16));
  const int reps = quick ? 5 : 25;

  j.begin_array();
  for (const si::dfg& d : suite) {
    const si::resource_set rs = si::figure3_constraint(0);
    const std::vector<vertex_id> order =
        sm::meta_schedule(d.graph(), sm::meta_kind::list_priority);
    double best_ms = 0;
    long long states = 0;
    sc::schedule_stats last_stats;
    for (int rep = 0; rep < reps; ++rep) {
      sc::threaded_graph state = sc::make_hls_state(d, rs);
      const auto t0 = clock_type::now();
      state.schedule_all(order);
      states = state.diameter();
      const double ms = millis_since(t0);
      if (rep == 0 || ms < best_ms) best_ms = ms;
      last_stats = state.stats();
    }
    j.begin_object();
    j.member("name", d.name());
    j.member("ops", d.op_count());
    j.member("resource_set", rs.label());
    j.member("states", states);
    j.member("reps", reps);
    j.member("best_ms", best_ms);
    j.member("ops_per_sec", best_ms > 0 ? static_cast<double>(d.op_count()) / (best_ms / 1e3)
                                        : 0.0);
    j.key("stats");
    write_stats(j, last_stats);
    j.end_object();
  }
  j.end_array();
  return {}; // an array block carries no checks
}

// -- scenario 2: random DAG sweep ------------------------------------------

/// Each size is scheduled `reps` times and reports its best run (the
/// counters repeat exactly, which the block checks). The reps interleave
/// the sizes, so a stretch of host noise lands on every size rather than
/// on the runs of one. scaling_exponent is the log-log slope of the best
/// wall time between the two largest sizes. A uniformly slower host scales
/// both times alike, so it cannot move the slope; a pass over the whole
/// state in every select() can. With K ~ sqrt(V) threads, the scan over K
/// threads of V/K positions makes the sweep O(V^2), while a per-select
/// walk of the O(K * V) slot graph makes it O(V^2.5). relabel_per_commit
/// is the label writes per commit at the largest size, a count no host
/// can move.
sb::checks run_random_dag_sweep(json_writer& j, bool quick, std::uint64_t seed) {
  std::vector<int> sizes{100, 300, 1000};
  if (!quick) {
    sizes.push_back(3000);
    sizes.push_back(10000);
  }
  constexpr int reps = 3;

  struct point {
    sg::precedence_graph g;
    std::vector<vertex_id> order;
    int threads = 0;
    double ms = 0;
    long long diameter = 0;
    // Label writes a full label() pass would have done at every commit
    // (state node count at that moment): the denominator of the
    // sub-linearity claim.
    std::uint64_t full_relabel_equiv = 0;
    sc::schedule_stats stats = {};
  };
  std::vector<point> points;
  for (const int n : sizes) {
    rng rand(seed + static_cast<std::uint64_t>(n));
    sg::precedence_graph g = sg::layered_random(sg::layered_for_size(n, 0.15), rand);
    std::vector<vertex_id> order = sm::meta_schedule(g, sm::meta_kind::list_priority);
    // Unit count scales with design size (a 10k-op design does not run on
    // the same 8 FUs as a 100-op one). The list order appends each op after
    // its predecessors, so the sink distances a commit raises lie mostly in
    // the select's pred cone, which select() does not read: the commit
    // patch raises no more of them than the cone leaves outside before it
    // drops the cone from the fresh set, and a later read refreshes only
    // what it reaches (docs/DESIGN.md §4). The label writes per commit
    // fall as the design grows, against the O(V) a full label() pass
    // writes.
    const int threads = std::max(4, static_cast<int>(std::sqrt(static_cast<double>(n)) / 2));
    points.push_back(point{.g = std::move(g), .order = std::move(order), .threads = threads});
  }

  bool deterministic = true;
  for (int rep = 0; rep < reps; ++rep) {
    for (point& p : points) {
      sc::threaded_graph state(p.g, p.threads);
      std::uint64_t relabel_equiv = 0;
      const auto t0 = clock_type::now();
      for (const vertex_id v : p.order) {
        state.schedule(v);
        relabel_equiv += state.scheduled_count() +
                         2 * static_cast<std::uint64_t>(state.thread_count());
      }
      const double ms = millis_since(t0);
      if (rep == 0 || ms < p.ms) p.ms = ms;
      if (rep > 0)
        deterministic = deterministic && state.stats() == p.stats &&
                        state.diameter() == p.diameter &&
                        relabel_equiv == p.full_relabel_equiv;
      p.stats = state.stats();
      p.diameter = state.diameter();
      p.full_relabel_equiv = relabel_equiv;
    }
  }

  j.begin_object();
  j.key("sizes");
  j.begin_array();
  for (const point& p : points) {
    const double commits = static_cast<double>(p.stats.commits ? p.stats.commits : 1);
    j.begin_object();
    j.member("vertices", p.g.vertex_count());
    j.member("edges", p.g.edge_count());
    j.member("threads", p.threads);
    j.member("reps", reps);
    j.member("wall_ms", p.ms);
    j.member("ops_per_sec",
             p.ms > 0 ? static_cast<double>(p.g.vertex_count()) / (p.ms / 1e3) : 0.0);
    j.member("diameter", p.diameter);
    j.member("nodes_relabeled", p.stats.nodes_relabeled);
    j.member("full_relabel_equiv", p.full_relabel_equiv);
    j.member("avg_relabeled_per_commit",
             static_cast<double>(p.stats.nodes_relabeled) / commits);
    j.member("avg_state_size_per_commit",
             static_cast<double>(p.full_relabel_equiv) / commits);
    j.key("stats");
    write_stats(j, p.stats);
    j.end_object();
  }
  j.end_array();
  const point& small = points[points.size() - 2];
  const point& large = points.back();
  const double exponent =
      std::log(large.ms / small.ms) /
      std::log(static_cast<double>(large.g.vertex_count()) /
               static_cast<double>(small.g.vertex_count()));
  j.member("scaling_exponent", exponent);
  j.member("relabel_per_commit",
           static_cast<double>(large.stats.nodes_relabeled) /
               static_cast<double>(large.stats.commits ? large.stats.commits : 1));
  return sb::end_block(j, {{"deterministic", deterministic},
                           {"exponent_measured", std::isfinite(exponent)}});
}

// -- scenario 3a: generic refinement storm ---------------------------------

struct storm_result {
  double wall_ms = 0;
  long long diameter = 0;
  std::size_t scheduled = 0;
  sc::schedule_stats stats;
};

/// One storm run over the generic core: random reach-preserving rewires
/// (spill/wire-shaped) and ECO vertex additions against a live schedule.
/// Fully deterministic from `seed`, so the incremental and from-scratch
/// runs see the identical mutation sequence.
storm_result run_generic_storm(int base_vertices, int steps, std::uint64_t seed,
                               bool incremental) {
  rng rand(seed);
  // Dense dependences (p = 0.7): the shape that makes closure rebuilds
  // (O(V*E/64) per change) the baseline's cost.
  sg::precedence_graph g =
      sg::layered_random(sg::layered_for_size(base_vertices, 0.7, 50), rand);

  sc::threaded_graph state(g, 4);
  state.set_incremental(incremental);
  state.schedule_all(sm::meta_schedule(g, sm::meta_kind::topological));
  state.reset_stats();

  // Random vertex that still produces something (bounded retries keep the
  // storm deterministic and allocation-free).
  const auto pick_producer = [&]() -> vertex_id {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const vertex_id u(static_cast<std::uint32_t>(rand.below(g.vertex_count())));
      if (!g.succs(u).empty()) return u;
    }
    return vertex_id::invalid();
  };

  storm_result out;
  std::vector<vertex_id> consumers; // reused across steps
  const auto t0 = clock_type::now();
  for (int step = 0; step < steps; ++step) {
    int action = static_cast<int>(rand.below(3));
    vertex_id u = vertex_id::invalid();
    if (action != 2) {
      u = pick_producer();
      if (!u.valid()) action = 2;
    }
    if (action == 0) {
      // Wire/move-shaped rewire: u -> v becomes u -> w -> v.
      const auto succs = g.succs(u);
      const vertex_id v = succs[static_cast<std::size_t>(rand.below(succs.size()))];
      g.remove_edge_reach_preserved(u, v);
      const vertex_id w = g.add_vertex(1 + static_cast<int>(rand.below(3)));
      g.add_edge(u, w);
      g.add_edge(w, v);
      state.schedule(w);
    } else if (action == 1) {
      // Spill-shaped rewire: producer u gets a store; each rewired
      // consumer gets its own load.
      const auto succs = g.succs(u);
      consumers.assign(succs.begin(), succs.end());
      if (consumers.size() > 3) consumers.resize(3);
      const vertex_id st = g.add_vertex(1);
      g.add_edge(u, st);
      for (const vertex_id c : consumers) {
        g.remove_edge_reach_preserved(u, c);
        const vertex_id ld = g.add_vertex(1);
        g.add_edge(st, ld);
        g.add_edge(ld, c);
      }
      state.schedule(st);
      for (const vertex_id v : g.succs(st)) state.schedule(v);
    } else {
      // ECO: a new op consuming up to three random existing values.
      const vertex_id eco = g.add_vertex(1);
      const int fanin = 1 + static_cast<int>(rand.below(3));
      for (int i = 0; i < fanin; ++i) {
        const vertex_id src(
            static_cast<std::uint32_t>(rand.below(g.vertex_count() - 1)));
        if (src != eco) g.add_edge(src, eco);
      }
      state.schedule(eco);
    }
    out.diameter = state.diameter(); // consume labels every step, as the
                                     // refinement_report bookkeeping does
  }
  out.wall_ms = millis_since(t0);
  out.scheduled = state.scheduled_count();
  out.stats = state.stats();
  return out;
}

// -- scenario 3b: HLS refinement storm (DFG + resource binding) ------------

storm_result run_hls_storm(int taps, int steps, std::uint64_t seed, bool incremental) {
  const si::resource_library lib;
  si::dfg d = si::make_fir(lib, taps);
  rng rand(seed);
  const si::resource_set rs{3, 3, 2};

  sc::threaded_graph state = sc::make_hls_state(d, rs);
  state.set_incremental(incremental);
  state.schedule_all(sm::meta_schedule(d.graph(), sm::meta_kind::list_priority));
  state.reset_stats();

  const auto pick_edge = [&](std::pair<vertex_id, vertex_id>& out_edge) {
    std::vector<std::pair<vertex_id, vertex_id>> edges;
    for (const vertex_id v : d.graph().vertices()) {
      if (d.kind(v) == si::op_kind::wire) continue;
      for (const vertex_id s : d.graph().succs(v)) {
        if (d.kind(s) == si::op_kind::wire) continue;
        edges.emplace_back(v, s);
      }
    }
    if (edges.empty()) return false;
    out_edge = edges[static_cast<std::size_t>(rand.below(edges.size()))];
    return true;
  };

  // Only the refinement applications (DFG rewire + online scheduling +
  // diameter bookkeeping) are timed; the O(V+E) candidate scans above are
  // harness driver cost identical in both modes and would dilute the
  // recorded speedup.
  storm_result out;
  for (int step = 0; step < steps; ++step) {
    const int action = static_cast<int>(rand.below(4));
    std::pair<vertex_id, vertex_id> e;
    switch (action) {
    case 0: { // spill a random spillable value
      std::vector<vertex_id> candidates;
      for (const vertex_id v : d.graph().vertices()) {
        if (d.kind(v) == si::op_kind::store || d.kind(v) == si::op_kind::wire) continue;
        if (d.graph().succs(v).empty()) continue;
        candidates.push_back(v);
      }
      if (candidates.empty()) break;
      const vertex_id victim =
          candidates[static_cast<std::size_t>(rand.below(candidates.size()))];
      const auto t0 = clock_type::now();
      sf::apply_spill(d, state, victim);
      out.wall_ms += millis_since(t0);
      break;
    }
    case 1:
      if (pick_edge(e)) {
        const int delay = 1 + static_cast<int>(rand.below(3));
        const auto t0 = clock_type::now();
        sf::apply_wire_delay(d, state, e.first, e.second, delay);
        out.wall_ms += millis_since(t0);
      }
      break;
    case 2:
      if (pick_edge(e)) {
        const auto t0 = clock_type::now();
        sf::apply_register_move(d, state, e.first, e.second);
        out.wall_ms += millis_since(t0);
      }
      break;
    default: {
      const vertex_id a(static_cast<std::uint32_t>(rand.below(d.graph().vertex_count())));
      const vertex_id b(static_cast<std::uint32_t>(rand.below(d.graph().vertex_count())));
      std::vector<vertex_id> ins{a};
      if (b != a) ins.push_back(b);
      const auto t0 = clock_type::now();
      state.schedule(d.add_op(si::op_kind::add, std::span<const vertex_id>(ins),
                              std::string("eco") += std::to_string(step)));
      out.wall_ms += millis_since(t0);
      break;
    }
    }
    const auto t0 = clock_type::now();
    out.diameter = state.diameter();
    out.wall_ms += millis_since(t0);
  }
  out.scheduled = state.scheduled_count();
  out.stats = state.stats();
  return out;
}

template <typename RunFn>
sb::checks write_storm(json_writer& j, RunFn run) {
  // Best of two interleaved reps per mode: wall-clock noise shows up as a
  // one-sided slowdown, so the min is the stable estimator.
  storm_result incremental = run(true);
  storm_result baseline = run(false);
  const storm_result inc2 = run(true);
  const storm_result base2 = run(false);
  const bool consistent = incremental.diameter == baseline.diameter &&
                          incremental.scheduled == baseline.scheduled &&
                          inc2.diameter == incremental.diameter &&
                          base2.diameter == baseline.diameter;
  incremental.wall_ms = std::min(incremental.wall_ms, inc2.wall_ms);
  baseline.wall_ms = std::min(baseline.wall_ms, base2.wall_ms);
  j.begin_object();
  j.member("final_scheduled_ops", incremental.scheduled);
  j.member("final_diameter", incremental.diameter);
  j.member("incremental_ms", incremental.wall_ms);
  j.member("from_scratch_ms", baseline.wall_ms);
  const double speedup =
      incremental.wall_ms > 0 ? baseline.wall_ms / incremental.wall_ms : 0.0;
  j.member("speedup", speedup);
  j.key("incremental_stats");
  write_stats(j, incremental.stats);
  j.key("from_scratch_stats");
  write_stats(j, baseline.stats);
  // The incremental run must not fall back to rebuilding the closure per
  // change (a single rebuild is tolerated).
  return sb::end_block(
      j, {{"modes_agree", consistent},
          {"speedup_positive", speedup > 0},
          {"incremental_rebuilds_ok", incremental.stats.closure_rebuilds <= 1}});
}

/// A metric ci/bench_gate.py compares with the same path in the committed
/// baseline: higher-is-better fails below baseline / tolerance,
/// lower-is-better above max(baseline, floor) * tolerance.
struct gated_metric {
  const char* path; ///< dotted, below the block's key
  const char* better;
  double tolerance;
  double floor;
};

gated_metric higher(const char* path) { return {path, "higher", 2.0, 0.0}; }
gated_metric lower(const char* path, double tolerance, double floor) {
  return {path, "lower", tolerance, floor};
}

/// One scenario block of the document: its key under "scenarios", the
/// progress line, the writer (returning the block's checks) and the
/// block's gated metrics.
struct block {
  const char* name;
  const char* what;
  std::function<sb::checks(json_writer&)> write;
  std::vector<gated_metric> gated = {};
};

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_softsched.json";
  std::uint64_t seed = 20260729;
  std::set<std::string> only;
  sb::load_options lopt;
  const auto usage = [] {
    std::cerr << "usage: perf_harness [--quick] [--out PATH] [--seed N] "
                 "[--only BLOCK[,BLOCK...]] [--retry] [--cache-dir DIR]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--retry") {
      lopt.retry = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      lopt.cache_dir = argv[++i];
    } else if (arg == "--only" && i + 1 < argc) {
      const std::string list = argv[++i];
      for (std::size_t from = 0; from <= list.size();) {
        const std::size_t comma = std::min(list.find(',', from), list.size());
        only.insert(list.substr(from, comma - from));
        from = comma + 1;
      }
    } else {
      return usage();
    }
  }

  const std::vector<block> blocks = {
      {"paper_benchmarks", "paper benchmarks",
       [&](json_writer& j) { return run_paper_benchmarks(j, quick); }},
      // The sweep's log-log slope between its two largest sizes: a fixed
      // limit of 2.2, between the O(V^2) sweep of per-thread cuts (about
      // 1.95) and the O(V^2.5) one of a per-select cone walk (about 2.5).
      // Label writes per commit at 10k: the fresh-suffix patch writes about
      // 7, the eager one that raised every dirty sink distance 151.5, past
      // the floor's limit of 40.
      {"random_dag_sweep", "random DAG sweep",
       [&](json_writer& j) { return run_random_dag_sweep(j, quick, seed); },
       {lower("scaling_exponent", 1, 2.2), lower("relabel_per_commit", 2, 20)}},
      {"refinement_storm", "refinement storm (generic core)",
       [&](json_writer& j) {
         return write_storm(j, [&](bool inc) {
           return run_generic_storm(quick ? 1000 : 2500, quick ? 120 : 400, seed, inc);
         });
       },
       {higher("speedup")}},
      {"hls_refinement_storm", "refinement storm (HLS binding)",
       [&](json_writer& j) {
         return write_storm(j, [&](bool inc) {
           return run_hls_storm(quick ? 16 : 32, quick ? 40 : 120, seed, inc);
         });
       }},
      // The scenario blocks below run the same fixed workload in quick and
      // full mode, so the CI regression gate always compares like against
      // like.
      {"dse", "design-space exploration",
       [&](json_writer& j) { return sb::write_dse_scenario(j, seed); },
       {higher("points_per_sec_multi")}},
      // Cold/hot zipf request mix as --serve-batch sessions.
      {"serve", "batch scheduling service",
       [&](json_writer& j) { return sb::write_serve_scenario(j, seed); },
       {higher("requests_per_sec_hot"), higher("hit_rate")}},
      // Open-loop overload replay against the resident service:
      // sustainable-rate calibration, then 2x replay. The floors keep
      // scheduler jitter on sub-ms tails and small drop rates from reading
      // as regressions.
      {"load", "resident service overload replay",
       [&](json_writer& j) { return sb::write_load_scenario(j, seed, lopt); },
       {lower("p99_ms", 4, 1), lower("drop_rate", 2, 0.1)}},
      // The same overload replay over real unix-socket connections with
      // connection churn. Its p99 includes the kernel socket path and
      // reader wakeups, hence the higher floor.
      {"socket", "multi-client socket overload replay",
       [&](json_writer& j) { return sb::write_socket_scenario(j, seed); },
       {lower("p99_ms", 4, 10), lower("shed_rate", 2, 0.1)}},
      // Two-tier persistent cache: cold-populate a disk tier, warm-restart
      // a fresh service over it, then serve through an injected disk
      // outage. The recovery scan is sub-ms on this mix; the floor keeps a
      // filesystem hiccup from reading as a 4x regression.
      {"persist", "persistent cache warm restart",
       [&](json_writer& j) { return sb::write_persist_scenario(j, seed); },
       {higher("warm_restart_hit_rate"), lower("recovery_scan_ms", 4, 50)}},
      // Fixed benchmark suite under every registered scheduler backend: the
      // head-to-head numbers the paper's comparison story rests on,
      // cross-checked for determinism and legality.
      {"backend", "scheduler backends",
       [&](json_writer& j) { return sb::write_backend_scenario(j); },
       {higher("per_backend.soft.points_per_sec")}},
      // sdc-iter QoR vs runtime on the named-benchmark constraint grid. The
      // summed QoR delta is checked <= 0 in the block; the gate keeps a
      // regenerated baseline from drifting positive.
      {"iter", "iterative scheduling",
       [&](json_writer& j) { return sb::write_iter_scenario(j); },
       {higher("points_per_sec"), lower("qor_delta_vs_soft", 1, 0)}},
      // Warmed arena context vs the heap baseline under instrumented
      // allocation counters. Allocations per design are deterministic, so
      // a doubling means a per-run heap allocation came back; the floor
      // keeps a fully silent arena from making any count look infinite.
      {"memory", "memory micro-profile",
       [&](json_writer& j) { return sb::write_memory_scenario(j); },
       {higher("alloc_ratio"), lower("arena.allocations_per_design", 2, 4)}},
  };
  for (const std::string& name : only) {
    const bool known = std::any_of(blocks.begin(), blocks.end(),
                                   [&](const block& b) { return name == b.name; });
    if (!known) {
      std::cerr << "perf_harness: unknown block '" << name << "'\n";
      return usage();
    }
  }
  const auto selected = [&](const block& b) { return only.empty() || only.count(b.name) > 0; };

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }

  json_writer j(out);
  j.begin_object();
  j.member("schema", "softsched-bench-v2");
  j.member("quick", quick);
  j.member("seed", seed);
  j.key("gated");
  j.begin_object();
  for (const block& b : blocks) {
    if (!selected(b)) continue;
    for (const gated_metric& g : b.gated) {
      j.key(std::string(b.name) + "." + g.path);
      j.begin_object();
      j.member("better", g.better);
      j.member("tolerance", g.tolerance);
      j.member("floor", g.floor);
      j.end_object();
    }
  }
  j.end_object(); // gated
  j.key("scenarios");
  j.begin_object();
  std::vector<std::string> failed;
  for (const block& b : blocks) {
    if (!selected(b)) continue;
    std::cerr << "perf_harness: " << b.what << "...\n";
    j.key(b.name);
    for (const auto& [check, ok] : b.write(j))
      if (!ok) failed.push_back(std::string(b.name) + "." + check);
  }
  j.end_object(); // scenarios
  j.end_object(); // root
  out << '\n';
  if (!j.done() || !out) {
    std::cerr << "failed to emit well-formed JSON to " << out_path << "\n";
    return 1;
  }
  std::cerr << "perf_harness: wrote " << out_path << "\n";
  for (const std::string& f : failed) std::cerr << "perf_harness: check failed: " << f << "\n";
  return failed.empty() ? 0 : 1;
}
