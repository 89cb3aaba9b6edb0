// refine_eco - live refinement of soft schedules, in process, one thread.
// Each session takes a freshly scheduled base design and applies a seeded
// sequence of register-allocation, floorplanning and ECO refinements to it,
// reading the diameter after each: the same kernel as kernel_large, with
// writes beside the reads (incremental closure sync, dirty-region relabel,
// wire-thread growth).
//
// A run replays the same sessions in every round, each time on freshly
// built bases, so every refinement repeats once per round, spread over the
// whole run, and is timed by its best latency (add_best_timings).
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common.h"
#include "core/hls_binding.h"
#include "hard/schedule.h"
#include "inputs.h"
#include "ir/benchmarks.h"
#include "meta/meta_schedule.h"
#include "refine/refinement.h"
#include "workloads.h"

namespace softbench {

namespace sc = softsched::core;
namespace si = softsched::ir;
namespace sr = softsched::refine;
using softsched::graph::vertex_id;

namespace {

constexpr int refinements_per_session = 40;
/// The sessions every round builds, refines and drops: each round replays
/// them, which bounds memory and repeats the set-up many times per run.
constexpr int sessions_per_round = 100;
constexpr int refinements_per_round = sessions_per_round * refinements_per_session;
/// Rounds per second of --seconds (see kernel_large's passes_per_second).
constexpr double rounds_per_second = 2.7;
constexpr double tail_p = 99;
const si::resource_set allocation{3, 2, 2};

struct session {
  std::unique_ptr<si::dfg> design; // heap-pinned: the state points into its graph
  std::optional<sc::threaded_graph> state;
  int base_threads = 0;
};

/// Base design of session s: FIR64, IIR16, seeded random 300- and 700-op
/// designs in turn.
std::unique_ptr<si::dfg> base_design(const si::resource_library& library,
                                     std::uint64_t seed, int s) {
  switch (s % 4) {
  case 0: return std::make_unique<si::dfg>(si::make_fir(library, 64));
  case 1: return std::make_unique<si::dfg>(si::make_iir_cascade(library, 16));
  case 2:
    return std::make_unique<si::dfg>(
        random_design(library, 300, 0.25, derive_seed(seed, 1000 + s)));
  default:
    return std::make_unique<si::dfg>(
        random_design(library, 700, 0.25, derive_seed(seed, 1000 + s)));
  }
}

/// Builds and schedules one session's base, with spans when traced.
session make_session(const si::resource_library& library, std::uint64_t seed, int s,
                     span_buffer* spans) {
  session out;
  out.design = base_design(library, seed, s);
  const auto owner = static_cast<std::uint32_t>(s);
  const std::vector<vertex_id> order = timed(spans, span_kind::meta_order, owner, [&] {
    return softsched::meta::meta_schedule(out.design->graph(),
                                          softsched::meta::meta_kind::list_priority);
  });
  timed(spans, span_kind::core_build, owner,
        [&] { out.state.emplace(sc::make_hls_state(*out.design, allocation)); });
  timed(spans, span_kind::core_schedule, owner, [&] { out.state->schedule_all(order); });
  out.state->reset_stats(); // counters below cover the refinements only
  out.base_threads = out.state->thread_count();
  return out;
}

/// Sessions 0 .. sessions_per_round - 1, on fresh bases.
std::vector<session> make_sessions(const si::resource_library& library, std::uint64_t seed,
                                   span_buffer* spans) {
  std::vector<session> sessions;
  sessions.reserve(sessions_per_round);
  for (int s = 0; s < sessions_per_round; ++s)
    sessions.push_back(make_session(library, seed, s, spans));
  return sessions;
}

/// A random operation that produces a consumed value (bounded retries keep
/// the sequence deterministic); invalid when none was found.
vertex_id pick_producer(const si::dfg& d, softsched::rng& rand, bool spillable) {
  const auto& g = d.graph();
  for (int attempt = 0; attempt < 16; ++attempt) {
    const vertex_id v(static_cast<std::uint32_t>(rand.below(g.vertex_count())));
    if (g.succs(v).empty()) continue;
    if (spillable && d.kind(v) == si::op_kind::store) continue;
    return v;
  }
  return vertex_id::invalid();
}

struct session_outcome {
  long long diameter = 0;
  sc::schedule_stats stats;
};

struct refine_totals {
  /// Per refinement (session * refinements_per_session + step): its best
  /// latency over the rounds, infinite until it succeeds once.
  std::vector<double> best_ms =
      std::vector<double>(refinements_per_round, std::numeric_limits<double>::infinity());
  double busy_ms = 0;
  double validate_ms = 0;
  std::uint64_t count[4] = {};
  std::uint64_t ops_inserted = 0;
  layer_counters counters;
};

/// Applies the session's seeded refinement sequence, each followed by
/// diameter(). With `check` set, then checks the result (invariants +
/// legality, untimed); a replay need not, as it must end where the checked
/// run did.
session_outcome refine_session(session& sn, std::uint64_t seed, int s, bool check,
                               refine_totals& totals, run_result& out, span_buffer* spans) {
  softsched::rng rand(derive_seed(seed, 5000 + s));
  si::dfg& d = *sn.design;
  sc::threaded_graph& state = *sn.state;
  const auto owner = static_cast<std::uint32_t>(s);
  static constexpr span_kind kinds[] = {span_kind::refine_spill, span_kind::refine_wire,
                                        span_kind::refine_move, span_kind::refine_eco};
  for (int step = 0; step < refinements_per_session; ++step) {
    int action = static_cast<int>(rand.below(4));
    vertex_id u = vertex_id::invalid();
    vertex_id v = vertex_id::invalid();
    if (action != 3) {
      u = pick_producer(d, rand, action == 0);
      if (!u.valid()) {
        action = 3;
      } else if (action != 0) {
        const auto succs = d.graph().succs(u);
        v = succs[static_cast<std::size_t>(rand.below(succs.size()))];
      }
    }
    const int delay = 1 + static_cast<int>(rand.below(3));
    const auto eco_kind = static_cast<si::op_kind>(rand.below(3)); // add, sub, mul
    std::vector<vertex_id> inputs;
    if (action == 3) {
      const int fanin = 1 + static_cast<int>(rand.below(3));
      for (int i = 0; i < fanin; ++i) {
        const vertex_id in(static_cast<std::uint32_t>(rand.below(d.op_count())));
        if (std::find(inputs.begin(), inputs.end(), in) == inputs.end()) inputs.push_back(in);
      }
    }

    ++out.attempted;
    try {
      const auto t0 = clock_type::now();
      std::size_t inserted = 1;
      timed(spans, kinds[action], owner, [&] {
        switch (action) {
        case 0: inserted = sr::apply_spill(d, state, u).ops_inserted; break;
        case 1: inserted = sr::apply_wire_delay(d, state, u, v, delay).ops_inserted; break;
        case 2: inserted = sr::apply_register_move(d, state, u, v).ops_inserted; break;
        default:
          state.schedule(d.add_op(eco_kind, std::span<const vertex_id>(inputs),
                                  "eco" + std::to_string(step)));
          break;
        }
      });
      const long long diameter =
          timed(spans, span_kind::refine_diameter, owner, [&] { return state.diameter(); });
      const double ms = ms_between(t0, clock_type::now());
      double& best = totals.best_ms[static_cast<std::size_t>(s * refinements_per_session + step)];
      best = std::min(best, ms);
      totals.busy_ms += ms;
      ++totals.count[action];
      totals.ops_inserted += inserted;
      if (diameter <= 0) out.fail("session " + std::to_string(s) + ": empty diameter");
    } catch (const std::exception& e) {
      out.fail("session " + std::to_string(s) + " step " + std::to_string(step) + ": " +
               e.what());
    }
  }

  session_outcome result;
  const auto v0 = clock_type::now();
  try {
    result.diameter = state.diameter();
    if (check) {
      state.check_invariants();
      softsched::hard::schedule hs;
      hs.makespan = result.diameter;
      hs.start = state.asap_start_times();
      for (const vertex_id w : d.graph().vertices()) hs.unit.push_back(state.thread_of(w));
      const std::vector<std::string> violations =
          softsched::hard::validate_schedule(d, hs, &allocation);
      if (!violations.empty())
        out.fail("session " + std::to_string(s) + ": " + violations.front());
      totals.validate_ms += ms_between(v0, clock_type::now());
    }
  } catch (const std::exception& e) {
    out.fail("session " + std::to_string(s) + ": " + e.what());
  }
  result.stats = state.stats();
  totals.counters.add(result.stats);
  totals.counters.threads_added +=
      static_cast<std::uint64_t>(state.thread_count() - sn.base_threads);
  return result;
}

} // namespace

run_result run_refine_eco(const run_args& args) {
  run_result out;
  const si::resource_library library;
  const int rounds = std::max(2, static_cast<int>(args.seconds * rounds_per_second + 0.5));

  if (!args.trace) {
    // Each round, on the next CPU, builds and schedules the sessions' bases
    // (the set-up, timed), then refines them (the measured phase); the
    // median round set-up is reported. The first round checks every
    // session; every replay must end with its diameter and kernel counters.
    refine_totals totals;
    std::vector<double> setup_s;
    std::vector<session_outcome> first;
    long long states_total = 0;
    cpu_rotation cpus;
    for (int round = 0; round < rounds; ++round) {
      if (round > 0) cpus.step();
      const auto t0 = clock_type::now();
      std::vector<session> sessions = make_sessions(library, args.seed, nullptr);
      setup_s.push_back(ms_between(t0, clock_type::now()) / 1e3);
      for (int s = 0; s < sessions_per_round; ++s) {
        const session_outcome r = refine_session(sessions[static_cast<std::size_t>(s)],
                                                 args.seed, s, round == 0, totals, out, nullptr);
        if (round == 0) {
          first.push_back(r);
          states_total += r.diameter;
        } else if (r.diameter != first[static_cast<std::size_t>(s)].diameter ||
                   !(r.stats == first[static_cast<std::size_t>(s)].stats)) {
          out.fail("session " + std::to_string(s) + ": replay differs from its first run");
        }
      }
    }
    std::vector<double> best_ms;
    for (const double ms : totals.best_ms)
      if (std::isfinite(ms)) best_ms.push_back(ms);
    const auto refinements = static_cast<double>(best_ms.size());
    add_best_timings(out, std::move(best_ms), refinements, tail_p);
    out.add("states_total", static_cast<double>(states_total), "states");
    out.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    out.add("setup_s", median(setup_s), "s");
    return out;
  }

  // -- traced run: a quarter of the rounds untraced, then every round
  //    traced (bases built with spans too); every session must end as its
  //    checked first untraced run did ----------------------------------------
  const int untraced_rounds = std::max(1, rounds / 4);
  refine_totals plain_totals;
  std::vector<session_outcome> reference;
  for (int round = 0; round < untraced_rounds; ++round) {
    std::vector<session> sessions = make_sessions(library, args.seed, nullptr);
    for (int s = 0; s < sessions_per_round; ++s) {
      const session_outcome r = refine_session(sessions[static_cast<std::size_t>(s)], args.seed,
                                               s, round == 0, plain_totals, out, nullptr);
      if (round == 0) reference.push_back(r);
      else if (r.diameter != reference[static_cast<std::size_t>(s)].diameter ||
               !(r.stats == reference[static_cast<std::size_t>(s)].stats))
        out.fail("session " + std::to_string(s) + ": replay differs from its first run");
    }
  }

  span_buffer spans(static_cast<std::size_t>(rounds) * sessions_per_round *
                    (2 * refinements_per_session + 3));
  refine_totals totals;
  double traced_first_ms = 0;
  long long states_total = 0;
  for (int round = 0; round < rounds; ++round) {
    std::vector<session> sessions = make_sessions(library, args.seed, &spans);
    for (int s = 0; s < sessions_per_round; ++s) {
      const session_outcome r = refine_session(sessions[static_cast<std::size_t>(s)], args.seed,
                                               s, round == 0, totals, out, &spans);
      const session_outcome& ref = reference[static_cast<std::size_t>(s)];
      if (r.diameter != ref.diameter || !(r.stats == ref.stats))
        out.fail("session " + std::to_string(s) + ": traced run differs from untraced");
      if (round == 0) states_total += r.diameter;
    }
    if (round + 1 == untraced_rounds) traced_first_ms = totals.busy_ms;
  }
  spans.write_csv(args.work_dir + "/trace-refine_eco.csv");

  double attributed_ms = 0;
  for (const span_kind k : {span_kind::refine_spill, span_kind::refine_wire,
                            span_kind::refine_move, span_kind::refine_eco,
                            span_kind::refine_diameter})
    attributed_ms += spans.total_ms(k);

  add_span_metrics(out, &spans);
  totals.counters.emit(out);
  out.add("refine.spill_n", static_cast<double>(totals.count[0]), "count");
  out.add("refine.wire_n", static_cast<double>(totals.count[1]), "count");
  out.add("refine.move_n", static_cast<double>(totals.count[2]), "count");
  out.add("refine.eco_n", static_cast<double>(totals.count[3]), "count");
  out.add("refine.ops_inserted", static_cast<double>(totals.ops_inserted), "count");
  out.add("hard.validate_ms", totals.validate_ms, "ms");
  out.add("trace.overhead", traced_first_ms / plain_totals.busy_ms - 1, "ratio");
  out.add("trace.unattributed_share", 1 - attributed_ms / totals.busy_ms, "ratio");
  out.add("trace.states_total", static_cast<double>(states_total), "states");
  return out;
}

} // namespace softbench
