// softsched_cli - command-line driver for the whole flow: load a design
// (built-in benchmark, .dfg file, or behavioral .beh source), schedule it
// with any registered scheduler backend through the registry (soft, list,
// fds, sdc-iter - see src/sched/backend.h), optionally refine the live
// state a refinable backend leaves behind, and print tables / Gantt charts
// / DOT.
//
// Examples:
//   softsched_cli --bench ewf --alus 2 --muls 2 --gantt
//   softsched_cli --beh design.beh --backend list
//   softsched_cli --bench hal --meta dfs --spill m1 --stats --dot state.dot
//   softsched_cli --dfg design.dfg --backend fds --latency 20
//   softsched_cli --compare --bench ewf --alus 2 --muls 2
//   softsched_cli --explore --bench ewf --backend all --jobs 8
//   softsched_cli --serve-batch requests.jsonl --out responses.jsonl --jobs 8
#include <charconv>
#include <chrono>
#include <climits>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/state_dot.h"
#include "core/threaded_graph.h"
#include "explore/dse.h"
#include "graph/distances.h"
#include "hard/extract.h"
#include "hard/schedule.h"
#include "ir/benchmarks.h"
#include "ir/dfg_io.h"
#include "lang/parser.h"
#include "meta/meta_schedule.h"
#include "refine/refinement.h"
#include "regalloc/left_edge.h"
#include "sched/backend.h"
#include "serve/daemon.h"
#include "serve/socket.h"
#include "regalloc/lifetime.h"
#include "util/check.h"
#include "util/json.h"
#include "util/table.h"

namespace si = softsched::ir;
namespace sc = softsched::core;
namespace se = softsched::explore;
namespace sg = softsched::graph;
namespace sh = softsched::hard;
namespace sm = softsched::meta;
namespace sl = softsched::lang;
namespace sf = softsched::refine;
namespace ss = softsched::sched;
namespace sv = softsched::serve;

namespace {

/// A malformed command line: main prints it above the usage text and exits 2.
struct usage_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Flag ranges: the serve request schema's where it has one (unit counts,
// iter_budget, mul_latency, seed, random size), otherwise chosen here.
constexpr long long max_units = 1'000'000;
constexpr long long max_jobs = 1024;
constexpr long long max_latency = 1'000'000; // --latency and --wire delays
constexpr long long max_seed = 1LL << 53;

/// One --wire flag: the op names as typed (resolved once the design
/// loads) and the delay, range-checked when the flag is read.
struct wire_flag {
  std::string text; // from:to:delay, for the report line
  std::string from, to;
  int delay = 0;
};

struct options {
  std::string bench;
  std::string dfg_file;
  std::string beh_file;
  std::string backend = "soft"; // registry name, "all", or comma list
  bool compare = false;  // run every registered backend, print the comparison table
  std::string meta = "list"; // as typed; parsed into run_options.meta
  ss::backend_options run_options; // --meta, --latency, --iter-budget
  std::uint64_t seed = 1;
  int alus = 2;
  int muls = 2;
  int mems = 1;
  bool alus_set = false, muls_set = false, mems_set = false;
  std::vector<std::string> spills;
  std::vector<wire_flag> wires;
  std::string live_flag; // last of --spill/--wire/--stats/--dot: needs the live state
  bool gantt = false;
  bool stats = false;
  bool registers = false;
  std::string dot_file;
  // design-space exploration mode
  bool explore = false;
  std::string alus_range, muls_range, mems_range, mul_lat_range; // "lo:hi" or "n"
  std::string iter_budget_range; // sdc-iter budget axis, "lo:hi" or "n"
  std::string explore_out;
  // batch scheduling service mode
  std::string serve_batch; // JSONL request file; "-" = stdin
  std::string out_file;    // JSONL response file; "-"/empty = stdout
  // resident daemon mode: --serve [file|-], transport picked by --listen
  bool serve_mode = false;
  std::string serve = "-"; // framed request stream (stdio transport only)
  sv::listen_spec listen;  // --listen
  // Serving knobs, filled straight from their flags; `service` is both
  // serve modes' (its jobs are --explore's too), `server` the daemon's.
  sv::service_options service;
  sv::socket_server_options server;
};

[[noreturn]] void usage(const char* argv0, const std::string& error = {}) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "input (one of):\n"
      << "  --bench <hal|arf|ewf|fir8|fir<N>|iir<N>|fig1>   built-in benchmark\n"
      << "  --dfg <file>                                    DFG text format\n"
      << "  --beh <file>                                    behavioral source\n"
      << "scheduling:\n"
      << "  --backend <soft|list|fds|sdc-iter|all>          scheduler backend (soft)\n"
      << "  --compare                                       all backends, one table\n"
      << "  --meta <dfs|topo|path|list>                     soft/sdc-iter feed order\n"
      << "  --latency <n>                                   FDS latency budget\n"
      << "  --iter-budget <n>                               sdc-iter refinement budget\n"
      << "                                                  (0 = base run only; default 8)\n"
      << "  --alus/--muls/--mems <n>                        resources (2/2/1)\n"
      << "refinement of the live state (refinable backends: soft):\n"
      << "  --spill <op>                                    spill a value\n"
      << "  --wire <from>:<to>:<delay>                      insert wire delay\n"
      << "design-space exploration (needs --bench; 'random<N>' = random DFG):\n"
      << "  --explore                                       sweep a resource grid\n"
      << "  --backend <name>[,<name>...]|all                per-backend frontiers\n"
      << "  --seed <n>                                      random DFG seed\n"
      << "  --jobs <n>                                      workers (0 = hardware; <= 1024)\n"
      << "  --alus-range/--muls-range/--mems-range <lo:hi>  grid axes (1:4/1:3/1:1)\n"
      << "  --mul-lat-range <lo:hi>                         mul latency axis (2:2)\n"
      << "  --iter-budget-range <lo:hi>                     sdc-iter budget axis (off)\n"
      << "  --explore-out <file>                            JSON report\n"
      << "batch scheduling service (JSONL in -> JSONL out; schema in README):\n"
      << "  --serve-batch <file|->                          request file (- = stdin)\n"
      << "  --out <file|->                                  responses (default stdout)\n"
      << "  --cache-mb <n>                                  schedule cache budget (64)\n"
      << "  --serve-compact                                 omit start/unit arrays\n"
      << "  --cache-dir <dir>                               persistent cache tier\n"
      << "  --disk-cache-mb <n>                             disk tier budget (0 = off)\n"
      << "resident daemon (framed requests in -> framed responses out;\n"
      << "wire protocol in docs/SERVING.md; SOFTSCHED_INJECT enables fault\n"
      << "injection for tests):\n"
      << "  --serve [file|-]                                framed stream (- = stdin)\n"
      << "  --listen <stdio|tcp:HOST:PORT|unix:PATH>        transport (stdio)\n"
      << "  --max-conns <n>                                 open-connection bound (64)\n"
      << "  --serve-queue <n>                               admission capacity; also the\n"
      << "                                                  --serve-batch window (256)\n"
      << "  --serve-ordered                                 input-order responses\n"
      << "persistent cache maintenance (docs/SERVING.md \"Persistence\"):\n"
      << "  cache export --cache-dir <dir> [--out <file|->] ship a warm cache\n"
      << "  cache import --cache-dir <dir> --in <file|->    load a shipped cache\n"
      << "               [--disk-cache-mb <n>]              import budget (1024)\n"
      << "output:\n"
      << "  --gantt  --registers                            any backend\n"
      << "  --stats  --dot <file|->                         live state (soft)\n";
  std::exit(error.empty() ? 0 : 2);
}

// The one integer parser of the command line: an optional '-' and digits,
// nothing else, inside [lo, hi]; anything else is a usage error naming the
// flag.
template <class T = int>
T int_flag(const std::string& flag, const std::string& value, long long lo, long long hi) {
  long long parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc{} || stop != end || parsed < lo || parsed > hi)
    throw usage_error(flag + " must be an integer in " + std::to_string(lo) + ".." +
                      std::to_string(hi) + ", got '" + value + "'");
  return static_cast<T>(parsed);
}

// --cache-mb / --disk-cache-mb: a flag's megabytes as a byte budget.
std::size_t megabytes(int mb) { return static_cast<std::size_t>(mb) << 20; }

// "lo:hi" or a single "n"; keeps `fallback` when the flag was not given.
se::axis_range axis_flag(const std::string& flag, const std::string& spec,
                         se::axis_range fallback, long long lo, long long hi) {
  if (spec.empty()) return fallback;
  const auto bound = [&](const std::string& token) { return int_flag(flag, token, lo, hi); };
  const auto colon = spec.find(':');
  if (colon == std::string::npos) return {bound(spec), bound(spec)};
  return {bound(spec.substr(0, colon)), bound(spec.substr(colon + 1))};
}

// --wire <from>:<to>:<delay>: the shape and the delay range are usage
// errors.
wire_flag parse_wire(const std::string& text) {
  const auto c1 = text.find(':');
  const auto c2 = c1 == std::string::npos ? c1 : text.find(':', c1 + 1);
  if (c2 == std::string::npos)
    throw usage_error("--wire expects from:to:delay, got '" + text + "'");
  return {text, text.substr(0, c1), text.substr(c1 + 1, c2 - c1 - 1),
          int_flag("--wire delay", text.substr(c2 + 1), 1, max_latency)};
}

options parse_args(int argc, char** argv) {
  options opt;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw usage_error(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  auto integer = [&](int& i, long long lo, long long hi) {
    const std::string flag = argv[i];
    return int_flag(flag, need(i), lo, hi);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench") opt.bench = need(i);
    else if (arg == "--dfg") opt.dfg_file = need(i);
    else if (arg == "--beh") opt.beh_file = need(i);
    else if (arg == "--backend") opt.backend = need(i);
    else if (arg == "--compare") opt.compare = true;
    else if (arg == "--meta") {
      opt.meta = need(i);
      try {
        opt.run_options.meta = sm::parse_meta_kind(opt.meta);
      } catch (const softsched::precondition_error& e) {
        throw usage_error("--meta: " + std::string(e.what()));
      }
    }
    else if (arg == "--seed") opt.seed = int_flag<std::uint64_t>(arg, need(i), 0, max_seed);
    else if (arg == "--latency") opt.run_options.fds_latency = integer(i, 1, max_latency);
    else if (arg == "--iter-budget")
      opt.run_options.iter_budget = integer(i, 0, ss::sdc_iter_max_budget);
    else if (arg == "--alus") { opt.alus = integer(i, 0, max_units); opt.alus_set = true; }
    else if (arg == "--muls") { opt.muls = integer(i, 0, max_units); opt.muls_set = true; }
    else if (arg == "--mems") { opt.mems = integer(i, 0, max_units); opt.mems_set = true; }
    else if (arg == "--spill") { opt.spills.push_back(need(i)); opt.live_flag = arg; }
    else if (arg == "--wire") { opt.wires.push_back(parse_wire(need(i))); opt.live_flag = arg; }
    else if (arg == "--explore") opt.explore = true;
    else if (arg == "--jobs") opt.service.jobs = integer(i, 0, max_jobs);
    else if (arg == "--alus-range") opt.alus_range = need(i);
    else if (arg == "--muls-range") opt.muls_range = need(i);
    else if (arg == "--mems-range") opt.mems_range = need(i);
    else if (arg == "--mul-lat-range") opt.mul_lat_range = need(i);
    else if (arg == "--iter-budget-range") opt.iter_budget_range = need(i);
    else if (arg == "--explore-out") opt.explore_out = need(i);
    else if (arg == "--serve-batch") opt.serve_batch = need(i);
    else if (arg == "--serve") {
      // The stream argument is optional: `--serve --listen unix:PATH` has
      // no input file; bare `--serve` reads framed stdin.
      opt.serve_mode = true;
      if (i + 1 < argc) {
        const std::string next = argv[i + 1];
        if (next == "-" || next[0] != '-') opt.serve = argv[++i];
      }
    }
    else if (arg == "--listen") {
      try {
        opt.listen = sv::listen_spec::parse(need(i));
      } catch (const softsched::precondition_error& e) {
        throw usage_error(e.what()); // the message starts "--listen:"
      }
    }
    else if (arg == "--max-conns") opt.server.max_connections = integer(i, 1, INT_MAX);
    else if (arg == "--serve-queue") opt.service.queue_capacity = integer(i, 1, INT_MAX);
    else if (arg == "--serve-ordered") opt.server.connection.ordered = true;
    else if (arg == "--out") opt.out_file = need(i);
    else if (arg == "--cache-mb") opt.service.cache_bytes = megabytes(integer(i, 0, INT_MAX));
    else if (arg == "--cache-dir") opt.service.cache_dir = need(i);
    else if (arg == "--disk-cache-mb")
      opt.service.disk_cache_bytes = megabytes(integer(i, 0, INT_MAX));
    else if (arg == "--serve-compact") opt.service.emit_schedule = false;
    else if (arg == "--gantt") opt.gantt = true;
    else if (arg == "--stats") { opt.stats = true; opt.live_flag = arg; }
    else if (arg == "--registers") opt.registers = true;
    else if (arg == "--dot") { opt.dot_file = need(i); opt.live_flag = arg; }
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else throw usage_error("unknown option " + arg);
  }
  const int inputs = static_cast<int>(!opt.bench.empty()) +
                     static_cast<int>(!opt.dfg_file.empty()) +
                     static_cast<int>(!opt.beh_file.empty());
  const bool socket = opt.listen.kind != sv::listen_spec::transport::stdio;
  if (!opt.serve_batch.empty() && opt.serve_mode)
    throw usage_error("--serve (resident daemon) and --serve-batch (one-shot "
                      "batch) are mutually exclusive");
  if (socket && !opt.serve_mode) throw usage_error("--listen requires --serve");
  if (!opt.serve_batch.empty() || opt.serve_mode) {
    if (inputs != 0)
      throw usage_error("--serve/--serve-batch read designs from their requests, "
                        "not from --bench/--dfg/--beh");
    if (socket && opt.serve != "-")
      throw usage_error("--listen tcp:/unix: serves socket clients; it cannot "
                        "also read a --serve request file");
    opt.service.faults = sv::fault_plan::from_env(); // SOFTSCHED_INJECT (docs/SERVING.md)
  } else if (inputs != 1) {
    throw usage_error("exactly one of --bench/--dfg/--beh is required");
  }
  return opt;
}

si::dfg load_design(const options& opt, const si::resource_library& lib) {
  if (!opt.bench.empty()) return si::make_benchmark(opt.bench, lib);
  if (!opt.dfg_file.empty()) {
    std::ifstream in(opt.dfg_file);
    if (!in) throw softsched::precondition_error("cannot open " + opt.dfg_file);
    return si::read_dfg(in, lib);
  }
  std::ifstream in(opt.beh_file);
  if (!in) throw softsched::precondition_error("cannot open " + opt.beh_file);
  std::ostringstream text;
  text << in.rdbuf();
  return sl::compile_behavior(text.str(), opt.beh_file, lib);
}

// "all", one registry name, or a comma list; every name is resolved before
// anything runs so a typo fails fast.
std::vector<std::string> parse_backend_list(const std::string& spec) {
  if (spec == "all") return ss::backend_names();
  std::vector<std::string> names;
  std::size_t pos = 0;
  for (;;) {
    const auto comma = spec.find(',', pos);
    const std::string name =
        comma == std::string::npos ? spec.substr(pos) : spec.substr(pos, comma - pos);
    (void)ss::get_backend(name);
    names.push_back(name);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return names;
}

// --compare / --backend all: run every registered backend on the design and
// print the soft-vs-list-vs-fds table (the paper's Figure 1/3 comparison,
// on any design and allocation). Every schedule is validated against the
// shared precedence + resource checker, and every backend is run twice so
// nondeterminism shows up here rather than in a cache. Returns nonzero if
// any feasible schedule fails validation.
int run_compare(const options& opt, const si::resource_library& lib,
                const si::dfg& design, const si::resource_set& resources) {
  std::cout << "backend comparison: " << design.name() << ", " << design.op_count()
            << " ops, resources " << resources.label() << "\n";
  softsched::table t;
  t.set_header({"backend", "feasible", "latency", "vs soft", "iters", "bound units",
                "legal"});
  long long soft_latency = -1;
  bool all_legal = true;
  // One context for the whole table: the repeat run below recycles the
  // first run's arena blocks, so comparison mode also witnesses that reuse
  // does not change an outcome.
  ss::run_context ctx;
  const ss::run_request request{design, lib, resources, opt.run_options};
  for (const ss::scheduler_backend* backend : ss::registered_backends()) {
    const ss::backend_outcome outcome = backend->run(request, ctx);
    const ss::backend_outcome repeat = backend->run(request, ctx);
    SOFTSCHED_EXPECT(outcome.same_outcome(repeat),
                     std::string("backend '") + std::string(backend->name()) +
                         "' is nondeterministic across repeat runs");
    if (backend->name() == "soft" && outcome.feasible) soft_latency = outcome.latency;

    std::string legal = "-";
    if (outcome.feasible) {
      const auto violations =
          sh::validate_schedule(design, ss::to_hard_schedule(outcome), &resources);
      legal = violations.empty() ? "yes" : "NO: " + violations.front();
      all_legal = all_legal && violations.empty();
    }
    int bound = 0;
    for (const int u : outcome.unit_of) bound += u >= 0 ? 1 : 0;
    std::string vs_soft = "-";
    if (outcome.feasible && soft_latency >= 0) {
      vs_soft = softsched::cell(outcome.latency - soft_latency);
      if (outcome.latency >= soft_latency) vs_soft.insert(vs_soft.begin(), '+');
    }
    t.add_row({std::string(backend->name()),
               outcome.feasible ? "yes" : "no: " + outcome.infeasible_reason,
               outcome.feasible ? softsched::cell(outcome.latency) + " states" : "-",
               vs_soft,
               backend->caps().iterative ? softsched::cell(outcome.iterations) : "-",
               softsched::cell(bound), legal});
  }
  t.print(std::cout);
  return all_legal ? 0 : 1;
}

int run_explore(const options& opt) {
  SOFTSCHED_EXPECT(!opt.bench.empty(),
                   "--explore needs --bench (a named benchmark or random<N>)");
  se::grid_spec spec;
  if (opt.bench.rfind("random", 0) == 0) {
    spec.design.random_vertices = int_flag("--bench random<N>", opt.bench.substr(6), 1, 200'000);
    spec.design.seed = opt.seed;
  } else {
    spec.design.bench = opt.bench;
  }
  // A plain --alus/--muls/--mems pins that axis to a single value (so the
  // normal-mode flags keep meaning something under --explore); the *-range
  // flags override.
  if (opt.alus_set) spec.alus = {opt.alus, opt.alus};
  if (opt.muls_set) spec.muls = {opt.muls, opt.muls};
  if (opt.mems_set) spec.mems = {opt.mems, opt.mems};
  spec.alus = axis_flag("--alus-range", opt.alus_range, spec.alus, 0, max_units);
  spec.muls = axis_flag("--muls-range", opt.muls_range, spec.muls, 0, max_units);
  spec.mems = axis_flag("--mems-range", opt.mems_range, spec.mems, 0, max_units);
  spec.mul_latency =
      axis_flag("--mul-lat-range", opt.mul_lat_range, spec.mul_latency, 1, 64);
  spec.iter_budget = axis_flag("--iter-budget-range", opt.iter_budget_range,
                               spec.iter_budget, 0, ss::sdc_iter_max_budget);

  se::exploration_options eopt;
  eopt.jobs = opt.service.jobs;
  eopt.meta = opt.run_options.meta;
  eopt.backends = parse_backend_list(opt.backend);
  eopt.iter_budget = opt.run_options.iter_budget;

  const se::exploration_result result = se::run_exploration(spec, eopt);
  std::cout << "design-space exploration: " << spec.design.name() << ", "
            << result.points.size() << " points (alus " << spec.alus.lo << ":"
            << spec.alus.hi << " x muls " << spec.muls.lo << ":" << spec.muls.hi
            << " x mems " << spec.mems.lo << ":" << spec.mems.hi << " x mul_lat "
            << spec.mul_latency.lo << ":" << spec.mul_latency.hi << " x "
            << result.backends.size() << " backends), " << result.jobs << " jobs\n";
  std::cout << "  feasible " << result.feasible_count() << "/" << result.points.size()
            << ", " << result.wall_ms << " ms, " << result.points_per_sec()
            << " points/sec\n";
  for (std::size_t b = 0; b < result.frontiers.size(); ++b) {
    std::cout << "pareto frontier [" << result.backends[b]
              << "] (area / latency / allocation / mul latency):\n";
    for (const int i : result.frontiers[b]) {
      const se::point_result& p = result.points[static_cast<std::size_t>(i)];
      std::cout << "  area " << p.area << "  latency " << p.latency << " states  "
                << p.point.resources.label() << "  mul_lat " << p.point.mul_latency
                << "\n";
    }
  }

  if (!opt.explore_out.empty()) {
    std::ofstream out(opt.explore_out);
    if (!out) throw softsched::precondition_error("cannot open " + opt.explore_out);
    softsched::json_writer j(out);
    se::write_report(j, spec, result);
    out << '\n';
    if (!j.done() || !out)
      throw softsched::precondition_error("failed to write " + opt.explore_out);
    std::cout << "wrote " << opt.explore_out << "\n";
  }
  return 0;
}

// One stable stderr line for the persistent tier, shared by both serve
// modes (and grepped by CI and the docs/SERVING.md warm-restart example).
void report_disk_tier(const sv::service_stats& s) {
  if (!s.disk_enabled) return;
  const sv::disk_cache_counters& d = s.disk;
  std::cerr << "serve: disk tier: " << d.hits << " disk hits, " << d.misses
            << " disk misses, " << d.writes << " writes, " << d.flushed << " flushed, "
            << d.evictions << " evictions, " << d.corrupt_dropped << " corrupt dropped, "
            << d.io_errors << " io errors; recovered " << d.recovered_entries
            << " entries in " << d.recovery_scan_ms << " ms; " << d.entries << " entries, "
            << d.bytes << " bytes" << (d.degraded ? "; DEGRADED (RAM-only)" : "") << "\n";
}

// A "<file|->" argument: "-" or empty selects `standard` (stdin/stdout),
// anything else opens `file`, which the caller owns.
template <class File, class Standard>
Standard& file_or_std(const std::string& spec, File& file, Standard& standard) {
  if (spec.empty() || spec == "-") return standard;
  file.open(spec, std::ios::binary);
  if (!file) throw softsched::precondition_error("cannot open " + spec);
  return file;
}

// Batch scheduling service: JSONL requests -> JSONL responses, one ordered
// session of the service; cache and dedup summary on stderr (stdout stays
// machine-readable).
int run_serve(const options& opt) {
  std::ifstream in_file;
  std::istream& in = file_or_std(opt.serve_batch, in_file, std::cin);
  std::ofstream out_file;
  std::ostream& out = file_or_std(opt.out_file, out_file, std::cout);

  sv::service svc(opt.service);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t rejected = 0; // over-long lines, answered without reaching svc
  const std::uint64_t requests = sv::serve_batch(in, out, svc, &rejected);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  // Flush before checking: a write failure (disk full) surfacing only at
  // close must not exit 0 with a truncated response file.
  out.flush();
  if (!out) throw softsched::precondition_error("failed to write responses");

  svc.drain();            // settle the counters behind the last callback
  (void)svc.flush_disk(); // report settled disk counters, not a mid-flush snapshot
  const sv::service_stats s = svc.stats();
  const sv::cache_counters cc = svc.cache().counters();
  std::cerr << "serve: " << requests << " requests on " << svc.jobs() << " jobs: "
            << s.computed << " scheduled, " << s.cache_hits << " cache hits, " << s.deduped
            << " deduped, " << s.errors + rejected << " errors (hit rate " << s.hit_rate
            << ")\n";
  std::cerr << "serve: " << wall_ms << " ms, "
            << (wall_ms > 0 ? static_cast<double>(requests) / (wall_ms / 1e3) : 0.0)
            << " requests/sec; cache " << cc.entries << " entries, " << cc.bytes
            << " bytes, " << cc.evictions << " evictions\n";
  report_disk_tier(s);
  return 0;
}

// Resident daemon: framed requests -> framed responses (docs/SERVING.md),
// session summary on stderr. Every transport is a listener served by one
// accept loop: stdio is one connection over the --serve input and --out
// streams, tcp/unix accept clients until one sends {"op":"shutdown"}. A
// transport error closes its connection only; on stdio that connection is
// the session, so it also fails the run.
int serve_daemon(const options& opt) {
  std::ifstream in_file;
  std::ofstream out_file;
  std::ostream* out = nullptr; // stdio only: the response stream
  std::unique_ptr<sv::listener> accept_from;
  if (opt.listen.kind == sv::listen_spec::transport::stdio) {
    std::istream& in = file_or_std(opt.serve, in_file, std::cin);
    out = &file_or_std(opt.out_file, out_file, std::cout);
    accept_from = std::make_unique<sv::iostream_listener>(in, *out);
  } else {
    accept_from = sv::make_listener(opt.listen);
    // The one line scripts wait for (and scrape the ephemeral port from).
    std::cerr << "daemon: listening on " << accept_from->address() << "\n" << std::flush;
  }

  sv::service svc(opt.service);
  sv::socket_server server(*accept_from, svc, opt.server);
  const sv::socket_server_summary summary = server.run();
  svc.drain();
  (void)svc.flush_disk();
  if (out != nullptr) {
    out->flush();
    if (!*out) throw softsched::precondition_error("failed to write responses");
  }
  const bool failed = out != nullptr && summary.conns.transport_errors > 0;
  const sv::service_stats s = svc.stats();
  const sv::connection_counters_snapshot& c = summary.conns;
  std::cerr << "daemon: " << summary.requests << " requests (" << s.admitted << " admitted, "
            << s.overloaded << " shed), " << s.computed << " scheduled, " << s.cache_hits
            << " cache hits, " << s.deduped << " deduped, " << s.errors << " errors (hit rate "
            << s.hit_rate << ")\n";
  std::cerr << "daemon: " << s.uptime_ms << " ms up, " << s.qps << " qps, p50/p95/p99 "
            << s.p50_ms << "/" << s.p95_ms << "/" << s.p99_ms << " ms, peak queue "
            << s.peak_queue_depth << "/" << opt.service.queue_capacity
            << (summary.shutdown_requested ? ", shutdown" : "")
            << (failed ? ", transport error" : "") << "\n";
  std::cerr << "daemon: conns [" << c.transport << "] " << c.accepted << " accepted ("
            << c.shed << " shed, " << c.faulted << " dropped by fault), " << c.active
            << " active, " << c.closed << " closed, " << c.transport_errors
            << " transport errors, " << c.bytes_in << " bytes in, " << c.bytes_out
            << " bytes out\n";
  report_disk_tier(s);
  return failed ? 1 : 0;
}

// `cache export` / `cache import`: ship a warm disk tier between hosts as
// one self-validating stream (every record re-verifies its own checksum on
// both sides; a corrupt record is skipped on export and stops an import).
int run_cache_tool(int argc, char** argv) {
  const std::string verb = argc >= 3 ? argv[2] : "";
  if (verb != "export" && verb != "import")
    throw usage_error("cache subcommand needs a verb: cache export | cache import");
  std::string dir, out_spec, in_spec;
  int budget_mb = 1024;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need = [&]() -> std::string {
      if (i + 1 >= argc) throw usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--cache-dir") dir = need();
    else if (arg == "--out") out_spec = need();
    else if (arg == "--in") in_spec = need();
    else if (arg == "--disk-cache-mb") budget_mb = int_flag(arg, need(), 1, INT_MAX);
    else throw usage_error("unknown cache option " + arg);
  }
  SOFTSCHED_EXPECT(!dir.empty(), "cache " + verb + " needs --cache-dir");

  if (verb == "export") {
    sv::disk_cache_options copt;
    copt.directory = dir;
    // Export must never evict what it is about to ship: open with an
    // effectively unbounded budget regardless of the serving-time one.
    copt.byte_budget = static_cast<std::size_t>(-1) / 2;
    sv::disk_cache cache(copt);
    std::ofstream out_file;
    std::ostream& out = file_or_std(out_spec, out_file, std::cout);
    const std::optional<std::uint64_t> count = cache.export_to(out);
    out.flush();
    if (!count.has_value() || !out)
      throw softsched::precondition_error("cache export: write failed");
    const sv::disk_cache_counters d = cache.counters();
    std::cerr << "cache export: " << *count << " records (" << d.corrupt_dropped
              << " corrupt dropped, " << d.io_errors << " io errors)\n";
    return d.io_errors > 0 ? 1 : 0;
  }

  SOFTSCHED_EXPECT(!in_spec.empty(), "cache import needs --in <file|->");
  std::ifstream in_file;
  std::istream& in = file_or_std(in_spec, in_file, std::cin);
  sv::disk_cache_options copt;
  copt.directory = dir;
  copt.byte_budget = static_cast<std::size_t>(budget_mb) << 20;
  sv::disk_cache cache(copt);
  const sv::disk_import_summary s = cache.import_from(in);
  const sv::disk_cache_counters d = cache.counters();
  std::cerr << "cache import: " << s.imported << " records imported ("
            << s.corrupt_skipped << " corrupt skipped"
            << (s.truncated ? ", stream truncated" : "") << "), now " << d.entries
            << " entries, " << d.bytes << " bytes"
            << (d.degraded ? "; DEGRADED" : "") << "\n";
  return (s.corrupt_skipped > 0 || s.truncated || d.degraded) ? 1 : 0;
}

int run(const options& opt) {
  if (opt.serve_mode) return serve_daemon(opt);
  if (!opt.serve_batch.empty()) return run_serve(opt);
  if (opt.explore) {
    // The sweep searches each point's FDS budget and keeps no live state
    // and no one schedule to print, so these would be dropped without a
    // word.
    if (opt.run_options.fds_latency > 0)
      throw usage_error("--latency does not apply to --explore");
    if (!opt.live_flag.empty())
      throw usage_error(opt.live_flag + " does not apply to --explore");
    if (opt.gantt) throw usage_error("--gantt does not apply to --explore");
    if (opt.registers) throw usage_error("--registers does not apply to --explore");
    return run_explore(opt);
  }
  const std::vector<std::string> backends = parse_backend_list(opt.backend);
  const bool compare = opt.compare || opt.backend == "all";
  const ss::scheduler_backend& backend = ss::get_backend(backends.front());
  if (!compare) {
    if (backends.size() != 1)
      throw usage_error("pick one --backend (or --compare for the table)");
    // These act on the live state a refinable backend leaves in
    // run_context::state; a hard schedule has none to refine or print.
    if (!opt.live_flag.empty() && !backend.caps().refinable)
      throw usage_error(opt.live_flag + " needs a refinable backend; '" +
                        std::string(backend.name()) + "' keeps no live state");
  }
  const si::resource_library lib;
  si::dfg design = load_design(opt, lib);
  const si::resource_set resources{opt.alus, opt.muls, opt.mems};

  std::cout << design.name() << ": " << design.op_count() << " ops, critical path "
            << sg::compute_distances(design.graph()).diameter << ", resources "
            << resources.label() << "\n";

  if (compare) {
    // Comparison mode produces the table and nothing else; flags whose
    // output a pipeline might wait for must not be dropped silently.
    if (opt.gantt || opt.registers || !opt.live_flag.empty())
      std::cerr << "note: --gantt/--stats/--registers/--dot/--spill/--wire are "
                   "ignored in comparison mode (pick one --backend to use them)\n";
    return run_compare(opt, lib, design, resources);
  }

  ss::run_context ctx;
  const ss::backend_outcome outcome =
      backend.run({design, lib, resources, opt.run_options}, ctx);
  if (!outcome.feasible) {
    std::cerr << "infeasible: " << outcome.infeasible_reason << '\n';
    return 1;
  }
  sh::schedule result;
  if (backend.caps().refinable) {
    // Refine the live state the run left behind; print the refined schedule.
    sc::threaded_graph& state = *ctx.state;
    for (const std::string& name : opt.spills) {
      const auto report = sf::apply_spill(design, state, si::find_op(design, name));
      std::cout << "spill " << name << ": +" << report.ops_inserted << " ops, "
                << report.diameter_before << " -> " << report.diameter_after
                << " states\n";
    }
    for (const wire_flag& wire : opt.wires) {
      const auto report =
          sf::apply_wire_delay(design, state, si::find_op(design, wire.from),
                               si::find_op(design, wire.to), wire.delay);
      std::cout << "wire " << wire.text << ": " << report.diameter_before << " -> "
                << report.diameter_after << " states\n";
    }
    result = sh::extract_schedule(state);
    std::cout << backend.name() << " schedule (" << opt.meta << " meta): "
              << result.makespan << " states\n";
  } else {
    result = ss::to_hard_schedule(outcome);
    std::cout << backend.name() << " schedule: " << result.makespan << " states\n";
  }

  // Every backend's output goes through the shared checker; the registry's
  // fds backend searches for a budget whose schedule fits the allocation,
  // so the resource check applies to it too.
  const auto violations = sh::validate_schedule(design, result, &resources);
  if (!violations.empty()) {
    std::cerr << "INVALID schedule: " << violations.front() << '\n';
    return 1;
  }

  if (opt.gantt) {
    std::cout << '\n';
    sh::write_gantt(std::cout, design, result);
  }
  if (opt.registers) {
    const auto lifetimes = softsched::regalloc::compute_lifetimes(design, result);
    const auto binding = softsched::regalloc::left_edge_allocate(lifetimes);
    std::cout << "registers: demand " << softsched::regalloc::max_live(lifetimes)
              << ", left-edge binding uses " << binding.register_count << "\n";
  }
  if (opt.stats) {
    const sc::schedule_stats& stats = ctx.state->stats();
    std::cout << "scheduler stats: " << stats.select_calls << " selects, "
              << stats.positions_scanned << " positions costed, "
              << stats.positions_rejected << " rejected, " << stats.label_passes
              << " label passes, " << stats.cross_edge_updates
              << " cross-edge updates\n";
  }
  if (!opt.dot_file.empty()) {
    std::ofstream dot_file;
    std::ostream& out = file_or_std(opt.dot_file, dot_file, std::cout);
    sc::write_state_dot(out, *ctx.state, design.name());
    if (!out.flush()) throw softsched::precondition_error("failed to write " + opt.dot_file);
    if (&out == &dot_file) std::cout << "wrote " << opt.dot_file << "\n";
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "cache") return run_cache_tool(argc, argv);
    return run(parse_args(argc, argv));
  } catch (const usage_error& e) {
    usage(argv[0], e.what());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
