// softbench_driver - runs one softbench workload and prints its metrics.
//
//   softbench_driver --workload <kernel_large|refine_eco|serve_hot>
//                    --seed <n> --seconds <n> --trace <0|1> --spec BENCHMARK.json
//                    --cli <path to softsched_cli> --work-dir <dir>
//   softbench_driver --selftest --cli <path> --work-dir <dir>
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer ones, named, ordered and unit-checked by the --spec file. The
// last line of standard output is one JSON object:
// {"correct":...,"attempted":...,"failed":...,"metrics":{name:{value,unit}}}.
// Exit status: 0 when every output checked correct, 1 otherwise, 2 on bad
// arguments.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common.h"
#include "util/json_parse.h"

namespace {

using namespace softbench;

struct metric_spec {
  std::string name;
  std::string unit;
};

/// The "end_to_end" or "per_layer" list of BENCHMARK.json, in file order.
std::vector<metric_spec> published(const softsched::json_value& spec, const char* key) {
  const softsched::json_value* list = spec.find(key);
  if (list == nullptr || !list->is_array())
    throw std::runtime_error(std::string("BENCHMARK.json has no ") + key + " list");
  std::vector<metric_spec> out;
  for (const softsched::json_value& m : list->items())
    out.push_back({m.find("name")->as_string(), m.find("unit")->as_string()});
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "softbench_driver: " << why
            << "\nusage: softbench_driver --workload <kernel_large|refine_eco|serve_hot> "
               "--seed <n> --seconds <n> --trace <0|1> --spec <BENCHMARK.json> "
               "--cli <softsched_cli> --work-dir <dir>\n"
               "       softbench_driver --selftest --cli <softsched_cli> --work-dir <dir>\n";
  std::exit(2);
}

/// Orders the workload's metrics by the published list; a metric the list
/// does not name is a benchmark bug, a listed per-layer one the workload
/// does not touch reads 0.
std::vector<metric> publish(const std::vector<metric>& reported,
                            const std::vector<metric_spec>& specs, bool zero_fill) {
  for (const metric& m : reported) {
    bool known = false;
    for (const metric_spec& s : specs) known = known || (m.name == s.name && m.unit == s.unit);
    if (!known) throw std::logic_error("unpublished metric " + m.name + " [" + m.unit + "]");
  }
  std::vector<metric> out;
  for (const metric_spec& s : specs) {
    const metric* found = nullptr;
    for (const metric& m : reported)
      if (m.name == s.name) found = &m;
    if (found == nullptr && !zero_fill)
      throw std::logic_error("workload did not report " + s.name);
    out.push_back(found != nullptr ? *found : metric{s.name, 0.0, s.unit});
  }
  return out;
}

void print_result(const run_result& r, const std::vector<metric>& metrics) {
  for (const metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "%-28s %16.6g %s", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line << '\n';
  }
  for (const std::string& e : r.errors) std::cerr << "softbench: failure: " << e << '\n';
  std::cout << "{\"correct\":" << (r.correct && r.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    std::cout << (i > 0 ? "," : "") << '"' << metrics[i].name << "\":{\"value\":" << value
              << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

} // namespace

int main(int argc, char** argv) {
  run_args args;
  bool selftest = false;
  bool have_trace = false;
  std::string spec_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") args.workload = need();
      else if (arg == "--seed") args.seed = std::stoull(need());
      else if (arg == "--seconds") args.seconds = std::stoi(need());
      else if (arg == "--trace") {
        const std::string v = need();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
        have_trace = true;
      } else if (arg == "--spec") spec_path = need();
      else if (arg == "--cli") args.cli_path = need();
      else if (arg == "--work-dir") args.work_dir = need();
      else if (arg == "--selftest") selftest = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (args.cli_path.empty() || args.work_dir.empty()) usage("--cli and --work-dir are required");
  std::filesystem::create_directories(args.work_dir);

  try {
    if (selftest) {
      const int failures = run_selftest(args);
      std::cout << (failures == 0 ? "selftest: all checks passed\n"
                                  : "selftest: " + std::to_string(failures) + " failed\n");
      return failures == 0 ? 0 : 1;
    }
    if (!have_trace || spec_path.empty()) usage("--trace and --spec are required");
    if (args.seconds < 1 || args.seconds > 60) usage("--seconds must be 1..60");
    std::ifstream spec_file(spec_path);
    const std::string spec_text((std::istreambuf_iterator<char>(spec_file)),
                                std::istreambuf_iterator<char>());
    const std::vector<metric_spec> specs =
        published(softsched::parse_json(spec_text), args.trace ? "per_layer" : "end_to_end");
    run_result r;
    if (args.workload == "kernel_large") r = run_kernel_large(args);
    else if (args.workload == "refine_eco") r = run_refine_eco(args);
    else if (args.workload == "serve_hot") r = run_serve_hot(args);
    else usage("unknown workload '" + args.workload + "'");
    const std::vector<metric> metrics = publish(r.metrics, specs, args.trace);
    print_result(r, metrics);
    return r.correct && r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "softbench: " << args.workload << ": " << e.what() << '\n';
    return 1;
  }
}
