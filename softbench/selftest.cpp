// selftest - checks of the benchmark's own code:
//   * the decomposed soft run reproduces run()'s outcome on the paper suite;
//   * the renumbering generator yields isomorphic designs;
//   * the tail-rank helper refuses a percentile with < 10 samples beyond it;
//   * serve_hot's stage replay reproduces the in-process service's payloads
//     and computed count, and the shipped daemon both, on a short run.
// It also prints how many renumberings of FIR64 and AR change their
// canonical digest (the known ir/dfg_hash weakness serve_hot keeps in view).
#include <iostream>
#include <stdexcept>

#include "common.h"
#include "inputs.h"
#include "ir/benchmarks.h"
#include "ir/dfg_hash.h"
#include "ir/dfg_io.h"
#include "workloads.h"

namespace softbench {

namespace si = softsched::ir;
namespace ss = softsched::sched;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << '\n';
  if (!ok) ++failures;
}

std::vector<si::dfg> paper_suite(const si::resource_library& library) {
  std::vector<si::dfg> suite = si::figure3_benchmarks(library);
  suite.push_back(si::make_fir(library, 64));
  suite.push_back(si::make_iir_cascade(library, 16));
  suite.push_back(si::make_figure1(library));
  return suite;
}

} // namespace

int run_selftest(const run_args& args) {
  failures = 0;
  const si::resource_library library;

  std::cout << "decomposed soft run == run():\n";
  ss::run_context ctx_a;
  ss::run_context ctx_b;
  span_buffer spans(64);
  for (const si::dfg& d : paper_suite(library))
    for (int c = 0; c < si::figure3_constraint_count; ++c) {
      const si::resource_set rs = si::figure3_constraint(c);
      const ss::run_request req{d, library, rs, {}};
      const ss::backend_outcome ref = ss::get_backend("soft").run(req, ctx_a);
      const ss::backend_outcome dec = decomposed_soft_run(req, ctx_b, &spans, 0);
      check(dec.same_outcome(ref) && illegal_outcome(d, rs, dec).empty(),
            d.name() + " on " + rs.label());
    }

  std::cout << "renumbering yields isomorphic designs:\n";
  std::vector<si::dfg> designs = paper_suite(library);
  designs.push_back(random_design(library, 300, 0.25, 7));
  designs.push_back(random_design(library, 700, 0.15, 8));
  for (const si::dfg& d : designs) {
    bool ok = true;
    for (std::uint64_t s = 1; s <= 5; ++s) {
      const renumbered_dfg r = renumber(d, s);
      const si::dfg copy = si::read_dfg_string(r.text, library);
      ok = ok && same_design_under(d, copy, r.new_index);
    }
    check(ok, d.name() + " (5 seeds)");
  }

  std::cout << "tail-rank helper:\n";
  std::vector<double> samples(200);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = static_cast<double>(i);
  check(samples_beyond(100, 90) == 10 && samples_beyond(200, 99) == 2,
        "samples_beyond counts ranks above the percentile");
  check(tail_percentile(samples, 90) == 179, "p90 of 200 samples is accepted");
  bool refused = false;
  try {
    (void)tail_percentile(samples, 99);
  } catch (const std::runtime_error&) {
    refused = true;
  }
  check(refused, "p99 of 200 samples (2 beyond) is refused");

  std::cout << "canonical digest under renumbering (informational):\n";
  for (const si::dfg& d : {si::make_fir(library, 64), si::make_arf(library),
                           si::make_hal(library), si::make_ewf(library)}) {
    const si::dfg_digest original = si::canonical_dfg_digest(d);
    int changed = 0;
    for (std::uint64_t s = 1; s <= 20; ++s)
      changed += si::canonical_dfg_digest(
                     si::read_dfg_string(renumber(d, s).text, library)) != original;
    std::cout << "  " << d.name() << ": " << changed << " of 20 renumberings change the digest\n";
  }

  std::cout << "serve_hot stage replay == service == daemon payloads (1 s, seed 3):\n";
  run_args serve = args;
  serve.seconds = 1;
  serve.seed = 3;
  serve.trace = true;
  const run_result r = run_serve_hot(serve);
  for (const std::string& e : r.errors) std::cout << "        " << e << '\n';
  check(r.correct && r.failed == 0 && r.attempted > 0,
        std::to_string(r.attempted) + " requests, replay, service and daemon agree");
  return failures;
}

} // namespace softbench
