// serve_scenario.h - the shared "serve" benchmark scenario: a zipf-skewed
// JSONL request mix over benchmark and seeded-random design families,
// played as --serve-batch sessions (serve::serve_batch) against the
// scheduling service twice - once against a cold cache, once hot -
// recording requests/sec for both, the cold-run hit rate, and whether the
// responses are identical across worker counts and cache sizes.
//
// Emitted by bench/perf_harness.cpp as the "serve" block of
// BENCH_softsched.json (`perf_harness --only serve` runs it alone). The
// mix is fixed - it does not scale with --quick - because the CI bench
// gate compares the hot throughput and hit rate against the committed
// baseline and must compare like against like. The block's own checks
// (checks.h): determinism, a hit rate in (0, 1], and a hot cache at least
// 5x faster than cold scheduling.
//
// Why the skewed mix: real HLS flows (feedback-guided iterative
// scheduling, constraint sweeps) re-submit near-identical designs with
// zipf-like popularity; a content-addressed cache turns the popular head
// into pure hash-plus-lookup work, which is where the hot/cold throughput
// gap - the tentpole's measurable speed story - comes from.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "serve/daemon.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace softsched::bench {

/// The catalog: every distinct (design, allocation) pair the mix draws
/// from. 5 design families x 6 allocations = 30 schedulable combinations;
/// zipf rank follows catalog order.
inline std::vector<std::string> serve_catalog(std::uint64_t seed) {
  // Larger designs deliberately sit at popular ranks: the service story is
  // "scheduling is expensive, recognition is cheap", so the head of the
  // distribution is where caching pays.
  const std::vector<std::string> designs = {
      "\"random\":700,\"seed\":" + std::to_string(seed + 1),
      "\"bench\":\"fir64\"",
      "\"random\":300,\"seed\":" + std::to_string(seed),
      "\"bench\":\"iir16\"",
      "\"bench\":\"ewf\"",
  };
  const std::vector<std::string> allocations = {
      "\"alus\":2,\"muls\":2,\"mems\":1", "\"alus\":3,\"muls\":2,\"mems\":1",
      "\"alus\":2,\"muls\":3,\"mems\":1", "\"alus\":4,\"muls\":3,\"mems\":2",
      "\"alus\":3,\"muls\":3,\"mems\":2", "\"alus\":2,\"muls\":2,\"mems\":2",
  };
  std::vector<std::string> combos;
  combos.reserve(designs.size() * allocations.size());
  for (const std::string& d : designs)
    for (const std::string& a : allocations) combos.push_back(d + "," + a);
  return combos;
}

/// `count` JSONL request lines, catalog ranks sampled from a zipf(s = 0.9)
/// distribution. Deterministic from `seed`.
inline std::vector<std::string> make_serve_mix(std::uint64_t seed, int count) {
  const std::vector<std::string> combos = serve_catalog(seed);
  std::vector<double> cumulative(combos.size());
  double total = 0;
  for (std::size_t r = 0; r < combos.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 0.9);
    cumulative[r] = total;
  }

  rng rand(seed ^ 0x5e77e5ULL);
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double roll = rand.uniform() * total;
    std::size_t rank = 0;
    while (rank + 1 < combos.size() && cumulative[rank] < roll) ++rank;
    lines.push_back("{\"id\":\"q" + std::to_string(i) + "\"," + combos[rank] + "}");
  }
  return lines;
}

/// One measured --serve-batch session.
struct session_run {
  std::string responses;      ///< the session's JSONL output
  double wall_ms = 0;
  std::uint64_t computed = 0; ///< schedules this session computed
  std::uint64_t errors = 0;
  double hit_rate = 0; ///< requests served without computing / well-formed requests
};

/// Plays `text` as one batch session against `svc`, writing the responses
/// to memory (they are part of the served work).
inline session_run run_session(serve::service& svc, const std::string& text) {
  const serve::service_stats before = svc.stats();
  std::istringstream in(text);
  std::ostringstream out;
  const auto t0 = std::chrono::steady_clock::now();
  (void)serve::serve_batch(in, out, svc);
  session_run run;
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  svc.drain(); // settle the counters behind the last callback
  const serve::service_stats after = svc.stats();
  run.responses = std::move(out).str();
  run.computed = after.computed - before.computed;
  run.errors = after.errors - before.errors;
  const std::uint64_t reused =
      after.cache_hits + after.deduped - before.cache_hits - before.deduped;
  run.hit_rate = reused + run.computed > 0
                     ? static_cast<double>(reused) / static_cast<double>(reused + run.computed)
                     : 0.0;
  return run;
}

/// `jsonl` without each response's "ms" member (always the last one) -
/// the one field the determinism contract leaves free.
inline std::string strip_ms(const std::string& jsonl) {
  std::string out;
  std::istringstream lines(jsonl);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t at = line.rfind(",\"ms\":");
    out += at == std::string::npos ? line : line.substr(0, at) + "}";
    out += '\n';
  }
  return out;
}

/// The mix as one JSONL text.
inline std::string serve_mix_text(std::uint64_t seed, int count) {
  std::string text;
  for (const std::string& line : make_serve_mix(seed, count)) {
    text += line;
    text += '\n';
  }
  return text;
}

/// Emits the whole scenario as the value of an already-written "serve"
/// key.
inline checks write_serve_scenario(json_writer& j, std::uint64_t seed) {
  const unsigned jobs = thread_pool::hardware_workers();
  constexpr int request_count = 400;
  const std::string text = serve_mix_text(seed, request_count);

  serve::service_options opt;
  opt.jobs = static_cast<int>(jobs);
  opt.emit_schedule = false; // throughput of the service, not of array printing

  // Determinism: responses must be identical payload-for-payload across
  // worker counts and cache sizes (including a cache too small to hold
  // anything, which forces recomputation instead of hits).
  bool deterministic = true;
  {
    serve::service_options serial = opt;
    serial.jobs = 1;
    serve::service_options tiny = opt;
    tiny.cache_bytes = 1 << 14;
    serve::service reference(serial), parallel(opt), tiny_cache(tiny);
    const std::string ref = strip_ms(run_session(reference, text).responses);
    deterministic = ref == strip_ms(run_session(parallel, text).responses) &&
                    ref == strip_ms(run_session(tiny_cache, text).responses);
  }

  // The measured runs: one service, cold session then hot session.
  serve::service svc(opt);
  const session_run cold = run_session(svc, text);
  const session_run hot = run_session(svc, text);
  const serve::cache_counters cache = svc.cache().counters();

  const double rps_cold = cold.wall_ms > 0 ? request_count / (cold.wall_ms / 1e3) : 0.0;
  const double rps_hot = hot.wall_ms > 0 ? request_count / (hot.wall_ms / 1e3) : 0.0;
  const double hot_over_cold = rps_cold > 0 ? rps_hot / rps_cold : 0.0;

  j.begin_object();
  j.member("requests", static_cast<long long>(request_count));
  j.member("catalog", serve_catalog(seed).size());
  j.member("jobs", static_cast<unsigned long long>(jobs));
  j.member("unique_scheduled", cold.computed);
  j.member("cold_ms", cold.wall_ms);
  j.member("hot_ms", hot.wall_ms);
  j.member("requests_per_sec_cold", rps_cold);
  j.member("requests_per_sec_hot", rps_hot);
  j.member("speedup_hot_over_cold", hot_over_cold);
  j.member("hit_rate", cold.hit_rate);
  j.member("hit_rate_hot", hot.hit_rate);
  j.key("cache");
  j.begin_object();
  j.member("hits", cache.hits);
  j.member("misses", cache.misses);
  j.member("insertions", cache.insertions);
  j.member("evictions", cache.evictions);
  j.member("entries", cache.entries);
  j.member("bytes", cache.bytes);
  j.end_object();
  return end_block(j, {{"deterministic", deterministic},
                       {"hot_throughput_positive", rps_hot > 0},
                       {"hit_rate_in_range", cold.hit_rate > 0 && cold.hit_rate <= 1},
                       {"hot_over_cold_ok", hot_over_cold >= 5}});
}

} // namespace softsched::bench
