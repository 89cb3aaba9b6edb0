// load_scenario.h - the shared "load" benchmark scenario: an open-loop
// zipf replay against the resident scheduling service (serve/daemon.h),
// measuring what the batch scenario cannot - tail latency and shedding
// behavior under sustained overload.
//
// Three phases, all against the same zipf(s = 0.9) request mix as
// serve_scenario.h:
//
//   1. warm    - every catalog entry once, so the replay measures the
//                serving path, not first-touch scheduling;
//   2. calibrate - closed-loop (submit-with-retry, as fast as the service
//                completes) over a warm cache: the measured completion
//                rate is the *sustainable* rate;
//   3. replay  - open-loop at 2x the sustainable rate: request i has the
//                fixed arrival time t0 + i/rate regardless of how the
//                service is doing, and its latency is measured from that
//                scheduled arrival, not from the submit call - so a
//                stalled service shows up as tail latency instead of
//                being silently absolved (no coordinated omission).
//
// Under 2x overload the admission queue must stay bounded (peak depth <=
// capacity - that is what admission control is for), goodput must stay
// near the sustainable rate, and the rest of the offered load is *shed*
// ("overloaded" responses), not queued. The emitted block's "checks" hold
// those limits (checks.h); its p99 and drop rate are also gated against
// the committed baseline.
//
// The mix and phase sizes are fixed (no --quick scaling) so the CI gate
// always compares like against like. SOFTSCHED_INJECT is honored - the
// nightly injected-storm leg replays this scenario with a slot delay and a
// failed cache shard to prove the limits hold degraded.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "serve/daemon.h"
#include "serve_scenario.h"
#include "util/json.h"
#include "util/rng.h"

namespace softsched::bench {

/// Knobs for write_load_scenario beyond the seed (perf_harness --retry,
/// --cache-dir).
struct load_options {
  /// Closed-loop retry on shed requests: instead of counting a shed
  /// request as dropped immediately, resubmit it after the service's own
  /// retry_after_ms hint (exponential backoff, +-25% deterministic jitter,
  /// at most 3 attempts in all). This is the client-side half of the
  /// admission-control contract - the hint the daemon sends with every
  /// "overloaded" response, finally exercised.
  bool retry = false;

  /// Optional persistent tier (64 MiB) for the replayed service (the
  /// nightly disk-fault storm leg points this at a scratch directory and
  /// injects io= faults to prove the limits hold with a misbehaving disk).
  std::string cache_dir;
};

/// Exact nearest-rank percentile of a sorted sample (the oracle the
/// histogram in serve/metrics.h approximates from above).
inline double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank > 0 ? rank - 1 : 0];
}

/// Submits one line, yielding until admission control accepts it (the
/// closed-loop discipline of the warm and calibration phases).
inline void submit_blocking(serve::service& svc, std::uint64_t seq, const std::string& line,
                            serve::service::callback done) {
  while (!svc.submit(seq, line, done))
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

inline void warm_catalog(serve::service& svc, std::uint64_t seed) {
  std::uint64_t seq = 0;
  for (const std::string& combo : serve_catalog(seed))
    submit_blocking(svc, ++seq, "{\"id\":\"warm\"," + combo + "}", {});
  svc.drain();
}

/// Emits the whole scenario as the value of an already-written "load" key.
inline checks write_load_scenario(json_writer& j, std::uint64_t seed,
                                  const load_options& lopt = {}) {
  using clock_type = std::chrono::steady_clock;
  const unsigned jobs = thread_pool::hardware_workers();
  constexpr int calibration_requests = 500;
  constexpr int replay_requests = 1500;
  constexpr std::size_t queue_capacity = 64;
  constexpr double overload_factor = 2.0;
  // Generous by design: the limits assert the *shape* of overload behavior
  // (bounded tails, bounded shedding), not this machine's speed - the CI
  // baseline comparison owns speed regressions.
  constexpr double p99_limit_ms = 1000.0;
  constexpr double drop_rate_limit = 0.9;

  serve::service_options sopt;
  sopt.jobs = static_cast<int>(jobs);
  sopt.queue_capacity = queue_capacity;
  sopt.emit_schedule = false;
  sopt.faults = serve::fault_plan::from_env();
  sopt.cache_dir = lopt.cache_dir;
  sopt.disk_cache_bytes = lopt.cache_dir.empty() ? 0 : 64ull << 20;

  const std::vector<std::string> mix =
      make_serve_mix(seed, std::max(calibration_requests, replay_requests));

  // -- calibrate: closed-loop completion rate over a warm cache -----------
  double sustainable_rps = 0;
  {
    serve::service svc(sopt);
    warm_catalog(svc, seed);
    std::uint64_t seq = 1000000; // disjoint from warm seqs; value is arbitrary
    const auto t0 = clock_type::now();
    for (int i = 0; i < calibration_requests; ++i)
      submit_blocking(svc, ++seq, mix[static_cast<std::size_t>(i)], {});
    svc.drain();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
    sustainable_rps = wall_ms > 0 ? calibration_requests / (wall_ms / 1e3) : 0;
  }
  const double target_rps = std::max(1.0, sustainable_rps * overload_factor);

  // -- replay: open-loop at 2x sustainable ---------------------------------
  serve::service svc(sopt);
  warm_catalog(svc, seed);
  std::vector<double> latency_ms(replay_requests, -1);
  std::atomic<std::uint64_t> error_responses{0};
  std::uint64_t dropped = 0;
  const auto start = clock_type::now();

  // Latency is always measured from the request's *scheduled arrival* -
  // for a retried request that includes every backoff it sat through, so
  // retrying cannot launder tail latency (no coordinated omission).
  const auto submit_request = [&](int i, clock_type::time_point scheduled) {
    return svc.submit(
        static_cast<std::uint64_t>(i) + 1, mix[static_cast<std::size_t>(i)],
        [&latency_ms, &error_responses, i, scheduled](serve::response r) {
          latency_ms[static_cast<std::size_t>(i)] =
              std::chrono::duration<double, std::milli>(clock_type::now() - scheduled)
                  .count();
          if (!r.error.empty()) error_responses.fetch_add(1, std::memory_order_relaxed);
        });
  };

  // Closed-loop retry bookkeeping (lopt.retry): a shed request is
  // rescheduled after the service's retry_after_ms hint with exponential
  // backoff and deterministic +-25% jitter, up to max_attempts total
  // attempts; only exhausting them counts as dropped.
  struct pending_retry {
    clock_type::time_point due;
    clock_type::time_point scheduled; ///< original arrival (latency anchor)
    int index = 0;
    int attempt = 1; ///< attempts already spent
  };
  std::vector<pending_retry> retry_queue;
  std::uint64_t retry_attempts = 0, retry_recovered = 0, retry_exhausted = 0;
  constexpr int max_attempts = 3;
  rng jitter(seed ^ 0x72657472794c4fULL);
  const auto backoff_after = [&](int attempts_spent) {
    const double factor = static_cast<double>(1 << std::min(attempts_spent - 1, 10));
    const double ms =
        serve::shed_retry_after_ms * factor * (0.75 + 0.5 * jitter.uniform());
    return std::chrono::duration_cast<clock_type::duration>(
        std::chrono::duration<double, std::milli>(ms));
  };
  const auto process_retries = [&](clock_type::time_point now) {
    std::vector<pending_retry> still;
    still.reserve(retry_queue.size());
    for (const pending_retry& p : retry_queue) {
      if (p.due > now) {
        still.push_back(p);
        continue;
      }
      ++retry_attempts;
      if (submit_request(p.index, p.scheduled)) {
        ++retry_recovered;
      } else if (p.attempt + 1 <= max_attempts) {
        still.push_back(
            pending_retry{now + backoff_after(p.attempt), p.scheduled, p.index, p.attempt + 1});
      } else {
        ++retry_exhausted;
        ++dropped;
      }
    }
    retry_queue.swap(still);
  };

  for (int i = 0; i < replay_requests; ++i) {
    const auto scheduled =
        start + std::chrono::duration_cast<clock_type::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / target_rps));
    std::this_thread::sleep_until(scheduled);
    if (lopt.retry) process_retries(clock_type::now());
    if (!submit_request(i, scheduled)) {
      if (lopt.retry) {
        retry_queue.push_back(
            pending_retry{clock_type::now() + backoff_after(1), scheduled, i, 1});
      } else {
        ++dropped;
      }
    }
  }
  // Drain the retry queue before draining the service: requests still
  // backing off have neither completed nor been dropped yet.
  while (!retry_queue.empty()) {
    auto due = retry_queue.front().due;
    for (const pending_retry& p : retry_queue) due = std::min(due, p.due);
    std::this_thread::sleep_until(due);
    process_retries(clock_type::now());
  }
  svc.drain();
  const double replay_wall_ms =
      std::chrono::duration<double, std::milli>(clock_type::now() - start).count();
  const serve::service_stats stats = svc.stats();

  std::vector<double> sorted;
  sorted.reserve(latency_ms.size());
  for (const double l : latency_ms)
    if (l >= 0) sorted.push_back(l);
  std::sort(sorted.begin(), sorted.end());

  const auto completed = static_cast<std::uint64_t>(sorted.size());
  const double drop_rate = static_cast<double>(dropped) / replay_requests;
  const double goodput_rps =
      replay_wall_ms > 0 ? static_cast<double>(completed) / (replay_wall_ms / 1e3) : 0;
  const double p50 = sorted_percentile(sorted, 50);
  const double p95 = sorted_percentile(sorted, 95);
  const double p99 = sorted_percentile(sorted, 99);

  j.begin_object();
  j.member("jobs", static_cast<unsigned long long>(jobs));
  j.member("queue_capacity", queue_capacity);
  j.member("catalog", serve_catalog(seed).size());
  j.member("calibration_requests", static_cast<long long>(calibration_requests));
  j.member("replay_requests", static_cast<long long>(replay_requests));
  j.member("sustainable_rps", sustainable_rps);
  j.member("overload_factor", overload_factor);
  j.member("target_rps", target_rps);
  j.member("completed", completed);
  j.member("dropped", dropped);
  j.member("drop_rate", drop_rate);
  j.member("goodput_rps", goodput_rps);
  j.member("p50_ms", p50);
  j.member("p95_ms", p95);
  j.member("p99_ms", p99);
  j.member("p99_limit_ms", p99_limit_ms);
  j.member("drop_rate_limit", drop_rate_limit);
  j.member("max_ms", sorted.empty() ? 0.0 : sorted.back());
  j.member("peak_queue_depth", stats.peak_queue_depth);
  j.member("hit_rate", stats.hit_rate);
  j.member("error_responses", error_responses.load());
  j.member("injected", !sopt.faults.empty());
  j.member("disk_enabled", stats.disk_enabled);
  j.member("disk_degraded", stats.disk.degraded);
  j.key("retry");
  j.begin_object();
  j.member("enabled", lopt.retry);
  j.member("max_attempts", max_attempts);
  j.member("attempts", retry_attempts);
  j.member("recovered", retry_recovered);
  j.member("exhausted", retry_exhausted);
  j.end_object();
  return end_block(j, {{"queue_bounded", stats.peak_queue_depth <= queue_capacity},
                       {"goodput_ok", goodput_rps > 0},
                       {"p99_ok", p99 <= p99_limit_ms},
                       {"drop_rate_ok", drop_rate <= drop_rate_limit}});
}

} // namespace softsched::bench
