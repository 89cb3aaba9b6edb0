// persist_scenario.h - the "persist" benchmark scenario: the crash-tolerant
// two-tier schedule cache measured end to end. Four --serve-batch sessions
// of the same zipf-skewed request mix (serve_scenario.h), each on its own
// service:
//
//   reference - no disk tier; the determinism yardstick every other run's
//               response payloads must match byte-for-byte (modulo `ms`);
//   cold      - fresh cache directory, disk tier on: populates the store
//               through the write-behind flusher;
//   warm      - a *new* service over the same directory (the warm-restart
//               shape: RAM tier empty, disk tier recovered by the open
//               scan). Headline metrics: warm_restart_hit_rate (disk-tier
//               hit rate - every unique key should come back from disk,
//               not the scheduler), recovery_scan_ms, requests_per_sec;
//   degraded  - same directory with an injected I/O failure on the first
//               disk op: the tier must flip to RAM-only and keep serving
//               with zero request errors and identical payloads. Headline:
//               requests_per_sec_degraded (the outage-mode throughput).
//
// Emitted by bench/perf_harness.cpp as the "persist" block of
// BENCH_softsched.json (`perf_harness --only persist` runs it alone; the CI
// persist job does). The block's "checks" (checks.h) record each invariant
// below, so the bench gate never re-derives them.
//
// The cache directory lives under the system temp dir, keyed by the seed,
// and is recreated from scratch each run - the scenario measures a
// *controlled* warm restart, not whatever a previous invocation left
// behind.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>

#include "checks.h"
#include "serve/daemon.h"
#include "serve_scenario.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace softsched::bench {

/// Emits the whole scenario as the value of an already-written "persist"
/// key.
inline checks write_persist_scenario(json_writer& j, std::uint64_t seed) {
  namespace fs = std::filesystem;
  const unsigned jobs = thread_pool::hardware_workers();
  constexpr int request_count = 400;
  constexpr std::size_t disk_budget = 64ull << 20;

  const std::string text = serve_mix_text(seed, request_count);

  std::error_code ec;
  const fs::path dir = fs::temp_directory_path(ec) /
                       ("softsched_persist_bench_" + std::to_string(seed));
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  const bool dir_ok = !ec && fs::is_directory(dir, ec);

  serve::service_options base;
  base.jobs = static_cast<int>(jobs);
  base.emit_schedule = false;
  base.cache_dir = dir.string();
  base.disk_cache_bytes = disk_budget;

  // Reference: the exact same service configuration minus the disk tier.
  serve::service_options plain = base;
  plain.cache_dir.clear();
  plain.disk_cache_bytes = 0;
  serve::service reference_service(plain);
  const std::string reference = strip_ms(run_session(reference_service, text).responses);

  // Cold run: populate the store through write-behind, then flush so the
  // warm run sees every record.
  session_run cold;
  serve::disk_cache_counters cold_disk;
  bool cold_match = false;
  if (dir_ok) {
    serve::service svc(base);
    cold = run_session(svc, text);
    (void)svc.flush_disk();
    cold_disk = svc.disk()->counters();
    cold_match = strip_ms(cold.responses) == reference;
  }

  // Warm restart: a brand-new service (empty RAM tier) over the populated
  // directory. The open scan recovers the index; every unique key should
  // be a disk hit, so nothing re-runs the scheduler.
  session_run warm;
  serve::disk_cache_counters warm_disk;
  bool warm_match = false;
  if (dir_ok) {
    serve::service svc(base);
    warm = run_session(svc, text);
    warm_disk = svc.disk()->counters();
    warm_match = strip_ms(warm.responses) == reference;
  }

  // Degraded leg: first disk op reports an I/O error, flipping the tier to
  // RAM-only. The service must keep serving - zero request errors, payloads
  // still identical - just without persistence.
  session_run degraded;
  serve::disk_cache_counters degraded_disk;
  bool degraded_match = false;
  if (dir_ok) {
    serve::service_options outage = base;
    outage.faults.io.ops[1] = serve::disk_fault_action{0, true, false};
    serve::service svc(outage);
    degraded = run_session(svc, text);
    degraded_disk = svc.disk()->counters();
    degraded_match = strip_ms(degraded.responses) == reference;
  }
  const std::uint64_t degraded_errors = degraded.errors;

  fs::remove_all(dir, ec);

  const double warm_hit_rate =
      warm_disk.hits + warm_disk.misses > 0
          ? static_cast<double>(warm_disk.hits) /
                static_cast<double>(warm_disk.hits + warm_disk.misses)
          : 0.0;
  const double rps_warm =
      warm.wall_ms > 0 ? request_count / (warm.wall_ms / 1e3) : 0.0;
  const double rps_degraded =
      degraded.wall_ms > 0 ? request_count / (degraded.wall_ms / 1e3) : 0.0;

  j.begin_object();
  j.member("requests", static_cast<long long>(request_count));
  j.member("catalog", serve_catalog(seed).size());
  j.member("jobs", static_cast<unsigned long long>(jobs));
  j.member("disk_budget_bytes", static_cast<unsigned long long>(disk_budget));
  j.member("cold_ms", cold.wall_ms);
  j.member("warm_ms", warm.wall_ms);
  j.member("degraded_ms", degraded.wall_ms);
  j.member("requests_per_sec_warm", rps_warm);
  j.member("requests_per_sec_degraded", rps_degraded);
  j.member("warm_restart_hit_rate", warm_hit_rate);
  j.member("recovery_scan_ms", warm_disk.recovery_scan_ms);
  j.member("recovered_entries", warm_disk.recovered_entries);
  j.member("disk_entries", static_cast<unsigned long long>(cold_disk.entries));
  j.member("disk_bytes", static_cast<unsigned long long>(cold_disk.bytes));
  j.member("disk_writes", cold_disk.writes);
  j.member("disk_hits_warm", warm_disk.hits);
  j.member("degraded_io_errors", degraded_disk.io_errors);
  j.member("degraded_request_errors", degraded_errors);
  return end_block(
      j, {{"dir_ok", dir_ok},
          {"deterministic", cold_match && warm_match && degraded_match},
          {"warm_hits_ok", warm_disk.hits > 0},
          {"recovered_ok", warm_disk.recovered_entries > 0 &&
                               warm_disk.recovered_entries == cold_disk.entries},
          {"degraded_ok", degraded_disk.degraded && degraded_disk.io_errors > 0 &&
                              degraded_errors == 0}});
}

} // namespace softsched::bench
