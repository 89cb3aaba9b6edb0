// engine.h - the request pipeline's stages and its response type. The one
// service that chains them (parse -> sign -> memoized canonical hash -> key
// -> in-flight dedup -> RAM/disk cache -> schedule -> permute back ->
// serialize) lives in serve/daemon.h and serves both --serve and
// --serve-batch (docs/DESIGN.md §6).
//
// Determinism contract: every response payload is a pure function of its
// request - identical for any worker count and any cache size. Schedules
// are computed in canonical space (compute_canonical_schedule), so the
// cached outcome is a pure function of the cache key, and responses never
// carry hit/miss state - caching is observable only through the service
// counters, so a cold run, a hot run and an evicting tiny-cache run emit
// byte-identical payloads (only the `ms` latency field varies).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sched/run_context.h"
#include "serve/cache.h"
#include "serve/request.h"

namespace softsched::serve {

/// One response. Every field but `ms` is covered by the determinism
/// contract.
struct response {
  std::size_t line = 0;   ///< 1-based input line number
  std::string id;         ///< request id (default "line<N>")
  std::string error;      ///< parse/build error; empty = result is valid
  std::string backend;    ///< scheduler backend that produced the result
  ir::dfg_digest key;     ///< schedule-cache key (zero when errored before hashing)
  schedule_result result;
  double ms = 0;          ///< scheduling latency this request paid (0 when served
                          ///< from cache / dedup)
};

/// The backpressure hint, `"retry_after_ms"`, that every "overloaded"
/// response and every shed connection's frame carry.
inline constexpr double shed_retry_after_ms = 10;

/// Serializes one response as a single-line JSON object (no trailing
/// newline). With emit_schedule off, the start/unit arrays are omitted.
/// An "overloaded" error carries the shed_retry_after_ms hint.
[[nodiscard]] std::string render_response_line(const response& r, bool emit_schedule);

/// render_response_line, written to `out` in one call.
void write_response_line(std::ostream& out, const response& r, bool emit_schedule);

/// Canonical identity of one request's *design source*: the digest behind
/// its cache key and the source-id -> canonical-index map that moves
/// results between the canonical space schedules are computed in and the
/// requester's own vertex numbering. `error` non-empty means the source
/// fails to build (and the other fields are meaningless).
struct source_info {
  ir::dfg_digest digest;
  std::string error;
  std::vector<std::uint32_t> canonical_of;
};

/// Builds + canonically hashes the request's design. Never throws: build
/// failures land in source_info::error.
[[nodiscard]] source_info hash_request_source(const request& req);

/// Derives the schedule-cache key: canonical digest + allocation +
/// backend/meta salt (identical designs under different backends must
/// never share a cache entry - docs/DESIGN.md §7).
[[nodiscard]] ir::dfg_digest schedule_key_for(const request& req,
                                              const ir::dfg_digest& digest);

/// Runs the request's scheduler backend in canonical space, staging all
/// per-run state in `ctx`. Share-nothing as long as each thread brings its
/// own context (the service keeps one per worker). Throws on internal
/// failure (unreachable once the source built).
[[nodiscard]] schedule_result compute_canonical_schedule(
    const request& req, const std::vector<std::uint32_t>& canonical_of,
    sched::run_context& ctx);

/// Canonical-indexed result -> the requester's own vertex numbering.
[[nodiscard]] schedule_result result_to_source_order(
    const schedule_result& canonical, const std::vector<std::uint32_t>& canonical_of);

} // namespace softsched::serve
