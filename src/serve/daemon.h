// daemon.h - the one scheduling service and its two front-ends:
// `softsched_cli --serve` (the resident daemon) and `--serve-batch` (a
// one-shot JSONL session). Both run every request through the same
// service::process pipeline, so they emit the same payload bytes.
//
// Three layers:
//
//   * `service` - the transport-free core. submit() runs admission control
//     (a bounded queue; at capacity the request is shed immediately with
//     `"error":"overloaded"` + a retry_after_ms hint instead of queueing
//     without bound), then hands the request to the worker pool: parse ->
//     memoized canonical hash -> in-flight dedup (concurrent identical
//     requests coalesce onto one computation via a shared future - the
//     follower receives the leader's result directly, so it stays correct
//     even when the cache rejected the value as oversize) -> sharded
//     schedule cache -> scheduler backend. Responses stream back through a
//     per-request callback as they complete; drain() blocks until every
//     admitted request has responded. Live counters and a lock-light
//     latency histogram (serve/metrics.h) feed stats().
//
//   * `serve_connection` - the framed front-end, one client session: reads
//     `<count>\n<payload>\n` frames (serve/transport.h) from a stream,
//     sniffs control ops ({"op":"stats"} / {"op":"shutdown"}), submits
//     everything else to the service, and writes response frames either as
//     they complete (streaming, the default) or in input order behind a
//     reorder buffer (--serve-ordered). EOF, shutdown and transport errors
//     all end in the same graceful drain: every admitted request gets its
//     response before the connection closes. socket_server
//     (serve/socket.h) runs it once per accepted connection, whatever the
//     listener: stdio (one connection), tcp or unix.
//
//   * `serve_batch` - the JSONL front-end behind --serve-batch: one line per
//     request in, one line per response out, in input order, through the
//     same reorder buffer. It bounds its own in-flight window by the queue
//     capacity, so it never sheds, and each line by the frame limit.
//
// Fault injection: a fault_plan (usually parsed from the SOFTSCHED_INJECT
// environment knob) deterministically delays or fails chosen *worker
// slots* (a request's slot is (seq - 1) % jobs - a pure function of the
// submission sequence, independent of which pool thread actually runs it)
// and *cache shards* (a failed shard is treated as unavailable: lookups
// miss, inserts are dropped). This exists only in the serve layer, only to
// make overload, slow-consumer and mid-drain-shutdown paths deterministic
// under test; the scheduling math is never perturbed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/cache.h"
#include "serve/diskcache.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "serve/transport.h"
#include "util/thread_pool.h"

namespace softsched::serve {

/// What an injection rule does to its target: delay it, fail it, or both
/// (delay first, then fail).
struct fault_action {
  double delay_ms = 0;
  bool fail = false;
};

/// What a `conn=<n>` rule does to the Nth accepted connection: stall it
/// before serving, drop it at accept, or both (stall first, then drop).
struct conn_fault_action {
  double stall_ms = 0;
  bool drop = false;
};

/// Deterministic fault-injection plan for the serve layer. Spec grammar
/// (the SOFTSCHED_INJECT value): comma-separated rules, each
/// `<target>:<action>[:<action>...]` with targets `slot=<n>` / `shard=<n>`
/// / `io=<n>` / `conn=<n>` and actions `delay_ms=<float>` / `fail` /
/// `torn` (io only) / `stall_ms=<float>` / `drop` (conn only), e.g.
///
///   SOFTSCHED_INJECT="slot=0:delay_ms=5,shard=3:fail,io=2:torn,conn=2:drop"
///
/// A failed worker slot turns its requests into `"error":"injected fault:
/// worker slot <n>"` responses; a failed cache shard is unavailable (its
/// lookups miss, its inserts are dropped) - degraded, never crashed. An
/// `io=<n>` rule targets the Nth disk-tier record operation (1-based,
/// counting every record read/write attempt): `fail` reports an I/O error
/// (the disk tier degrades to RAM-only), `torn` makes a write persist only
/// a prefix while reporting success (the power-loss shape), and `delay_ms`
/// stalls the operation - a write-behind with its record popped but the
/// disk tier's lock free, which is how the CI kill-mid-write-behind leg
/// pins its SIGKILL to a deterministic point.
/// A `conn=<n>` rule targets the Nth connection a socket listener accepts
/// (1-based, counting shed connections too): `drop` closes it without
/// reading a byte (the mid-flight client-death shape, server side) and
/// `stall_ms` parks it before its first read while it holds an active
/// slot - which is how tests pin the --max-conns shed boundary.
struct fault_plan {
  std::unordered_map<unsigned, fault_action> slots;
  std::unordered_map<unsigned, fault_action> shards;
  std::unordered_map<unsigned, conn_fault_action> conns;
  disk_fault_plan io; ///< forwarded to the disk tier (serve/diskcache.h)

  [[nodiscard]] bool empty() const noexcept {
    return slots.empty() && shards.empty() && conns.empty() && io.empty();
  }

  /// Parses a spec string; throws precondition_error on grammar errors
  /// (unknown target, unknown action, non-numeric index/delay).
  [[nodiscard]] static fault_plan parse(std::string_view spec);

  /// parse(getenv("SOFTSCHED_INJECT")); empty plan when unset/empty.
  [[nodiscard]] static fault_plan from_env();
};

struct service_options {
  int jobs = 0;                          ///< worker threads; < 1 = hardware_workers()
  std::size_t cache_bytes = 64ull << 20; ///< schedule-cache byte budget
  unsigned cache_shards = 16;
  std::size_t queue_capacity = 256; ///< admitted-but-unfinished bound (>= 1)
  bool emit_schedule = true;        ///< include start/unit arrays in responses
  fault_plan faults;                ///< empty = no injection

  // Persistent tier (docs/SERVING.md "Persistence"): enabled iff cache_dir
  // is non-empty and disk_cache_bytes > 0. RAM misses read through to disk
  // (hits are promoted into the RAM tier); computed results are
  // write-behind-queued for a background flusher.
  std::string cache_dir;
  std::size_t disk_cache_bytes = 0;
};

/// The scheduling service: bounded-queue admission, streaming completion
/// callbacks, graceful drain. Thread-safe: submit() may be called from any
/// number of client threads.
class service {
public:
  /// Completion callback: fires exactly once per admitted request, on a
  /// worker thread, when its response is ready. Must not throw.
  using callback = std::function<void(response)>;

  explicit service(const service_options& options = {});

  /// Drains admitted work, then joins the workers.
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// Submits one raw JSONL request line under sequence number `seq`
  /// (1-based; becomes the response's line number, and picks the worker
  /// slot for fault injection). Returns true when admitted - `done` will
  /// fire exactly once. Returns false when the queue is at capacity: the
  /// request was shed, `done` never fires, and the caller should answer
  /// with overloaded_response(seq). A request's admission slot frees
  /// before its callback runs, so a client that never has more than
  /// queue_capacity requests without a callback is never shed - even when
  /// it submits from inside a callback.
  [[nodiscard]] bool submit(std::uint64_t seq, std::string text, callback done);

  /// The shed-request response: `"error":"overloaded"`, written with the
  /// shed_retry_after_ms hint.
  [[nodiscard]] response overloaded_response(std::uint64_t seq) const;

  /// Blocks until every admitted request has completed (its callback
  /// returned). Safe to call concurrently with submit(): requests admitted
  /// after drain() begins are *not* waited for.
  void drain();

  /// Drains the disk tier's write-behind queue; returns how many records
  /// this call flushed (0 when the disk tier is off). The daemon calls
  /// this after drain() so a clean stop never loses warm entries, and
  /// reports the count as `"flushed":<n>` in the shutdown ack.
  std::size_t flush_disk();

  /// One snapshot of the live counters (the {"op":"stats"} payload).
  [[nodiscard]] service_stats stats() const;

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }
  [[nodiscard]] const service_options& options() const noexcept { return options_; }
  [[nodiscard]] schedule_cache& cache() noexcept { return cache_; }
  /// The persistent tier, or nullptr when not configured.
  [[nodiscard]] disk_cache* disk() noexcept { return disk_.get(); }

private:
  void process(std::uint64_t seq, const std::string& text, const callback& done,
               std::chrono::steady_clock::time_point admitted_at);
  /// process() body: fills `r` with the request's result or its error.
  /// Throws only on an internal failure, which process() answers too.
  void answer(std::uint64_t seq, const std::string& text, response& r);
  void complete(response r, const callback& done,
                std::chrono::steady_clock::time_point admitted_at);
  /// The request's source identity, hashed once per distinct source: the
  /// first ask for a signature hashes it, later asks (concurrent ones
  /// included) wait on that one hash.
  [[nodiscard]] std::shared_future<source_info> lookup_source(const request& req);

  service_options options_;
  unsigned jobs_ = 1;
  schedule_cache cache_;
  std::unique_ptr<disk_cache> disk_; ///< null when the persistent tier is off
  std::unique_ptr<thread_pool> pool_;
  sched::worker_contexts contexts_; ///< one scheduling context per pool worker
  std::chrono::steady_clock::time_point started_at_;

  // Admission + drain bookkeeping. queue_depth_ = admitted requests whose
  // callback has not started; admission is one fetch_add with a rollback,
  // so shedding never takes a lock. peak_queue_depth_ witnesses
  // boundedness for the load harness.
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::size_t> peak_queue_depth_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> deduped_{0};
  latency_histogram latency_;
  mutable std::mutex drain_mutex_;
  std::condition_variable drained_;

  // Source-signature -> source_info memo: each distinct design is hashed
  // once, by the first ask for its signature, which inserts the future of
  // that hash; later asks, concurrent ones included, wait on it instead of
  // hashing again. Bounded by entry count AND bytes (signatures embed raw
  // .dfg text and the canonical_of maps scale with design size, so a
  // stream of distinct large inline designs must not grow memory past the
  // operator's cache budget); wiped when either bound trips - the schedule
  // cache, not the memo, is the capacity story.
  std::mutex memo_mutex_;
  std::unordered_map<std::string, std::shared_future<source_info>> source_memo_;
  std::size_t source_memo_bytes_ = 0;

  // Key -> in-flight computation, as a future of its canonical-space
  // result or the exception that ended it. The leader inserts the future
  // before touching the cache and erases it before publishing, so any
  // follower either joins the flight and reads the result straight off it
  // (never from a cache re-lookup, which would return null for
  // oversize-rejected values) or does its own (possibly cached) lookup.
  std::mutex flight_mutex_;
  std::unordered_map<ir::dfg_digest, std::shared_future<schedule_cache::result_ptr>,
                     ir::dfg_digest_hash>
      flights_;
};

// ---------------------------------------------------------------------------
// The shared connection loop: one framed client session over any transport.

/// How a connection ended.
enum class connection_end {
  eof,            ///< clean EOF at a frame boundary
  shutdown_op,    ///< {"op":"shutdown"}: drained, acked, stopped
  transport_error ///< malformed frame: answered once, drained, closed
};

/// Knobs of one connection (response shape and the retry hint come from
/// the service's own options).
struct connection_options {
  bool ordered = false; ///< input-order responses instead of streaming-as-completed
};

/// Per-connection accounting.
struct connection_summary {
  connection_end end = connection_end::eof;
  std::uint64_t frames = 0;    ///< well-formed frames read (incl. control)
  std::uint64_t requests = 0;  ///< frames submitted to the service
  std::uint64_t responses = 0; ///< response frames written (incl. shed)
  bool write_failed = false;   ///< the peer vanished mid-conversation
};

/// Serves one client over `stream` against a shared service: reads frames,
/// answers control ops (hello / stats / shutdown - serve/protocol.h),
/// submits everything else, and writes response frames either streaming or
/// in input order. Always drains *this connection's* admitted requests
/// before returning - a transport error or dead peer here never stalls or
/// aborts other connections on the same service - and flushes the disk
/// tier's write-behind queue so a closing connection never strands warm
/// entries. `counters`, when given, receives this connection's closing
/// byte totals and feeds the {"op":"stats"} "conns" object.
connection_summary serve_connection(byte_stream& stream, service& svc,
                                    const connection_options& options,
                                    connection_counters* counters = nullptr);

/// One --serve-batch session: submits every non-blank line of `in` to
/// `svc` under its 1-based line number and writes one response line per
/// request to `out`, in input order. Blank lines are skipped but still
/// count toward line numbers; a malformed line answers with an error on
/// its own line. A line longer than frame_limits{}.max_frame_bytes (the
/// --serve frame bound) is never held whole: it answers "request line
/// exceeds the <limit>-byte limit" in its turn without reaching `svc`,
/// adds one to `*rejected` (when given), and the session goes on.
/// At most svc.options().queue_capacity requests are submitted but not
/// yet written at any time, so a session that is the service's only
/// client is never shed (a service shared with other clients may still
/// shed a line; it is answered with the overloaded response in its turn).
/// Returns once every response is written; the number of requests
/// answered.
std::uint64_t serve_batch(std::istream& in, std::ostream& out, service& svc,
                          std::uint64_t* rejected = nullptr);

} // namespace softsched::serve
