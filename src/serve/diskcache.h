// diskcache.h - the persistent tier below the RAM schedule cache
// (serve/cache.h): a content-addressed on-disk store of serialized
// schedule_result records, keyed by the same process-stable 128-bit
// schedule_key, with its own byte budget and LRU eviction, a bounded
// write-behind flusher, and export/import so a fleet can ship warm caches.
//
// The governing invariant is **degrade, never lie**:
//
//   * a torn, truncated, bit-flipped, version-skewed or otherwise invalid
//     record is a MISS - the record is quarantined (deleted) and counted
//     in corrupt_dropped, and the caller recomputes. Every read verifies
//     magic + version + key + length + checksum before a byte of payload
//     is trusted;
//   * any real I/O failure (open/read/write/fsync error, the directory
//     vanishing mid-run) flips the cache into *degraded* mode: the disk
//     tier goes inert (lookups miss instantly, writes are dropped), the
//     io_errors/degraded counters record it, and the service keeps serving
//     from RAM. Nothing on this path ever throws into the serving loop.
//
// On-disk format: one file per record, named `<32-hex-key>.rec` inside the
// cache directory. Record layout (all integers little-endian, util/binio):
//
//   u32 magic 'SSDC'   u32 version   u64 key_hi   u64 key_lo
//   u64 payload_len    u64 checksum  payload bytes
//
// The checksum is FNV-1a 64 over (version, key_hi, key_lo, payload_len,
// payload), so a bit flip anywhere that matters - including in the key
// field, which would otherwise let record A answer for key B - fails
// verification. The payload is the byte_writer serialization of one
// schedule_result; its stats block is field-count-prefixed and walks
// core::schedule_stats_counters, so adding a counter to schedule_stats
// without bumping the record version reads as corrupt, not as garbage.
//
// One codec: serialize_record is the only record writer, and one header
// decoder serves lookup, the recovery scan and import. The scan reads
// headers only; a record's payload is read and checksummed on lookup.
//
// Concurrency: one mutex serializes index/LRU/counters *and* the record
// I/O of lookups and synchronous stores. This tier sits below a RAM miss -
// the slow path by construction - and holding the lock across the (small)
// file read/write keeps the index/filesystem agreement trivially correct.
// The background flusher writes each record off the mutex, so a serving
// worker's enqueue or lookup never waits on write-behind I/O; a record's
// key leaves the index while its file is written, so no lookup in this
// process reads it half-written. Readers in *other processes* share no
// lock; they are protected by record validation alone (a half-written
// record reads as corrupt -> miss), which is exactly the crash-tolerance
// property and is pinned in tests/persist_test.cpp.
//
// Fault injection: disk_fault_plan targets the Nth disk operation (1-based
// count of record read/write attempts, in order) with delay / fail / torn
// actions - `fail` is a reported I/O error (degrades the tier), `torn`
// writes a prefix of the record and *pretends success* (the kill -9 /
// power-loss shape: bytes partially hit disk and nobody knew). Parsed from
// SOFTSCHED_INJECT's `io=` rules (serve/daemon.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <condition_variable>
#include <deque>

#include "serve/cache.h"

namespace softsched::serve {

/// What an injected disk fault does to its target operation.
struct disk_fault_action {
  double delay_ms = 0;
  bool fail = false; ///< report an I/O error (tier degrades)
  bool torn = false; ///< writes: persist a prefix, report success
};

/// Injection plan for the disk tier: op index (1-based, counting every
/// record read/write attempt in order) -> action. Deterministic for a
/// serial request stream, which is what the corruption/outage tests need.
struct disk_fault_plan {
  std::unordered_map<std::uint64_t, disk_fault_action> ops;

  [[nodiscard]] bool empty() const noexcept { return ops.empty(); }
};

struct disk_cache_options {
  std::string directory;                  ///< must be non-empty
  std::size_t byte_budget = 256ull << 20; ///< payload+header bytes on disk
  bool sync_writes = false;               ///< fsync each record before success
  disk_fault_plan faults;                 ///< empty = no injection
};

/// Cumulative disk-tier counters (all monotone except entries/bytes/
/// queue_depth, which describe current residency).
struct disk_cache_counters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< includes degraded-mode fast misses
  std::uint64_t writes = 0;          ///< records successfully persisted
  std::uint64_t evictions = 0;       ///< records deleted for budget
  std::uint64_t rejected_oversize = 0;
  std::uint64_t corrupt_dropped = 0; ///< invalid records quarantined
  std::uint64_t io_errors = 0;       ///< real I/O failures (each may degrade)
  std::uint64_t queue_dropped = 0;   ///< write-behind entries shed (queue full)
  std::uint64_t flushed = 0;         ///< write-behind entries drained to disk
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t queue_depth = 0;       ///< write-behind entries not yet on disk
  bool degraded = false;
  double recovery_scan_ms = 0;       ///< open-time directory scan duration
  std::uint64_t recovered_entries = 0; ///< records indexed by the open scan
};

/// Summary of an import_from() run.
struct disk_import_summary {
  std::uint64_t imported = 0;        ///< records validated and stored
  std::uint64_t corrupt_skipped = 0; ///< invalid records encountered
  bool truncated = false; ///< stream ended inside a record / bad container header
};

/// The persistent schedule-cache tier. Thread-safe. Never throws from
/// lookup/store/flush (constructor may throw precondition_error on an
/// empty directory string only - everything filesystem-shaped degrades
/// instead).
class disk_cache {
public:
  using result_ptr = schedule_cache::result_ptr;

  /// Opens (creating the directory if needed) and runs the recovery scan:
  /// every `*.rec` file is header-validated and indexed; invalid files are
  /// quarantined. A directory that cannot be created/scanned leaves the
  /// cache constructed but degraded.
  explicit disk_cache(const disk_cache_options& options);

  /// Flushes the write-behind queue, then joins the flusher.
  ~disk_cache();

  disk_cache(const disk_cache&) = delete;
  disk_cache& operator=(const disk_cache&) = delete;

  /// Read-through lookup: returns the deserialized record or nullptr on
  /// miss / corruption / degraded mode. A returned value is exactly what
  /// store() was given (bit-for-bit round trip), so promoting it into the
  /// RAM tier preserves the response-byte determinism contract.
  [[nodiscard]] result_ptr lookup(const ir::dfg_digest& key);

  /// Synchronous write (also the flusher's backend): serialize, persist,
  /// index, evict LRU records past the budget. Oversize values are
  /// rejected; I/O failures degrade.
  void store(const ir::dfg_digest& key, result_ptr value);

  /// Write-behind: enqueue for the background flusher. Returns false (and
  /// counts queue_dropped) when flush_queue_capacity records are already
  /// queued - the RAM tier still has the value; losing a write-behind is
  /// a future cold miss, never an error.
  bool enqueue(const ir::dfg_digest& key, result_ptr value);

  /// Bound of the write-behind queue.
  static constexpr std::size_t flush_queue_capacity = 256;

  /// Blocks until every currently queued write-behind record is on disk
  /// (or dropped by degradation); returns how many this call drained. The
  /// daemon's drain path calls this so a clean stop never loses warm
  /// entries, and reports the count in the shutdown ack.
  std::size_t flush();

  [[nodiscard]] disk_cache_counters counters() const;
  [[nodiscard]] bool degraded() const;
  [[nodiscard]] const disk_cache_options& options() const noexcept { return options_; }

  /// Streams every valid resident record to `out` behind a container
  /// header; corrupt records are quarantined and skipped. Returns the
  /// record count written, or nullopt on a write error to `out`.
  std::optional<std::uint64_t> export_to(std::ostream& out);

  /// Reads a container written by export_to and store()s every valid
  /// record (subject to budget/eviction). Stops at the first corrupt
  /// record (a bad length field makes resynchronization unsafe) and
  /// reports it in the summary.
  disk_import_summary import_from(std::istream& in);

  // -- record format (exposed for tests and the corruption matrix) --------
  static constexpr std::uint32_t record_magic = 0x43445353u;   ///< "SSDC" LE
  static constexpr std::uint32_t record_version = 1;
  static constexpr std::size_t record_header_bytes = 40;
  static constexpr std::uint32_t export_magic = 0x58435353u;   ///< "SSCX" LE

  /// `<32-hex>.rec` filename for a key (no directory part).
  [[nodiscard]] static std::string record_filename(const ir::dfg_digest& key);

  /// Serializes one complete record (header + payload). `version` is
  /// overridable so tests can craft version-skewed records whose checksum
  /// is otherwise valid.
  [[nodiscard]] static std::string serialize_record(const ir::dfg_digest& key,
                                                    const schedule_result& value,
                                                    std::uint32_t version = record_version);

  /// Validates + decodes one record. Returns nullopt on any defect
  /// (wrong magic/version/length/checksum, short buffer, malformed
  /// payload). When `expect_key` is non-null the record's key field must
  /// match it too.
  [[nodiscard]] static std::optional<std::pair<ir::dfg_digest, schedule_result>>
  deserialize_record(std::string_view bytes, const ir::dfg_digest* expect_key = nullptr);

private:
  struct entry {
    ir::dfg_digest key;
    std::size_t bytes = 0;
  };
  using lru_list = std::list<entry>;

  [[nodiscard]] std::string path_of(const ir::dfg_digest& key) const;
  void scan_directory();
  /// Applies the injection rule for the next disk op. Returns the action
  /// (empty action when uninjected).
  disk_fault_action next_op_fault();
  void degrade_locked(const char* what);
  /// store() body under mutex_ already held. The flusher passes its lock,
  /// which is released while the record file is written.
  void store_locked(const ir::dfg_digest& key, const schedule_result& value,
                    std::unique_lock<std::mutex>* flusher_lock = nullptr);
  /// Drops the key's index entry and its bytes; its file stays.
  void unindex_locked(const ir::dfg_digest& key);
  void evict_to_budget_locked();
  void drop_record_locked(const ir::dfg_digest& key, bool corrupt);
  [[nodiscard]] bool write_record_file(const std::string& path, std::string_view bytes,
                                       const disk_fault_action& fault);
  void flusher_main();

  disk_cache_options options_;
  mutable std::mutex mutex_;
  lru_list lru_; ///< front = most recently used
  std::unordered_map<ir::dfg_digest, lru_list::iterator, ir::dfg_digest_hash> index_;
  disk_cache_counters tally_; ///< entries/bytes/queue_depth derived on read
  std::size_t bytes_ = 0;
  bool degraded_ = false;
  std::uint64_t op_counter_ = 0; ///< injection op index (under mutex_)

  // Write-behind queue + flusher thread.
  std::condition_variable queue_cv_;   ///< signals the flusher: work or stop
  std::condition_variable flushed_cv_; ///< signals flush(): queue went empty
  std::deque<std::pair<ir::dfg_digest, result_ptr>> queue_;
  bool writing_ = false; ///< flusher holds a dequeued record not yet stored
  bool stopping_ = false;
  std::thread flusher_;
};

} // namespace softsched::serve
