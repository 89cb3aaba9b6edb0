#include "serve/diskcache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>

#include "util/binio.h"
#include "util/check.h"

namespace softsched::serve {
namespace fs = std::filesystem;

namespace {

// Offsets of the two header fields serialize_record patches once the
// payload is written (layout in diskcache.h).
constexpr std::size_t payload_len_offset = 24;
constexpr std::size_t checksum_offset = 32;

// Sanity ceiling for length fields parsed out of untrusted bytes, applied
// *before* any allocation sized by them. Far above any real record (a
// schedule_result is a few KB per thousand ops) and far below anything
// that could wedge the process.
constexpr std::uint64_t max_plausible_payload = 1ull << 32;

void sleep_ms(double ms) {
  if (ms > 0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// `<32 hex>` -> digest; false on any non-hex character or wrong length.
bool parse_hex_key(std::string_view stem, ir::dfg_digest& out) {
  if (stem.size() != 32) return false;
  std::uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      const char c = stem[static_cast<std::size_t>(w * 16 + i)];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') nibble = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      else return false;
      words[w] = (words[w] << 4) | nibble;
    }
  }
  out = {words[0], words[1]};
  return true;
}

/// Checksum of one serialized record: FNV-1a 64 over everything except the
/// magic (fixed) and the checksum field itself - version, key, payload
/// length, payload. Covering the key means a bit-flipped key field cannot
/// make record A answer for key B.
std::uint64_t record_checksum(std::string_view record) {
  const std::uint64_t over_header = fnv1a64(record.substr(4, checksum_offset - 4));
  return fnv1a64(record.substr(disk_cache::record_header_bytes), over_header);
}

/// The header fields after the magic and version.
struct record_header {
  ir::dfg_digest key;
  std::uint64_t payload_len = 0;
  std::uint64_t checksum = 0;
};

/// The one header decoder, for lookup, the recovery scan and import:
/// nullopt when `bytes` is shorter than a header or does not start with
/// this build's magic and version.
std::optional<record_header> decode_header(std::string_view bytes) {
  if (bytes.size() < disk_cache::record_header_bytes) return std::nullopt;
  byte_reader r(bytes);
  if (r.u32() != disk_cache::record_magic || r.u32() != disk_cache::record_version)
    return std::nullopt;
  return record_header{{r.u64(), r.u64()}, r.u64(), r.u64()};
}

/// What read_file found.
struct file_read {
  bool ok = false;      ///< false on any I/O error
  bool missing = false; ///< ENOENT: a vanished record is a miss, not an outage
  struct stat st {};    ///< the file's fstat, valid when ok
};

/// The one POSIX read of a record file: the first `limit` bytes of the
/// file at `path` (all of it by default) into `out`.
file_read read_file(const char* path, std::string& out,
                    std::size_t limit = std::numeric_limits<std::size_t>::max()) {
  file_read got;
  out.clear();
  const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    got.missing = errno == ENOENT;
    return got;
  }
  got.ok = ::fstat(fd, &got.st) == 0;
  char buf[1 << 16];
  while (got.ok && out.size() < limit) {
    const ssize_t n = ::read(fd, buf, std::min(sizeof buf, limit - out.size()));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      got.ok = n == 0;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return got;
}

} // namespace

std::string disk_cache::record_filename(const ir::dfg_digest& key) {
  std::string name = key.hex();
  name += ".rec";
  return name;
}

std::string disk_cache::serialize_record(const ir::dfg_digest& key,
                                         const schedule_result& value,
                                         std::uint32_t version) {
  byte_writer w;
  w.u32(record_magic);
  w.u32(version);
  w.u64(key.hi);
  w.u64(key.lo);
  w.u64(0); // payload length, patched below
  w.u64(0); // checksum, patched below
  w.u8(value.feasible ? 1 : 0);
  w.str(value.infeasible_reason);
  w.u64(value.ops);
  w.i64(value.latency);
  w.u64(value.start_times.size());
  for (const long long t : value.start_times) w.i64(t);
  w.u64(value.unit_of.size());
  for (const int u : value.unit_of) w.i64(u);
  // Field-count-prefixed, so growing core::schedule_stats without bumping
  // record_version makes old records read as corrupt (a safe miss) instead
  // of as shifted garbage.
  w.u64(core::schedule_stats_counters.size());
  for (const auto counter : core::schedule_stats_counters) w.u64(value.stats.*counter);
  w.patch_u64(payload_len_offset, w.size() - record_header_bytes);
  w.patch_u64(checksum_offset, record_checksum(w.bytes()));
  return w.take();
}

std::optional<std::pair<ir::dfg_digest, schedule_result>>
disk_cache::deserialize_record(std::string_view bytes, const ir::dfg_digest* expect_key) {
  const std::optional<record_header> header = decode_header(bytes);
  if (!header || header->payload_len != bytes.size() - record_header_bytes ||
      header->checksum != record_checksum(bytes) ||
      (expect_key != nullptr && header->key != *expect_key))
    return std::nullopt;

  byte_reader r(bytes.substr(record_header_bytes));
  schedule_result v;
  v.feasible = r.u8() != 0;
  v.infeasible_reason = r.str();
  v.ops = static_cast<std::size_t>(r.u64());
  v.latency = r.i64();
  const std::uint64_t n_starts = r.u64();
  if (!r.ok() || n_starts > r.remaining() / 8) return std::nullopt;
  v.start_times.reserve(static_cast<std::size_t>(n_starts));
  for (std::uint64_t i = 0; i < n_starts; ++i) v.start_times.push_back(r.i64());
  const std::uint64_t n_units = r.u64();
  if (!r.ok() || n_units > r.remaining() / 8) return std::nullopt;
  v.unit_of.reserve(static_cast<std::size_t>(n_units));
  for (std::uint64_t i = 0; i < n_units; ++i) v.unit_of.push_back(static_cast<int>(r.i64()));
  if (r.u64() != core::schedule_stats_counters.size()) return std::nullopt;
  for (const auto counter : core::schedule_stats_counters) v.stats.*counter = r.u64();
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return std::make_pair(header->key, std::move(v));
}

disk_cache::disk_cache(const disk_cache_options& options) : options_(options) {
  SOFTSCHED_EXPECT(!options_.directory.empty(), "disk cache requires a directory");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    scan_directory();
  }
  flusher_ = std::thread([this] { flusher_main(); });
}

disk_cache::~disk_cache() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true; // the flusher drains what is queued, then exits
  }
  queue_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

std::string disk_cache::path_of(const ir::dfg_digest& key) const {
  return options_.directory + "/" + record_filename(key);
}

void disk_cache::degrade_locked(const char* what) {
  if (!degraded_) {
    degraded_ = true;
    std::fprintf(stderr, "softsched: disk cache degraded to RAM-only (%s failed)\n", what);
  }
}

disk_fault_action disk_cache::next_op_fault() {
  ++op_counter_;
  const auto it = options_.faults.ops.find(op_counter_);
  return it == options_.faults.ops.end() ? disk_fault_action{} : it->second;
}

void disk_cache::scan_directory() {
  const auto t0 = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  struct found {
    ir::dfg_digest key;
    std::size_t size = 0;
    std::int64_t mtime_ns = 0;
  };
  std::vector<found> keep;
  std::vector<std::string> quarantine;
  if (!ec) {
    std::string header;
    for (auto it = fs::directory_iterator(options_.directory, ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
      std::error_code file_ec;
      if (!it->is_regular_file(file_ec) || file_ec) continue;
      const fs::path& p = it->path();
      if (p.extension() != ".rec") continue; // foreign files are not ours to delete
      // Header-only validation: magic, version, embedded key vs filename,
      // declared length vs file size. Checksums are verified at lookup, so
      // the scan stays O(entries) header reads even for a large cache; a
      // payload bit flip is caught (and quarantined) on first access.
      ir::dfg_digest key;
      if (parse_hex_key(p.stem().string(), key)) {
        const file_read got = read_file(p.c_str(), header, record_header_bytes);
        const auto size = static_cast<std::size_t>(got.st.st_size);
        const std::optional<record_header> h = decode_header(header);
        if (got.ok && h && h->key == key && h->payload_len == size - record_header_bytes) {
          const timespec& mtime = got.st.st_mtim;
          keep.push_back({key, size, std::int64_t{mtime.tv_sec} * 1'000'000'000 + mtime.tv_nsec});
          continue;
        }
      }
      quarantine.push_back(p.string());
    }
  }
  if (ec) {
    ++tally_.io_errors;
    degrade_locked("recovery scan");
  } else {
    // Oldest first, so successive push_fronts leave the newest record in
    // the MRU slot - the restart approximates the pre-crash LRU order.
    std::sort(keep.begin(), keep.end(),
              [](const found& a, const found& b) { return a.mtime_ns < b.mtime_ns; });
    for (const found& f : keep) {
      lru_.push_front({f.key, f.size});
      index_.emplace(f.key, lru_.begin());
      bytes_ += f.size;
    }
    tally_.recovered_entries = keep.size();
    for (const std::string& p : quarantine) {
      if (::unlink(p.c_str()) != 0 && errno != ENOENT) {
        ++tally_.io_errors;
        degrade_locked("quarantine unlink");
      }
      ++tally_.corrupt_dropped;
    }
    evict_to_budget_locked();
  }
  tally_.recovery_scan_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

bool disk_cache::write_record_file(const std::string& path, std::string_view bytes,
                                   const disk_fault_action& fault) {
  sleep_ms(fault.delay_ms);
  if (fault.fail) {
    errno = EIO;
    return false;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  // A torn write persists a strict prefix and then *reports success*: the
  // power-loss shape, where the process believed the record landed.
  const std::size_t limit = fault.torn ? bytes.size() / 2 : bytes.size();
  std::size_t done = 0;
  while (done < limit) {
    const ssize_t n = ::write(fd, bytes.data() + done, limit - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (options_.sync_writes && !fault.torn && ::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return false;
  }
  if (::close(fd) != 0) return false;
  return true;
}

disk_cache::result_ptr disk_cache::lookup(const ir::dfg_digest& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (degraded_) {
    ++tally_.misses;
    return nullptr;
  }
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++tally_.misses;
    return nullptr;
  }
  const disk_fault_action fault = next_op_fault();
  sleep_ms(fault.delay_ms);
  std::string bytes;
  const file_read got = fault.fail ? file_read{} : read_file(path_of(key).c_str(), bytes);
  if (!got.ok) {
    if (got.missing) {
      // Someone removed the file behind us (partial directory): drop the
      // stale index entry; a vanished record is a plain miss, not an outage.
      unindex_locked(key);
    } else {
      ++tally_.io_errors;
      degrade_locked("record read");
    }
    ++tally_.misses;
    return nullptr;
  }
  if (fault.torn) bytes.resize(bytes.size() / 2); // deterministic short read
  auto decoded = deserialize_record(bytes, &key);
  if (!decoded) {
    drop_record_locked(key, /*corrupt=*/true);
    ++tally_.misses;
    return nullptr;
  }
  ++tally_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return std::make_shared<const schedule_result>(std::move(decoded->second));
}

void disk_cache::store(const ir::dfg_digest& key, result_ptr value) {
  SOFTSCHED_EXPECT(value != nullptr, "disk cache store requires a value");
  std::lock_guard<std::mutex> lock(mutex_);
  if (degraded_) return;
  store_locked(key, *value);
}

void disk_cache::store_locked(const ir::dfg_digest& key, const schedule_result& value,
                              std::unique_lock<std::mutex>* flusher_lock) {
  const std::string record = serialize_record(key, value);
  if (record.size() > options_.byte_budget) {
    ++tally_.rejected_oversize;
    return;
  }
  const disk_fault_action fault = next_op_fault();
  const std::string path = path_of(key);
  // The key leaves the index while its file is written, so no lookup reads
  // the record half-written - which lets the flusher write off the lock.
  unindex_locked(key);
  if (flusher_lock != nullptr) flusher_lock->unlock();
  const bool written = write_record_file(path, record, fault);
  if (flusher_lock != nullptr) flusher_lock->lock();
  // A synchronous store may have indexed the key while the flusher wrote.
  unindex_locked(key);
  if (!written) {
    ++tally_.io_errors;
    degrade_locked("record write");
    ::unlink(path.c_str()); // best effort: a partial record would be dead weight
    return;
  }
  ++tally_.writes;
  lru_.push_front({key, record.size()});
  index_.emplace(key, lru_.begin());
  bytes_ += record.size();
  evict_to_budget_locked();
}

void disk_cache::unindex_locked(const ir::dfg_digest& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  bytes_ -= it->second->bytes;
  lru_.erase(it->second);
  index_.erase(it);
}

void disk_cache::evict_to_budget_locked() {
  while (bytes_ > options_.byte_budget && !lru_.empty()) {
    const ir::dfg_digest victim = lru_.back().key;
    drop_record_locked(victim, /*corrupt=*/false);
    ++tally_.evictions;
  }
}

void disk_cache::drop_record_locked(const ir::dfg_digest& key, bool corrupt) {
  unindex_locked(key);
  if (::unlink(path_of(key).c_str()) != 0 && errno != ENOENT) {
    ++tally_.io_errors;
    degrade_locked("record unlink");
  }
  if (corrupt) ++tally_.corrupt_dropped;
}

bool disk_cache::enqueue(const ir::dfg_digest& key, result_ptr value) {
  SOFTSCHED_EXPECT(value != nullptr, "disk cache enqueue requires a value");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (degraded_) return false;
    if (queue_.size() >= flush_queue_capacity) {
      ++tally_.queue_dropped;
      return false;
    }
    queue_.emplace_back(key, std::move(value));
  }
  queue_cv_.notify_one();
  return true;
}

std::size_t disk_cache::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t before = tally_.flushed;
  queue_cv_.notify_all();
  flushed_cv_.wait(lock, [this] { return queue_.empty() && !writing_; });
  return static_cast<std::size_t>(tally_.flushed - before);
}

void disk_cache::flusher_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    auto [key, value] = std::move(queue_.front());
    queue_.pop_front();
    writing_ = true;
    // The record is written off the lock, so enqueues and lookups go on
    // meanwhile. An injected io=N:delay_ms holds the flusher inside this
    // write, which is what the CI kill-mid-write-behind leg aims its
    // SIGKILL at.
    if (!degraded_) store_locked(key, *value, &lock);
    ++tally_.flushed;
    writing_ = false;
    if (queue_.empty()) flushed_cv_.notify_all();
  }
}

disk_cache_counters disk_cache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_cache_counters out = tally_;
  out.entries = index_.size();
  out.bytes = bytes_;
  out.queue_depth = queue_.size() + (writing_ ? 1 : 0);
  out.degraded = degraded_;
  return out;
}

bool disk_cache::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

std::optional<std::uint64_t> disk_cache::export_to(std::ostream& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  byte_writer header;
  header.u32(export_magic);
  header.u32(record_version);
  out.write(header.bytes().data(), static_cast<std::streamsize>(header.size()));
  if (!out) return std::nullopt;
  // Snapshot the keys first: a corrupt record found mid-stream is
  // quarantined, which mutates the LRU list we would be iterating.
  std::vector<ir::dfg_digest> keys;
  keys.reserve(lru_.size());
  for (const entry& e : lru_) keys.push_back(e.key);
  std::uint64_t count = 0;
  for (const ir::dfg_digest& key : keys) {
    std::string bytes;
    const file_read got = read_file(path_of(key).c_str(), bytes);
    if (!got.ok) {
      if (!got.missing) {
        ++tally_.io_errors;
        degrade_locked("export read");
      }
      continue;
    }
    if (!deserialize_record(bytes, &key)) {
      drop_record_locked(key, /*corrupt=*/true);
      continue;
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) return std::nullopt;
    ++count;
  }
  return count;
}

disk_import_summary disk_cache::import_from(std::istream& in) {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_import_summary summary;
  char container[8];
  if (!in.read(container, sizeof container)) {
    summary.truncated = true;
    return summary;
  }
  {
    byte_reader r(std::string_view(container, sizeof container));
    if (r.u32() != export_magic || r.u32() != record_version) {
      summary.truncated = true;
      return summary;
    }
  }
  for (;;) {
    std::string record(record_header_bytes, '\0');
    in.read(record.data(), static_cast<std::streamsize>(record_header_bytes));
    if (in.gcount() == 0 && in.eof()) break; // clean end of container
    if (static_cast<std::size_t>(in.gcount()) != record_header_bytes) {
      summary.truncated = true;
      break;
    }
    const std::optional<record_header> header = decode_header(record);
    // A bad length field makes resynchronization unsafe: stop rather than
    // guess where the next record starts.
    if (!header || header->payload_len > max_plausible_payload) {
      ++summary.corrupt_skipped;
      break;
    }
    const std::uint64_t payload_len = header->payload_len;
    record.resize(record_header_bytes + static_cast<std::size_t>(payload_len));
    in.read(record.data() + record_header_bytes, static_cast<std::streamsize>(payload_len));
    if (static_cast<std::size_t>(in.gcount()) != payload_len) {
      summary.truncated = true;
      break;
    }
    const auto decoded = deserialize_record(record);
    if (!decoded) {
      ++summary.corrupt_skipped;
      break;
    }
    if (!degraded_) store_locked(decoded->first, decoded->second);
    ++summary.imported;
  }
  return summary;
}

} // namespace softsched::serve
