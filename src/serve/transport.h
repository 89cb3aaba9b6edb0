// transport.h - the stream layer of the resident scheduling daemon
// (`softsched_cli --serve`): a transport-agnostic duplex byte stream, a
// listener that accepts such streams, and the frame codec that runs over
// them. One frame carries one JSONL payload in either direction:
//
//   <decimal byte count>\n<payload bytes>\n
//
// The count covers exactly the payload (not the terminating newline), so a
// stream of single-line JSON payloads stays line-structured - length lines
// and payload lines alternate, and shell tooling (`awk 'NR%2==0'`) can
// recover the payloads - while payloads containing embedded newlines
// (inline multi-line `dfg` uploads) remain unambiguous, because the reader
// consumes by count, never by scanning for a delimiter.
//
// Every transport is a listener, and socket_server (serve/socket.h) runs
// one accept loop over whichever the daemon was given: stdio is an
// iostream_listener below, a listener with exactly one connection over the
// --serve input and --out streams; TCP and Unix-domain sockets are the
// listeners of serve/socket.h. The codec is written against `byte_stream`,
// so the same framing serves all of them. Hostile input never throws and
// never desynchronizes silently - a malformed length, an oversize frame,
// or an EOF mid-frame comes back as frame_status::error with a diagnostic,
// and the daemon's policy (emit one transport-error response, stop reading
// *that stream*, drain) is pinned in tests/daemon_test.cpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace softsched::serve {

/// Transport bounds. The frame cap exists for admission control at the
/// byte level: a client must not be able to make the daemon buffer an
/// unbounded payload before the request queue ever sees it.
struct frame_limits {
  std::size_t max_frame_bytes = 8u << 20; ///< largest accepted payload
};

enum class frame_status {
  ok,   ///< one complete frame read
  eof,  ///< clean end of stream (EOF exactly at a frame boundary)
  error ///< malformed input; `error` holds the diagnostic
};

/// Result of one read_frame call.
struct frame_read {
  frame_status status = frame_status::eof;
  std::string payload; ///< valid iff status == ok
  std::string error;   ///< non-empty iff status == error
};

/// A duplex byte channel: the one interface every daemon transport
/// implements. Reads are single-consumer (one reader loop per stream);
/// writes may come from many worker threads but are serialized by the
/// caller (the connection's frame writer holds a mutex). Byte counters are
/// atomics so {"op":"stats"} can snapshot them from any thread.
class byte_stream {
public:
  virtual ~byte_stream() = default;

  /// Next byte as unsigned char, or -1 on EOF / error.
  [[nodiscard]] virtual int get() = 0;

  /// Exactly `n` bytes into `dst`; false on EOF or error mid-read.
  [[nodiscard]] virtual bool read_exact(char* dst, std::size_t n) = 0;

  /// All of `data`, or false when the peer is gone. A false return is
  /// sticky: the connection keeps draining, it just stops talking.
  [[nodiscard]] virtual bool write_all(std::string_view data) = 0;

  /// Pushes buffered output to the peer; false when the stream failed.
  virtual bool flush() = 0;

  /// Diagnostic label: "stdio", "tcp:127.0.0.1:4040", "unix:/tmp/d.sock".
  [[nodiscard]] virtual std::string label() const = 0;

  /// Unblocks a reader stuck in get()/read_exact() from another thread
  /// (socket streams half-close the read side); the reader then sees EOF
  /// at the next frame boundary. No-op for streams that cannot.
  virtual void shutdown_read() {}

  /// Signals end-of-requests to the peer while keeping the read side open
  /// (socket streams half-close the write side). Clients use this to turn
  /// "I sent everything" into the server's clean EOF.
  virtual void finish_write() {}

  [[nodiscard]] std::uint64_t bytes_in() const noexcept {
    return bytes_in_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_out() const noexcept {
    return bytes_out_.load(std::memory_order_relaxed);
  }

protected:
  void count_in(std::size_t n) noexcept {
    bytes_in_.fetch_add(n, std::memory_order_relaxed);
  }
  void count_out(std::size_t n) noexcept {
    bytes_out_.fetch_add(n, std::memory_order_relaxed);
  }

private:
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

/// std::istream/std::ostream adapter - the stream of the stdio transport.
/// Either side may be null (a read-only or write-only stream). Carries no
/// state of its own beyond the counters, so adapters may be constructed per
/// call. A blocked istream read cannot be interrupted, so shutdown_read()
/// stays a no-op: the stream is read to its own end.
class iostream_byte_stream final : public byte_stream {
public:
  iostream_byte_stream(std::istream* in, std::ostream* out) : in_(in), out_(out) {}

  [[nodiscard]] int get() override;
  [[nodiscard]] bool read_exact(char* dst, std::size_t n) override;
  [[nodiscard]] bool write_all(std::string_view data) override;
  bool flush() override;
  [[nodiscard]] std::string label() const override { return "stdio"; }

private:
  std::istream* in_;
  std::ostream* out_;
};

/// Accepts byte streams: the server half of a transport. accept() blocks
/// until a client connects and returns its stream, or returns null once
/// shutdown() was called (from any thread) or the listener failed.
class listener {
public:
  virtual ~listener() = default;
  [[nodiscard]] virtual std::unique_ptr<byte_stream> accept() = 0;
  virtual void shutdown() = 0;
  /// The bound address in --listen grammar (after ephemeral-port
  /// resolution), e.g. "tcp:127.0.0.1:45123" or "unix:serve.sock".
  [[nodiscard]] virtual std::string address() const = 0;
};

/// The stdio transport as a listener: exactly one connection, an
/// iostream_byte_stream over `in` and `out`. The first accept() returns it
/// (unless shutdown() came first); every later one returns null, so the
/// accept loop serves that one connection to its end - EOF, a shutdown op
/// or a transport error - and returns. Both streams must outlive the
/// connection.
class iostream_listener final : public listener {
public:
  iostream_listener(std::istream& in, std::ostream& out) : in_(&in), out_(&out) {}

  [[nodiscard]] std::unique_ptr<byte_stream> accept() override;
  void shutdown() override { open_.store(false, std::memory_order_release); }
  [[nodiscard]] std::string address() const override { return "stdio"; }

private:
  std::istream* in_;
  std::ostream* out_;
  std::atomic<bool> open_{true};
};

/// Aggregate transport counters for one daemon session, shared by every
/// connection it serves. Snapshotted into {"op":"stats"} (the "conns"
/// object) and the CLI stderr summary. Byte counters fold in when a
/// connection closes; the stats renderer adds the asking connection's own
/// live bytes on top.
struct connection_counters {
  std::atomic<std::uint64_t> accepted{0};         ///< connections accepted
  std::atomic<std::uint64_t> active{0};           ///< currently being served
  std::atomic<std::uint64_t> shed{0};             ///< refused: too_many_connections
  std::atomic<std::uint64_t> closed{0};           ///< ended (any reason)
  std::atomic<std::uint64_t> transport_errors{0}; ///< ended by a malformed frame
  std::atomic<std::uint64_t> faulted{0};          ///< dropped by conn= injection
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::string transport; ///< listener label; set once before serving
};

/// Plain-value copy of connection_counters (one coherent-enough read of
/// each counter; exact coherence across counters is not promised).
struct connection_counters_snapshot {
  std::uint64_t accepted = 0;
  std::uint64_t active = 0;
  std::uint64_t shed = 0;
  std::uint64_t closed = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t faulted = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::string transport;
};

[[nodiscard]] connection_counters_snapshot snapshot(const connection_counters& c);

/// Reads one frame. Anything but a well-formed `<count>\n<payload>\n`
/// whose count is within `limits` is an error: a non-digit or empty length
/// line, a length above max_frame_bytes (rejected *before* buffering any
/// payload), EOF inside the length line, EOF before `count` payload bytes
/// arrived (truncated frame), or a missing frame terminator.
[[nodiscard]] frame_read read_frame(byte_stream& in, const frame_limits& limits = {});

/// Writes `payload` as one frame (length line, payload bytes, terminator)
/// and flushes, so a single-request client sees its response without
/// waiting for the daemon's output buffer to fill. Returns false when the
/// stream rejected the write (peer gone).
bool write_frame(byte_stream& out, std::string_view payload);

} // namespace softsched::serve
