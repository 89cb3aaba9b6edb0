#include "serve/transport.h"

#include <istream>
#include <ostream>

namespace softsched::serve {

namespace {

/// The length line may not be longer than the digits of max_frame_bytes
/// plus slack; anything beyond that is a garbage stream, not a number.
constexpr std::size_t max_length_digits = 20;

} // namespace

int iostream_byte_stream::get() {
  if (in_ == nullptr) return -1;
  const int ch = in_->get();
  if (ch == std::istream::traits_type::eof()) return -1;
  count_in(1);
  return ch;
}

bool iostream_byte_stream::read_exact(char* dst, std::size_t n) {
  if (n == 0) return true;
  if (in_ == nullptr) return false;
  in_->read(dst, static_cast<std::streamsize>(n));
  const auto got = static_cast<std::size_t>(in_->gcount());
  count_in(got);
  return got == n;
}

bool iostream_byte_stream::write_all(std::string_view data) {
  if (out_ == nullptr) return false;
  out_->write(data.data(), static_cast<std::streamsize>(data.size()));
  if (out_->fail()) return false;
  count_out(data.size());
  return true;
}

bool iostream_byte_stream::flush() {
  if (out_ == nullptr) return false;
  out_->flush();
  return !out_->fail();
}

std::unique_ptr<byte_stream> iostream_listener::accept() {
  if (!open_.exchange(false, std::memory_order_acq_rel)) return nullptr;
  return std::make_unique<iostream_byte_stream>(in_, out_);
}

connection_counters_snapshot snapshot(const connection_counters& c) {
  connection_counters_snapshot s;
  s.accepted = c.accepted.load(std::memory_order_relaxed);
  s.active = c.active.load(std::memory_order_relaxed);
  s.shed = c.shed.load(std::memory_order_relaxed);
  s.closed = c.closed.load(std::memory_order_relaxed);
  s.transport_errors = c.transport_errors.load(std::memory_order_relaxed);
  s.faulted = c.faulted.load(std::memory_order_relaxed);
  s.bytes_in = c.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = c.bytes_out.load(std::memory_order_relaxed);
  s.transport = c.transport;
  return s;
}

frame_read read_frame(byte_stream& in, const frame_limits& limits) {
  frame_read out;

  // -- length line: bare decimal digits up to '\n' --------------------------
  std::string digits;
  for (;;) {
    const int ch = in.get();
    if (ch < 0) {
      if (digits.empty()) return out; // clean EOF at a frame boundary
      out.status = frame_status::error;
      out.error = "transport: EOF inside frame length";
      return out;
    }
    if (ch == '\n') break;
    if (ch < '0' || ch > '9' || digits.size() >= max_length_digits) {
      out.status = frame_status::error;
      out.error = "transport: malformed frame length (expected decimal digits)";
      return out;
    }
    digits.push_back(static_cast<char>(ch));
  }
  if (digits.empty()) {
    out.status = frame_status::error;
    out.error = "transport: empty frame length";
    return out;
  }

  // Accumulate with an overflow guard; the cap check runs before any
  // payload byte is buffered, so an oversize announcement costs nothing.
  std::size_t length = 0;
  for (const char d : digits) {
    if (length > (limits.max_frame_bytes / 10) + 1) {
      length = limits.max_frame_bytes + 1;
      break;
    }
    length = length * 10 + static_cast<std::size_t>(d - '0');
  }
  if (length > limits.max_frame_bytes) {
    out.status = frame_status::error;
    out.error = "transport: frame of " + digits + " bytes exceeds the " +
                std::to_string(limits.max_frame_bytes) + "-byte limit";
    return out;
  }

  // -- payload: exactly `length` bytes, then the terminator ----------------
  out.payload.resize(length);
  if (length > 0 && !in.read_exact(out.payload.data(), length)) {
    out.status = frame_status::error;
    out.payload.clear();
    out.error =
        "transport: truncated frame (EOF before " + digits + " payload bytes)";
    return out;
  }
  if (in.get() != '\n') {
    out.status = frame_status::error;
    out.payload.clear();
    out.error = "transport: missing frame terminator";
    return out;
  }
  out.status = frame_status::ok;
  return out;
}

bool write_frame(byte_stream& out, std::string_view payload) {
  std::string head = std::to_string(payload.size());
  head.push_back('\n');
  if (!out.write_all(head)) return false;
  if (!out.write_all(payload)) return false;
  if (!out.write_all("\n")) return false;
  return out.flush();
}

} // namespace softsched::serve
