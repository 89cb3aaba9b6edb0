#include "util/json.h"

#include <charconv>
#include <cmath>

#include "util/check.h"
#include "util/json_scan.h"

namespace softsched {

namespace {

/// Renders `n` with std::to_chars straight into the tail of `out`, then
/// trims it: no staging buffer and no copy.
template <typename Number>
void append_number(std::string& out, Number n) {
  constexpr std::size_t room = 32; // the longest double or 64-bit integer fits
  const std::size_t size = out.size();
  out.resize(size + room);
  char* const first = out.data() + size;
  const auto [end, ec] = std::to_chars(first, first + room, n);
  SOFTSCHED_EXPECT(ec == std::errc(), "json: number formatting failed");
  out.resize(static_cast<std::size_t>(end - out.data()));
}

} // namespace

void json_writer::newline_indent() {
  if (compact_) return;
  out_ += '\n';
  out_.append(2 * open_.size(), ' ');
}

void json_writer::next_item() {
  char& top = open_.back();
  if ((top & has_items) != 0) out_ += ',';
  top = static_cast<char>(top | has_items);
  newline_indent();
}

void json_writer::before_value() {
  if (key_pending_) {
    key_pending_ = false;
    return;
  }
  SOFTSCHED_EXPECT(open_.empty() ? !wrote_root_ : (open_.back() & in_array) != 0,
                   "json: value needs a key inside an object");
  if (!open_.empty()) next_item();
  wrote_root_ = true;
}

void json_writer::after_value() {
  if (!open_.empty() || os_ == nullptr) return;
  os_->write(out_.data(), static_cast<std::streamsize>(out_.size()));
  out_.clear();
}

void json_writer::open(char bracket, char state) {
  before_value();
  out_ += bracket;
  open_ += state;
}

void json_writer::close(char bracket) {
  const bool had_items = (open_.back() & has_items) != 0;
  open_.pop_back();
  if (had_items) newline_indent();
  out_ += bracket;
  after_value();
}

void json_writer::begin_object() { open('{', 0); }

void json_writer::end_object() {
  SOFTSCHED_EXPECT(!open_.empty() && (open_.back() & in_array) == 0 && !key_pending_,
                   "json: end_object without matching begin_object");
  close('}');
}

void json_writer::begin_array() { open('[', in_array); }

void json_writer::end_array() {
  SOFTSCHED_EXPECT(!open_.empty() && (open_.back() & in_array) != 0 && !key_pending_,
                   "json: end_array without matching begin_array");
  close(']');
}

void json_writer::key(std::string_view name) {
  SOFTSCHED_EXPECT(!open_.empty() && (open_.back() & in_array) == 0 && !key_pending_,
                   "json: key outside of an object");
  next_item();
  out_ += '"';
  write_escaped(name);
  out_ += compact_ ? "\":" : "\": ";
  key_pending_ = true;
}

void json_writer::write_escaped(std::string_view s) {
  std::size_t from = 0;
  while (true) {
    const std::size_t special = detail::find_json_special(s, from);
    out_.append(s.data() + from, special - from);
    if (special == s.size()) return;
    const char c = s[special];
    switch (c) {
    case '"': out_ += "\\\""; break;
    case '\\': out_ += "\\\\"; break;
    case '\n': out_ += "\\n"; break;
    case '\r': out_ += "\\r"; break;
    case '\t': out_ += "\\t"; break;
    default: {
      constexpr char hex[] = "0123456789abcdef";
      const char escape[] = {'\\', 'u', '0', '0', hex[(c >> 4) & 0xf], hex[c & 0xf]};
      out_.append(escape, sizeof escape);
    }
    }
    from = special + 1;
  }
}

void json_writer::value(std::string_view s) {
  before_value();
  out_ += '"';
  write_escaped(s);
  out_ += '"';
  after_value();
}

void json_writer::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
  after_value();
}

void json_writer::value(double d) {
  before_value();
  SOFTSCHED_EXPECT(std::isfinite(d), "json: non-finite number");
  append_number(out_, d);
  after_value();
}

void json_writer::value(long long i) {
  before_value();
  append_number(out_, i);
  after_value();
}

void json_writer::value(unsigned long long i) {
  before_value();
  append_number(out_, i);
  after_value();
}

bool json_writer::done() const noexcept { return wrote_root_ && open_.empty() && !key_pending_; }

std::string json_writer::str() && {
  SOFTSCHED_EXPECT(os_ == nullptr && done(), "json: str() needs a finished in-memory document");
  return std::move(out_);
}

} // namespace softsched
