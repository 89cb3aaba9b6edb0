#include "util/json_parse.h"

#include <charconv>
#include <cmath>
#include <set>

#include "util/json_scan.h"

namespace softsched {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& message) {
  throw json_error("json: offset " + std::to_string(offset) + ": " + message);
}

using member_list = std::vector<std::pair<std::string, json_value>>;

/// Orders member positions by their keys. A std::set of positions finds a
/// repeated key in O(log n) comparisons, whatever the keys are; a hash
/// index would not, as std::hash<std::string> has a fixed seed and a client
/// can choose keys that all land in one bucket. A comparison reads at most
/// the new key's length, so an object costs O(bytes * log n) to check.
struct key_less {
  const member_list* members;
  bool operator()(std::size_t a, std::size_t b) const noexcept {
    return (*members)[a].first < (*members)[b].first;
  }
};

/// Recursive-descent parser over a string_view with an explicit cursor.
class parser {
public:
  explicit parser(std::string_view text) : text_(text) {}

  json_value parse_document() {
    json_value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after JSON value");
    return v;
  }

private:
  static constexpr int max_depth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  json_value parse_value(int depth) {
    if (depth > max_depth) fail(pos_, "nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
    case '{': return parse_object(depth);
    case '[': return parse_array(depth);
    case '"': return json_value::make_string(parse_string());
    case 't':
      if (consume_literal("true")) return json_value::make_bool(true);
      fail(pos_, "invalid literal");
    case 'f':
      if (consume_literal("false")) return json_value::make_bool(false);
      fail(pos_, "invalid literal");
    case 'n':
      if (consume_literal("null")) return json_value::make_null();
      fail(pos_, "invalid literal");
    default: return parse_number();
    }
  }

  json_value parse_object(int depth) {
    expect('{');
    member_list members;
    std::set<std::size_t, key_less> keys(key_less{&members});
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return json_value::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail(pos_, "expected string key");
      members.emplace_back(parse_string(), json_value());
      if (!keys.insert(members.size() - 1).second)
        fail(pos_, "duplicate key '" + members.back().first + "'");
      skip_ws();
      expect(':');
      members.back().second = parse_value(depth + 1);
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == '}') break;
      if (next != ',') fail(pos_ - 1, "expected ',' or '}' in object");
    }
    return json_value::make_object(std::move(members));
  }

  json_value parse_array(int depth) {
    expect('[');
    std::vector<json_value> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return json_value::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == ']') break;
      if (next != ',') fail(pos_ - 1, "expected ',' or ']' in array");
    }
    return json_value::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const std::size_t special = detail::find_json_special(text_, pos_);
      out.append(text_.data() + pos_, special - pos_);
      pos_ = special;
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail(pos_ - 1, "control character in string");
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': append_unicode_escape(out); break;
      default: fail(pos_ - 1, "invalid escape");
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail(pos_, "truncated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos_ - 1, "invalid \\u escape");
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // Surrogate pair: the low half must follow immediately.
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
        fail(pos_, "unpaired surrogate");
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail(pos_, "invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail(pos_, "unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  json_value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ > first;
    };
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_; // no leading zeros before further digits
    } else if (!digits()) {
      fail(start, "invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail(pos_, "digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) fail(pos_, "digits required in exponent");
    }
    // from_chars, not strtod: JSON numbers are locale-independent, and a
    // host application may have set LC_NUMERIC to a comma-decimal locale.
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec == std::errc::result_out_of_range || !std::isfinite(value))
      fail(start, "number out of range");
    if (ec != std::errc() || end != token.data() + token.size())
      fail(start, "invalid number");
    return json_value::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

} // namespace

bool json_value::as_bool() const {
  if (kind_ != kind::boolean) throw json_error("json: expected a boolean");
  return bool_;
}

double json_value::as_number() const {
  if (kind_ != kind::number) throw json_error("json: expected a number");
  return number_;
}

const std::string& json_value::as_string() const& {
  if (kind_ != kind::string) throw json_error("json: expected a string");
  return string_;
}

std::string json_value::as_string() && {
  if (kind_ != kind::string) throw json_error("json: expected a string");
  return std::move(string_);
}

long long json_value::as_integer(long long lo, long long hi) const {
  // Range-check as a double BEFORE casting: long long <- out-of-range
  // double is undefined behavior, and hostile inputs like 1e30 must come
  // back as a json_error, not a sanitizer abort. Callers pass bounds well
  // within 2^53, where the double comparisons are exact.
  const double d = as_number();
  if (!(d >= static_cast<double>(lo) && d <= static_cast<double>(hi)))
    throw json_error("json: number " + std::to_string(d) + " outside [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
  const long long i = static_cast<long long>(d);
  if (static_cast<double>(i) != d)
    throw json_error("json: expected an integer, got " + std::to_string(d));
  return i;
}

const std::vector<json_value>& json_value::items() const {
  if (kind_ != kind::array) throw json_error("json: expected an array");
  return items_;
}

const std::vector<std::pair<std::string, json_value>>& json_value::members() const& {
  if (kind_ != kind::object) throw json_error("json: expected an object");
  return members_;
}

std::vector<std::pair<std::string, json_value>> json_value::members() && {
  if (kind_ != kind::object) throw json_error("json: expected an object");
  return std::move(members_);
}

const json_value* json_value::find(std::string_view key) const {
  if (kind_ != kind::object) return nullptr;
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

json_value json_value::make_bool(bool b) {
  json_value v;
  v.kind_ = kind::boolean;
  v.bool_ = b;
  return v;
}

json_value json_value::make_number(double d) {
  json_value v;
  v.kind_ = kind::number;
  v.number_ = d;
  return v;
}

json_value json_value::make_string(std::string s) {
  json_value v;
  v.kind_ = kind::string;
  v.string_ = std::move(s);
  return v;
}

json_value json_value::make_array(std::vector<json_value> items) {
  json_value v;
  v.kind_ = kind::array;
  v.items_ = std::move(items);
  return v;
}

json_value json_value::make_object(std::vector<std::pair<std::string, json_value>> members) {
  json_value v;
  v.kind_ = kind::object;
  v.members_ = std::move(members);
  return v;
}

json_value parse_json(std::string_view text) { return parser(text).parse_document(); }

} // namespace softsched
