// json_parse.h - minimal JSON reader for the batch-scheduling service: the
// serve engine consumes one JSON object per JSONL request line. Counterpart
// of json_writer (json.h), which stays write-only.
//
// Scope is deliberately narrow: full JSON value grammar (object, array,
// string with escapes, number, true/false/null), strict - trailing garbage,
// unterminated containers and bad escapes are errors - and a small DOM that
// preserves object member order. Numbers are stored as double (request
// fields are small integers; 53 bits of exactness is far more than any
// field needs).
//
// Cost is linear in the input. A string body is scanned eight bytes at a
// time for the next '"', '\' or control byte (util/json_scan.h), and the
// plain run before it is appended in one call, so an inline .dfg upload
// decodes at memcpy-like speed between its escapes. Duplicate keys are
// caught through an ordered set of each object's keys, so an object of n
// keys costs O(log n) comparisons per key whatever keys a client chooses;
// the first repeat in document order is reported, at the offset just past
// it.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace softsched {

/// Thrown on malformed JSON text, with a character offset in the message.
class json_error : public std::runtime_error {
public:
  explicit json_error(const std::string& what) : std::runtime_error(what) {}
};

/// One parsed JSON value. Object members keep their textual order;
/// duplicate keys are rejected at parse time.
class json_value {
public:
  enum class kind { null, boolean, number, string, array, object };

  json_value() = default;

  [[nodiscard]] kind type() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == kind::null; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == kind::number; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == kind::string; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == kind::array; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == kind::object; }

  /// Typed accessors; throw json_error when the value has another kind.
  /// The rvalue overloads of as_string() and members() move the decoded
  /// text out of a DOM its reader no longer needs.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const&;
  [[nodiscard]] std::string as_string() &&;

  /// as_number() that additionally requires an integer in [lo, hi].
  [[nodiscard]] long long as_integer(long long lo, long long hi) const;

  [[nodiscard]] const std::vector<json_value>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, json_value>>& members() const&;
  [[nodiscard]] std::vector<std::pair<std::string, json_value>> members() &&;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const json_value* find(std::string_view key) const;

  static json_value make_null() { return json_value(); }
  static json_value make_bool(bool b);
  static json_value make_number(double d);
  static json_value make_string(std::string s);
  static json_value make_array(std::vector<json_value> items);
  static json_value make_object(std::vector<std::pair<std::string, json_value>> members);

private:
  kind kind_ = kind::null;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<json_value> items_;
  std::vector<std::pair<std::string, json_value>> members_;
};

/// Parses exactly one JSON value spanning the whole input (surrounding
/// whitespace allowed). Throws json_error on malformed text.
[[nodiscard]] json_value parse_json(std::string_view text);

} // namespace softsched
