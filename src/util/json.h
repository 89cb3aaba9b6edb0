// json.h - minimal JSON writer for the serve engine's response lines, the
// daemon's control frames, --explore-out and the benchmark harnesses
// (BENCH_softsched.json). Emits pretty-printed or compact, deterministic
// output with correct string escaping and comma placement; no DOM, no
// parsing. The CI smoke job validates the result with an external JSON
// parser, so the writer enforces well-formedness structurally (keys only
// inside objects, values only where a value is expected) via precondition
// checks.
//
// Buffered: the document is built in one std::string (numbers through
// std::to_chars, strings copied in plain runs between the bytes that need
// an escape) and written to the ostream in one call, when the root value
// closes. Nothing reaches the stream before that. A writer built without a
// stream keeps the document, and std::move(writer).str() hands it over, so
// a caller that wants a string (the serve frames) copies nothing.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace softsched {

/// JSON writer. Usage:
///
///   json_writer j(os);
///   j.begin_object();
///     j.key("name"); j.value("ewf");
///     j.key("sizes"); j.begin_array();
///       j.value(1); j.value(2);
///     j.end_array();
///   j.end_object();
///
/// Destruction does not auto-close containers; callers finish what they
/// open (done() checks). A writer left with its root open writes nothing.
class json_writer {
public:
  /// `compact` drops all newlines/indentation - one-line output for JSONL
  /// streams (the serve engine's response lines).
  explicit json_writer(std::ostream& os, bool compact = false)
      : os_(&os), compact_(compact) {}

  /// Keeps the document in memory; take it with str() once done().
  explicit json_writer(bool compact = false) : compact_(compact) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object member name; must be directly followed by a value/container.
  void key(std::string_view name);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(double d);
  void value(long long i);
  void value(unsigned long long i);
  void value(int i) { value(static_cast<long long>(i)); }
  void value(std::size_t i) { value(static_cast<unsigned long long>(i)); }

  /// Convenience: key + value in one call.
  template <typename T>
  void member(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  /// True once every opened container has been closed (and something was
  /// written).
  [[nodiscard]] bool done() const noexcept;

  /// The finished document of a writer built without a stream.
  [[nodiscard]] std::string str() &&;

private:
  /// The state bits of one open container.
  static constexpr char in_array = 1;  ///< an array, else an object
  static constexpr char has_items = 2; ///< the next item needs a comma

  void before_value();
  void after_value(); ///< writes the document out once the root is complete
  void next_item();   ///< comma (after the first item) and indentation
  void open(char bracket, char state);
  void close(char bracket);
  void newline_indent();
  void write_escaped(std::string_view s);

  std::ostream* os_ = nullptr; ///< nullptr: the document stays in out_
  bool compact_ = false;
  std::string out_;  ///< the document so far
  std::string open_; ///< one state byte per open container, innermost last
  bool key_pending_ = false;
  bool wrote_root_ = false;
};

} // namespace softsched
