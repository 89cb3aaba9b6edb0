// batch_session.h - shared by the tests that drive --serve-batch in
// process: run request lines through one serve::serve_batch session
// against a service and read its response lines back.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/daemon.h"
#include "util/json_parse.h"

namespace batch_session {

/// One session over `lines` (one request per entry; an empty entry is a
/// blank input line) against `svc`; returns its response lines. Drains the
/// service afterwards, so its counters are settled.
inline std::vector<std::string> run(softsched::serve::service& svc,
                                    const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& l : lines) text += l + "\n";
  std::istringstream in(text);
  std::ostringstream out;
  (void)softsched::serve::serve_batch(in, out, svc);
  svc.drain();
  std::vector<std::string> responses;
  std::istringstream split(out.str());
  for (std::string l; std::getline(split, l);) responses.push_back(l);
  return responses;
}

/// One session on a fresh service.
inline std::vector<std::string> run(const softsched::serve::service_options& options,
                                    const std::vector<std::string>& lines) {
  softsched::serve::service svc(options);
  return run(svc, lines);
}

/// `line` without its "ms" member (always the last one) - the one field
/// the determinism contract leaves free.
inline std::string strip_ms(const std::string& line) {
  const std::size_t at = line.rfind(",\"ms\":");
  return at == std::string::npos ? line : line.substr(0, at) + "}";
}

inline std::vector<std::string> strip_ms(std::vector<std::string> lines) {
  for (std::string& l : lines) l = strip_ms(l);
  return lines;
}

/// The result part of a response line: everything after its line and id
/// members, minus ms. Equal for two requests served the same schedule in
/// the same numbering.
inline std::string result_of(const std::string& line) {
  const std::size_t from = line.find(",\"backend\":");
  return from == std::string::npos ? std::string() : strip_ms(line.substr(from));
}

inline std::vector<softsched::json_value> parsed(const std::vector<std::string>& lines) {
  std::vector<softsched::json_value> out;
  for (const std::string& l : lines) out.push_back(softsched::parse_json(l));
  return out;
}

/// A string member, or "" when absent.
inline std::string text(const softsched::json_value& response, std::string_view key) {
  const softsched::json_value* v = response.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

/// An integer array member ("start" / "unit").
inline std::vector<long long> numbers(const softsched::json_value& response,
                                      std::string_view key) {
  std::vector<long long> out;
  if (const softsched::json_value* v = response.find(key); v != nullptr)
    for (const softsched::json_value& x : v->items()) out.push_back(x.as_integer(-1, 1LL << 40));
  return out;
}

} // namespace batch_session
