// json_scan.h - the byte scan the JSON reader and writer share: where the
// next byte lies that a JSON string cannot carry as it is ('"', '\\' or a
// control byte below 0x20). The lexer (json_parse.cpp) appends the plain
// run before it to the decoded string in one call; the writer (json.cpp)
// copies it to its buffer in one call before it escapes that byte.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace softsched::detail {

/// Position of the first '"', '\\' or byte below 0x20 in `s` at or after
/// `from` (<= s.size()); s.size() when there is none.
///
/// Eight bytes per step. A lane is flagged by the has-zero-byte test
/// ((x - 0x01..) & ~x & 0x80..) on w ^ '"' and w ^ '\\', and by the same
/// borrow test with 0x20 for control bytes. A borrow only runs from a
/// flagged lane upward, so the lowest flag of the three is exact.
inline std::size_t find_json_special(std::string_view s, std::size_t from) noexcept {
  constexpr std::uint64_t ones = 0x0101010101010101ull;
  constexpr std::uint64_t highs = 0x8080808080808080ull;
  const char* const p = s.data();
  std::size_t i = from;
  for (; s.size() - i >= 8; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
    const std::uint64_t quote = w ^ (ones * '"');
    const std::uint64_t slash = w ^ (ones * '\\');
    const std::uint64_t flagged = (((quote - ones) & ~quote) | ((slash - ones) & ~slash) |
                                   ((w - ones * 0x20) & ~w)) &
                                  highs;
    if (flagged != 0) return i + static_cast<std::size_t>(std::countr_zero(flagged)) / 8;
  }
  for (; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(p[i]);
    if (c == '"' || c == '\\' || c < 0x20) return i;
  }
  return s.size();
}

} // namespace softsched::detail
