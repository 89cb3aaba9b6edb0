// json_duplicate_key_test.cpp - the duplicate-key check of parse_json on
// hostile objects: 300k distinct keys, then a repeat; and 200k keys that
// all share one std::hash<std::string> value, then a repeat. A pairwise
// check would take minutes on the first (it is quadratic in the member
// count), and a hash index keyed by std::hash on the second (every key
// lands in one bucket). Each case is its own ctest entry with a 60-second
// timeout.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#include "util/json_parse.h"

namespace {

void expect_duplicate_error(const std::string& doc, std::size_t offset,
                            const std::string& key) {
  try {
    (void)softsched::parse_json(doc);
    FAIL() << "expected a duplicate-key error";
  } catch (const softsched::json_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "json: offset " + std::to_string(offset) + ": duplicate key '" + key + "'");
  }
}

// libstdc++'s std::hash<std::string> on 64-bit targets is _Hash_bytes
// with the fixed seed 0xc70f6907: a MurmurHash2 variant whose state after
// each 8-byte block b is (state ^ mix(b)) * mul, with mix(b) =
// shift_mix(b * mul) * mul. Every step can be inverted, so the second
// block of a 16-byte key can be solved to bring the state to 0 whatever
// the first block was, and all such keys hash alike.
constexpr std::uint64_t mul = 0xc6a4a7935bd1e995ull;
constexpr std::uint64_t seed = 0xc70f6907ull;

constexpr std::uint64_t shift_mix(std::uint64_t v) { return v ^ (v >> 47); }

/// The inverse of an odd number modulo 2^64, by Newton's iteration.
constexpr std::uint64_t inverse(std::uint64_t a) {
  std::uint64_t x = a; // correct in the low 3 bits; each step doubles that
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}
static_assert(mul * inverse(mul) == 1);

/// Key `i`: eight decimal digits, then the block that zeroes the state.
std::string colliding_key(int i) {
  char head[9];
  std::snprintf(head, sizeof head, "%08d", i);
  std::uint64_t first;
  std::memcpy(&first, head, 8);
  const std::uint64_t state = ((seed ^ (16 * mul)) ^ (shift_mix(first * mul) * mul)) * mul;
  // mix(second) must equal `state`; shift_mix is its own inverse.
  const std::uint64_t second = shift_mix(state * inverse(mul)) * inverse(mul);
  std::string key(head, 8);
  key.resize(16);
  std::memcpy(key.data() + 8, &second, 8);
  return key;
}

/// `raw` as a JSON string: bytes the grammar cannot carry raw as \u00XX,
/// all others (those at and above 0x80 included) as they are.
std::string json_string(std::string_view raw) {
  std::string out = "\"";
  for (const char c : raw) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || c == '"' || c == '\\') {
      char esc[7];
      std::snprintf(esc, sizeof esc, "\\u%04x", u);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + '"';
}

} // namespace

TEST(JsonParse, RepeatAfter300kDistinctKeysIsFound) {
  std::string doc = "{";
  for (int i = 0; i < 300000; ++i) doc += "\"k" + std::to_string(i) + "\":0,";
  doc += "\"k7\"";
  const std::size_t offset = doc.size(); // just past the repeated key
  doc += ":1}";
  expect_duplicate_error(doc, offset, "k7");
}

TEST(JsonParse, RepeatAfter200kKeysOfEqualStdHashIsFound) {
  constexpr int keys = 200000;
#if defined(__GLIBCXX__) && __SIZEOF_SIZE_T__ == 8
  // The input is hostile to a std::hash index on this library.
  const std::size_t hash = std::hash<std::string>{}(colliding_key(0));
  for (int i = 1; i < keys; i += 997)
    ASSERT_EQ(std::hash<std::string>{}(colliding_key(i)), hash) << "key " << i;
#endif
  std::string doc = "{";
  for (int i = 0; i < keys; ++i) doc += json_string(colliding_key(i)) + ":0,";
  doc += json_string(colliding_key(7));
  const std::size_t offset = doc.size();
  doc += ":1}";
  expect_duplicate_error(doc, offset, colliding_key(7));
}
