// util_test.cpp - utility layer: deterministic RNG, the ASCII table
// writer used by the benchmark harnesses, and the JSON reader and writer
// (decoded values, error texts and offsets, and output bytes pinned).
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/rng.h"
#include "util/table.h"

using softsched::rng;
using softsched::table;

TEST(Rng, DeterministicAcrossInstances) {
  rng a(42);
  rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  rng a(1);
  rng b(2);
  bool differed = false;
  for (int i = 0; i < 10 && !differed; ++i) differed = a.next() != b.next();
  EXPECT_TRUE(differed);
}

TEST(Rng, BelowStaysInRange) {
  rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  rng r(8);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t x = r.range(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  rng r(10);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ShufflePreservesElements) {
  rng r(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  r.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Table, AlignsColumns) {
  table t;
  t.set_header({"a", "long-header", "c"});
  t.add_row({"xxxxxx", "1", "2"});
  t.add_separator();
  t.add_row({"y", "22", "333"});
  std::ostringstream ss;
  t.print(ss);
  const std::string text = ss.str();
  // All rule lines identical -> columns aligned.
  std::istringstream lines(text);
  std::string line;
  std::string rule;
  std::size_t rule_count = 0;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '+') {
      if (rule.empty()) rule = line;
      EXPECT_EQ(line, rule);
      ++rule_count;
    }
  }
  EXPECT_EQ(rule_count, 4u); // top, under-header, separator, bottom
  EXPECT_NE(text.find("long-header"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), softsched::precondition_error);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(softsched::cell(42), "42");
  EXPECT_EQ(softsched::cell(-7), "-7");
  EXPECT_EQ(softsched::cell(3.14159, 2), "3.14");
  EXPECT_EQ(softsched::cell(2.0, 1), "2.0");
}

TEST(Check, MacroThrowsWithContext) {
  try {
    SOFTSCHED_EXPECT(1 == 2, "one is not two");
    FAIL() << "expected precondition_error";
  } catch (const softsched::precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

// -- json_parse: the reader side of the serve engine's JSONL protocol ------

TEST(JsonParse, ParsesScalarsAndNesting) {
  const auto v = softsched::parse_json(
      R"({"name":"ewf","n":3,"neg":-2.5,"big":1e3,"ok":true,"off":false,"none":null,)"
      R"("list":[1,[2,3],{"k":"v"}]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->as_string(), "ewf");
  EXPECT_EQ(v.find("n")->as_integer(0, 10), 3);
  EXPECT_DOUBLE_EQ(v.find("neg")->as_number(), -2.5);
  EXPECT_DOUBLE_EQ(v.find("big")->as_number(), 1000.0);
  EXPECT_TRUE(v.find("ok")->as_bool());
  EXPECT_FALSE(v.find("off")->as_bool());
  EXPECT_TRUE(v.find("none")->is_null());
  const auto& list = v.find("list")->items();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].items()[1].as_integer(0, 10), 3);
  EXPECT_EQ(list[2].find("k")->as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, DecodesEscapes) {
  const auto v = softsched::parse_json(R"("a\"b\\c\n\tAé€")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA\xc3\xa9\xe2\x82\xac");
  const auto pair = softsched::parse_json(R"("😀")"); // surrogate pair
  EXPECT_EQ(pair.as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, PreservesMemberOrderAndRejectsDuplicates) {
  const auto v = softsched::parse_json(R"({"z":1,"a":2})");
  ASSERT_EQ(v.members().size(), 2u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_THROW(softsched::parse_json(R"({"a":1,"a":2})"), softsched::json_error);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  using softsched::json_error;
  using softsched::parse_json;
  EXPECT_THROW(parse_json(""), json_error);
  EXPECT_THROW(parse_json("{"), json_error);
  EXPECT_THROW(parse_json("[1,]"), json_error);
  EXPECT_THROW(parse_json(R"({"a" 1})"), json_error);
  EXPECT_THROW(parse_json("{} trailing"), json_error);
  EXPECT_THROW(parse_json(R"("unterminated)"), json_error);
  EXPECT_THROW(parse_json(R"("bad \x escape")"), json_error);
  EXPECT_THROW(parse_json("01"), json_error);
  EXPECT_THROW(parse_json("1."), json_error);
  EXPECT_THROW(parse_json("tru"), json_error);
  EXPECT_THROW(parse_json("\"tab\tliteral\""), json_error);
  EXPECT_THROW(parse_json(R"("\ud800 lonely")"), json_error);
}

TEST(JsonParse, TypedAccessorsEnforceKinds) {
  const auto v = softsched::parse_json(R"({"s":"x","n":1.5})");
  EXPECT_THROW((void)v.find("s")->as_number(), softsched::json_error);
  EXPECT_THROW((void)v.find("n")->as_string(), softsched::json_error);
  EXPECT_THROW((void)v.find("n")->as_integer(0, 10), softsched::json_error);
  EXPECT_THROW((void)v.as_bool(), softsched::json_error);
  EXPECT_THROW((void)softsched::parse_json("[1]").members(), softsched::json_error);
}

TEST(JsonWriter, CompactModeIsSingleLine) {
  std::ostringstream os;
  softsched::json_writer j(os, /*compact=*/true);
  j.begin_object();
  j.member("a", 1);
  j.key("list");
  j.begin_array();
  j.value(2);
  j.value("x");
  j.end_array();
  j.end_object();
  EXPECT_TRUE(j.done());
  EXPECT_EQ(os.str(), R"({"a":1,"list":[2,"x"]})");
  // And the round trip through the parser holds.
  const auto v = softsched::parse_json(os.str());
  EXPECT_EQ(v.find("a")->as_integer(0, 10), 1);
}

TEST(JsonWriter, WritesTheDocumentOnceItsRootCloses) {
  std::ostringstream os;
  {
    softsched::json_writer j(os, /*compact=*/true);
    j.begin_object();
    j.member("a", 1);
    j.key("list");
    j.begin_array();
    j.value("x");
    j.end_array();
    EXPECT_EQ(os.str(), ""); // nothing before the root closes
    j.end_object();
    EXPECT_EQ(os.str(), R"({"a":1,"list":["x"]})");
  }
  std::ostringstream scalar;
  softsched::json_writer s(scalar, /*compact=*/true);
  s.value(-42);
  EXPECT_TRUE(s.done());
  EXPECT_EQ(scalar.str(), "-42");
  std::ostringstream unfinished;
  {
    softsched::json_writer u(unfinished);
    u.begin_array();
    u.value(1);
    EXPECT_FALSE(u.done());
  }
  EXPECT_EQ(unfinished.str(), "");
  softsched::json_writer kept(/*compact=*/true); // no stream: str() hands it over
  kept.begin_array();
  kept.value(1);
  kept.end_array();
  EXPECT_EQ(std::move(kept).str(), "[1]");
}

TEST(JsonWriter, PrettyLayoutIsPinned) {
  // The layout --explore-out and perf_harness write: two-space indent, one
  // member or item per line, "key": value, empty containers inline.
  std::ostringstream os;
  softsched::json_writer j(os);
  j.begin_object();
  j.member("schema", "softsched-bench-v2");
  j.member("quick", false);
  j.member("seed", std::uint64_t{1});
  j.key("empty_object");
  j.begin_object();
  j.end_object();
  j.key("empty_array");
  j.begin_array();
  j.end_array();
  j.key("points");
  j.begin_array();
  for (int i = 0; i < 2; ++i) {
    j.begin_object();
    j.member("index", i);
    j.member("resources", i == 0 ? "2+/-,1*" : "tab\there \"quoted\"");
    j.member("wall_ms", i == 0 ? 0.1 : 2.5e-9);
    j.member("neg", -7LL * (i + 1));
    j.key("nested");
    j.begin_array();
    j.value(1);
    j.begin_array();
    j.value(true);
    j.value("x");
    j.end_array();
    j.begin_object();
    j.end_object();
    j.end_array();
    j.end_object();
  }
  j.end_array();
  j.member("ratio", 5.2);
  j.member("max", std::numeric_limits<std::uint64_t>::max());
  j.end_object();
  EXPECT_TRUE(j.done());
  EXPECT_EQ(os.str(),
            "{\n  \"schema\": \"softsched-bench-v2\",\n  \"quick\": false,\n  \"seed\": 1,\n"
            "  \"empty_object\": {},\n  \"empty_array\": [],\n  \"points\": [\n    {\n"
            "      \"index\": 0,\n      \"resources\": \"2+/-,1*\",\n      \"wall_ms\": 0.1,\n"
            "      \"neg\": -7,\n      \"nested\": [\n        1,\n        [\n          true,\n"
            "          \"x\"\n        ],\n        {}\n      ]\n    },\n    {\n"
            "      \"index\": 1,\n      \"resources\": \"tab\\there \\\"quoted\\\"\",\n"
            "      \"wall_ms\": 2.5e-09,\n      \"neg\": -14,\n      \"nested\": [\n        1,\n"
            "        [\n          true,\n          \"x\"\n        ],\n        {}\n      ]\n    }\n"
            "  ],\n  \"ratio\": 5.2,\n  \"max\": 18446744073709551615\n}");
}

// -- the lexer pinned: decoded values, error texts and offsets -------------

namespace {

/// What parse_json made of one document holding a string: the decoded
/// value, or the exact json_error text.
struct outcome {
  bool ok = false;
  std::string text;
  friend bool operator==(const outcome&, const outcome&) = default;
};

std::ostream& operator<<(std::ostream& os, const outcome& o) {
  return os << (o.ok ? "value " : "error ") << testing::PrintToString(o.text);
}

outcome lexed(std::string_view doc) {
  try {
    return {true, softsched::parse_json(doc).as_string()};
  } catch (const softsched::json_error& e) {
    return {false, e.what()};
  }
}

std::string error_of(std::string_view doc) {
  try {
    (void)softsched::parse_json(doc);
    return "<ok>";
  } catch (const softsched::json_error& e) {
    return e.what();
  }
}

std::string at(std::size_t offset, const std::string& what) {
  return "json: offset " + std::to_string(offset) + ": " + what;
}

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

/// Byte-at-a-time reference decoder for a document of leading spaces and
/// one string. Every \u escape in these documents is complete and valid;
/// ErrorTextsAndOffsetsArePinned covers the broken ones.
outcome reference_decode(std::string_view doc) {
  const auto error = [](std::size_t offset, const std::string& what) {
    return outcome{false, at(offset, what)};
  };
  const auto hex4 = [&](std::size_t pos) {
    return static_cast<unsigned>(std::stoul(std::string(doc.substr(pos, 4)), nullptr, 16));
  };
  std::size_t pos = doc.find('"') + 1;
  std::string out;
  while (true) {
    if (pos >= doc.size()) return error(pos, "unterminated string");
    const char c = doc[pos++];
    if (c == '"') break;
    if (static_cast<unsigned char>(c) < 0x20) return error(pos - 1, "control character in string");
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos >= doc.size()) return error(pos, "unterminated escape");
    switch (doc[pos++]) {
    case '"': out += '"'; break;
    case '\\': out += '\\'; break;
    case '/': out += '/'; break;
    case 'b': out += '\b'; break;
    case 'f': out += '\f'; break;
    case 'n': out += '\n'; break;
    case 'r': out += '\r'; break;
    case 't': out += '\t'; break;
    case 'u': {
      unsigned code = hex4(pos);
      pos += 4;
      if (code >= 0xD800 && code <= 0xDBFF) { // "\uXXXX" low half follows
        code = 0x10000 + ((code - 0xD800) << 10) + (hex4(pos + 2) - 0xDC00);
        pos += 6;
      }
      append_utf8(out, code);
      break;
    }
    default: return error(pos - 1, "invalid escape");
    }
  }
  if (pos < doc.size()) return error(pos, "trailing characters after JSON value");
  return {true, out};
}

} // namespace

TEST(JsonParse, SpecialBytesAtEveryOffsetMatchAReferenceDecoder) {
  // The lexer finds the next '"', '\\' or control byte eight bytes at a
  // time, so each special sequence goes at every offset of the first two
  // words of the string body (and a few later ones), followed by 0, 1 or 9
  // plain bytes and the closing quote, or by the end of the input.
  const std::vector<std::string> specials = {
      "\"",                                               // ends the string early
      "\\",                                               // escape of the next byte
      "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t",
      "\\u0041", "\\u00e9", "\\u20AC", "\\ud83d\\ude00", // 1-4 UTF-8 bytes
      "\x01", "\x1f", "\x7f",                             // control bytes and DEL
      "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80",     // raw UTF-8
  };
  std::vector<std::size_t> offsets;
  for (std::size_t k = 0; k <= 16; ++k) offsets.push_back(k);
  for (const std::size_t k : {23, 24, 25, 40}) offsets.push_back(k);
  int compared = 0;
  for (const std::string& special : specials) {
    for (const std::size_t k : offsets) {
      for (const std::string lead : {"", "   "}) {
        const std::string head = lead + '"' + std::string(k, 'a') + special;
        std::vector<std::string> docs = {head};
        for (const std::size_t m : {0, 1, 9}) docs.push_back(head + std::string(m, 'z') + '"');
        for (const std::string& doc : docs) {
          EXPECT_EQ(lexed(doc), reference_decode(doc)) << testing::PrintToString(doc);
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 20 * 21 * 2 * 4);
}

TEST(JsonParse, ErrorTextsAndOffsetsArePinned) {
  // One malformed document per fail() call site of json_parse.cpp (the
  // from_chars guard behind the number grammar cannot fire), with the text
  // and offset the byte-at-a-time lexer reported.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{} x", "json: offset 3: trailing characters after JSON value"},
      {"{\"a\":1}}", "json: offset 7: trailing characters after JSON value"},
      {"", "json: offset 0: unexpected end of input"},
      {"   ", "json: offset 3: unexpected end of input"},
      {"[1,", "json: offset 3: unexpected end of input"},
      {"{", "json: offset 1: unexpected end of input"},
      {"[", "json: offset 1: unexpected end of input"},
      {"{\"a\"", "json: offset 4: unexpected end of input"},
      {"{\"a\":", "json: offset 5: unexpected end of input"},
      {"{\"a\":1", "json: offset 6: unexpected end of input"},
      {"{\"a\" 1}", "json: offset 5: expected ':'"},
      {std::string(70, '['), "json: offset 65: nesting too deep"},
      {"tru", "json: offset 0: invalid literal"},
      {"fals", "json: offset 0: invalid literal"},
      {"nul", "json: offset 0: invalid literal"},
      {"{1:2}", "json: offset 1: expected string key"},
      {"{\"a\":1,}", "json: offset 7: expected string key"},
      {"{\"a\":1,\"a\":2}", "json: offset 10: duplicate key 'a'"},
      {"{\"a\":1 \"b\":2}", "json: offset 7: expected ',' or '}' in object"},
      {"[1 2]", "json: offset 3: expected ',' or ']' in array"},
      {"\"", "json: offset 1: unterminated string"},
      {"\"abc", "json: offset 4: unterminated string"},
      {"\"\\\"", "json: offset 3: unterminated string"},
      {"{\"k\":\"xxxxxxxxxxxxxxxxxxxxxx", "json: offset 28: unterminated string"},
      {"\"a\001\"", "json: offset 2: control character in string"},
      {"\"abc\\", "json: offset 5: unterminated escape"},
      {"\"\\x\"", "json: offset 2: invalid escape"},
      {"\"\\u12", "json: offset 5: truncated \\u escape"},
      {"\"\\ud800\\u12", "json: offset 11: truncated \\u escape"},
      {"\"\\u12G4\"", "json: offset 5: invalid \\u escape"},
      {"\"\\ud800\"", "json: offset 7: unpaired surrogate"},
      {"\"\\ud800\\", "json: offset 7: unpaired surrogate"},
      {"\"\\udc00\"", "json: offset 7: unpaired surrogate"},
      {"\"\\ud800\\u0041\"", "json: offset 13: invalid low surrogate"},
      {"-", "json: offset 0: invalid number"},
      {"+1", "json: offset 0: invalid number"},
      {"-a", "json: offset 0: invalid number"},
      {"[1,]", "json: offset 3: invalid number"},
      {"1.", "json: offset 2: digits required after decimal point"},
      {"1.e5", "json: offset 2: digits required after decimal point"},
      {"1e", "json: offset 2: digits required in exponent"},
      {"1e+", "json: offset 3: digits required in exponent"},
      {"1e400", "json: offset 0: number out of range"},
      {"-1e400", "json: offset 0: number out of range"},
      {"{\"k\":\"xxxxxxxxxxxxxxxxxxxxxxxxx\177\"} ", "<ok>"},
  };
  for (const auto& [doc, expected] : cases)
    EXPECT_EQ(error_of(doc), expected) << testing::PrintToString(doc);

  // Strings that end, and bad bytes that sit, at every offset mod 8.
  for (std::size_t k = 0; k <= 16; ++k) {
    const std::string x(k, 'x');
    EXPECT_EQ(error_of('"' + x), at(k + 1, "unterminated string"));
    EXPECT_EQ(error_of("{\"key\":\"" + x), at(k + 8, "unterminated string"));
    EXPECT_EQ(error_of('"' + x + '\\'), at(k + 2, "unterminated escape"));
    EXPECT_EQ(error_of('"' + x + "\x1fzzzzzzzzz\""), at(k + 1, "control character in string"));
    EXPECT_EQ(error_of('"' + x + "\\qzzzzzzzzz\""), at(k + 2, "invalid escape"));
  }
}
