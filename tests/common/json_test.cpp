#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace dufp::json {
namespace {

TEST(JsonTest, RoundTripsAnObjectByteExactly) {
  const std::string text =
      R"({"format":"dufp-shard-result","version":1,"jobs":[0,1,2],)"
      R"("ok":true,"note":null,"x":-3.25e2})";
  const Value v = parse(text);
  EXPECT_EQ(v.dump(), text);  // insertion order + raw number tokens
}

TEST(JsonTest, TypedAccessors) {
  const Value v = parse(R"({"u":18446744073709551615,"i":-42,"d":1.5,)"
                        R"("s":"hi","b":false,"a":[1,2]})");
  EXPECT_EQ(v.at("u").as_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(v.at("i").as_i64(), -42);
  EXPECT_DOUBLE_EQ(v.at("d").as_double(), 1.5);
  EXPECT_EQ(v.at("s").as_string(), "hi");
  EXPECT_FALSE(v.at("b").as_bool());
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), std::runtime_error);
  EXPECT_THROW(v.at("s").as_double(), std::runtime_error);
  EXPECT_THROW(v.at("i").as_u64(), std::runtime_error);
}

TEST(JsonTest, StringEscapes) {
  Value v = Value::make_object();
  v.add("k", Value::make_string("a\"b\\c\nd\te\x01"));
  const std::string text = v.dump();
  EXPECT_EQ(text, "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
  EXPECT_EQ(parse(text).at("k").as_string(), "a\"b\\c\nd\te\x01");
}

TEST(JsonTest, ParseErrorsCarryOffset) {
  try {
    parse(R"({"a":1,})");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{\"a\":1} junk"), std::runtime_error);
  EXPECT_THROW(parse("[1,2"), std::runtime_error);
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse("tru"), std::runtime_error);
}

TEST(JsonTest, HexDoubleIsBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0 / 3.0,
                           3.14159265358979312e100,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    const std::string hex = double_to_hex(v);
    ASSERT_EQ(hex.size(), 16u);
    const double back = hex_to_double(hex);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v), std::bit_cast<std::uint64_t>(back));
  }
  // NaN payloads survive too (bit pattern, not value, is transported).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(nan),
            std::bit_cast<std::uint64_t>(hex_to_double(double_to_hex(nan))));
  EXPECT_EQ(double_to_hex(-0.0), "8000000000000000");
  EXPECT_THROW(hex_to_double("123"), std::runtime_error);
  EXPECT_THROW(hex_to_double("zzzzzzzzzzzzzzzz"), std::runtime_error);
}

TEST(JsonTest, IntegerAccessorsAcceptExactlyTheirTokenRange) {
  auto num = [](const char* token) { return parse(token); };
  EXPECT_EQ(num("18446744073709551615").as_u64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(num("18446744073709551616").as_u64(), std::runtime_error);
  EXPECT_THROW(num("-1").as_u64(), std::runtime_error);
  EXPECT_THROW(num("-0").as_u64(), std::runtime_error);
  EXPECT_EQ(num("007").as_u64(), 7u);
  EXPECT_THROW(num("1e3").as_u64(), std::runtime_error);
  EXPECT_THROW(num("1.0").as_u64(), std::runtime_error);

  EXPECT_EQ(num("-9223372036854775808").as_i64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(num("9223372036854775807").as_i64(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_THROW(num("9223372036854775808").as_i64(), std::runtime_error);
  EXPECT_THROW(num("-9223372036854775809").as_i64(), std::runtime_error);
  EXPECT_EQ(num("-0").as_i64(), 0);
  EXPECT_EQ(num("-1").as_i64(), -1);
  EXPECT_EQ(num("007").as_i64(), 7);
  EXPECT_THROW(num("1e3").as_i64(), std::runtime_error);

  EXPECT_EQ(Value::make_u64(std::numeric_limits<std::uint64_t>::max()).dump(),
            "18446744073709551615");
  EXPECT_EQ(Value::make_i64(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Value::make_i64(0).dump(), "0");
}

TEST(JsonTest, WriterEmitsExactlyWhatDumpEmits) {
  std::string out;
  Writer w(out);
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.u64(0);
  w.i64(-7);
  w.hex(-0.0);
  w.string("q\"\\\n\x1f");
  w.begin_object();
  w.end_object();
  w.begin_array();
  w.end_array();
  w.end_array();
  w.key("b");
  w.boolean(true);
  w.key("c");
  w.null();
  w.key("d");
  w.raw("{\"x\":1}");
  w.end_object();
  EXPECT_EQ(out,
            R"({"a":[0,-7,"8000000000000000","q\"\\\n\u001f",{},[]],)"
            R"("b":true,"c":null,"d":{"x":1}})");
  EXPECT_EQ(parse(out).dump(), out);
}

TEST(JsonTest, ReaderReadsACanonicalDocumentInOrder) {
  const std::string text =
      R"({"n":18446744073709551615,"i":-5,"h":"3ff0000000000000",)"
      R"("s":"a\"\u0001","arr":[1,2],"sub":{"k":[true,null]},"b":false})";
  Reader r(text);
  r.begin_object();
  r.key("n");
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  r.key("i");
  EXPECT_EQ(r.i64(), -5);
  r.key("h");
  EXPECT_EQ(r.hex(), 1.0);
  r.key("s");
  EXPECT_EQ(r.string(), "a\"\x01");
  r.key("arr");
  r.begin_array();
  std::vector<std::uint64_t> items;
  while (r.next()) items.push_back(r.u64());
  EXPECT_EQ(items, (std::vector<std::uint64_t>{1, 2}));
  r.key("sub");
  EXPECT_EQ(r.skip_value(), R"({"k":[true,null]})");
  EXPECT_THROW(Reader(r).optional_key("absent"), std::runtime_error)
      << "another member follows: \"absent\" is not optional here";
  r.key("b");
  EXPECT_FALSE(r.boolean());
  EXPECT_FALSE(r.optional_key("absent"));
  r.end_object();
  r.finish();
}

TEST(JsonTest, ReaderRejectsNonCanonicalTokens) {
  auto read = [](const std::string& text, auto&& fn) {
    Reader r(text);
    fn(r);
    r.finish();
  };
  auto u64 = [](Reader& r) { r.u64(); };
  auto i64 = [](Reader& r) { r.i64(); };
  auto hex = [](Reader& r) { r.hex(); };
  auto str = [](Reader& r) { r.string(); };
  auto key = [](Reader& r) {
    r.begin_object();
    r.key("a");
    r.u64();
    r.end_object();
  };
  EXPECT_NO_THROW(read("0", u64));
  EXPECT_THROW(read("007", u64), std::runtime_error);
  EXPECT_THROW(read("-1", u64), std::runtime_error);
  EXPECT_THROW(read("18446744073709551616", u64), std::runtime_error);
  EXPECT_THROW(read("1e3", u64), std::runtime_error);
  EXPECT_THROW(read("", u64), std::runtime_error);
  EXPECT_NO_THROW(read("-9223372036854775808", i64));
  EXPECT_THROW(read("-0", i64), std::runtime_error);
  EXPECT_THROW(read("-", i64), std::runtime_error);
  EXPECT_THROW(read("01", i64), std::runtime_error);
  EXPECT_THROW(read("9223372036854775808", i64), std::runtime_error);
  EXPECT_THROW(read(R"("3ff000000000000")", hex), std::runtime_error);
  EXPECT_THROW(read(R"("3ff00000000000000")", hex), std::runtime_error);
  EXPECT_THROW(read(R"("3FF0000000000000")", hex), std::runtime_error);
  EXPECT_THROW(read(R"("3ff000000000000g")", hex), std::runtime_error);
  EXPECT_THROW(read(R"("a\/b")", str), std::runtime_error);
  EXPECT_THROW(read(R"("\u000a")", str), std::runtime_error);
  EXPECT_THROW(read(R"("\u0041")", str), std::runtime_error);
  EXPECT_THROW(read(R"("\u001F")", str), std::runtime_error);
  EXPECT_THROW(read("\"a\nb\"", str), std::runtime_error);
  EXPECT_THROW(read(R"("unterminated)", str), std::runtime_error);
  EXPECT_NO_THROW(read(R"({"a":1})", key));
  EXPECT_THROW(read(R"({ "a":1})", key), std::runtime_error);
  EXPECT_THROW(read(R"({"a" :1})", key), std::runtime_error);
  EXPECT_THROW(read(R"({"b":1})", key), std::runtime_error);
  EXPECT_THROW(read(R"({"a":1,"b":2})", key), std::runtime_error);
  EXPECT_THROW(read(R"({"a":1} )", key), std::runtime_error);

  // skip_value checks structure (the decoding reader checks grammar) and
  // bounds its nesting.
  auto skip = [](Reader& r) { r.skip_value(); };
  EXPECT_NO_THROW(read(R"({"a":[1,-2.5e+3,"x\"]",{}],"b":null})", skip));
  EXPECT_NO_THROW(read("17", skip));
  EXPECT_THROW(read(R"({"a":[1}])", skip), std::runtime_error);
  EXPECT_THROW(read(R"({"a":"x})", skip), std::runtime_error);
  EXPECT_THROW(read(R"({"a":[1])", skip), std::runtime_error);
  EXPECT_THROW(read("]", skip), std::runtime_error);
  EXPECT_THROW(read(",", skip), std::runtime_error);
  EXPECT_THROW(read(std::string(100000, '['), skip), std::runtime_error);
  try {
    read(R"({"a":1,"b":2})", key);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset 6"), std::string::npos)
        << e.what();
  }
}

TEST(JsonTest, Fnv1aMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace dufp::json
