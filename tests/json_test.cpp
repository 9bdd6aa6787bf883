#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "json/json.hpp"
#include "util/rng.hpp"

namespace crowdweb::json {
namespace {

// ------------------------------------------------------------- Value API

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(4.2).is_double());
  EXPECT_TRUE(Value(42).is_number());
  EXPECT_TRUE(Value(4.2).is_number());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());
}

TEST(JsonValueTest, AsDoubleWorksOnInts) {
  EXPECT_DOUBLE_EQ(Value(7).as_double(), 7.0);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
}

TEST(JsonValueTest, ObjectSetAndFind) {
  Value v;  // null promotes to object on first set
  v.set("name", "crowdweb");
  v.set("users", 1083);
  v.set("name", "CrowdWeb");  // overwrite keeps position
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.as_object().size(), 2u);
  EXPECT_EQ(v.as_object()[0].first, "name");
  EXPECT_EQ(v.find("name")->as_string(), "CrowdWeb");
  EXPECT_EQ(v.find("users")->as_int(), 1083);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(Value(42).find("x"), nullptr);
}

TEST(JsonValueTest, ArrayPushBack) {
  Value v;
  v.push_back(1);
  v.push_back("two");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 2u);
  EXPECT_EQ(v.as_array()[1].as_string(), "two");
}

TEST(JsonValueTest, BuilderHelpers) {
  const Value v = object({{"a", 1}, {"b", array({1, 2, 3})}});
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_EQ(v.find("b")->as_array().size(), 3u);
}

// --------------------------------------------------------------- Parsing

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(parse("null")->is_null());
  EXPECT_EQ(parse("true")->as_bool(), true);
  EXPECT_EQ(parse("false")->as_bool(), false);
  EXPECT_EQ(parse("42")->as_int(), 42);
  EXPECT_EQ(parse("-7")->as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("3.5")->as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse("1e3")->as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("-2.5E-2")->as_double(), -0.025);
  EXPECT_EQ(parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParseTest, IntegerVsDoubleDistinction) {
  EXPECT_TRUE(parse("42")->is_int());
  EXPECT_TRUE(parse("42.0")->is_double());
  EXPECT_TRUE(parse("4e2")->is_double());
}

TEST(JsonParseTest, HugeIntegerFallsBackToDouble) {
  const auto v = parse("123456789012345678901234567890");
  ASSERT_TRUE(v.is_ok());
  EXPECT_TRUE(v->is_double());
  EXPECT_NEAR(v->as_double(), 1.2345678901234568e29, 1e15);
}

TEST(JsonParseTest, NestedDocument) {
  const auto v = parse(R"({
    "city": "New York",
    "checkins": 227428,
    "window": {"from": "09:00", "to": "10:00"},
    "cells": [[1, 2.5], [3, 4.0]],
    "active": true
  })");
  ASSERT_TRUE(v.is_ok()) << v.status().to_string();
  EXPECT_EQ(v->find("checkins")->as_int(), 227428);
  EXPECT_EQ(v->find("window")->find("from")->as_string(), "09:00");
  EXPECT_DOUBLE_EQ(v->find("cells")->as_array()[0].as_array()[1].as_double(), 2.5);
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")")->as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parse(R"("Aé")")->as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse(R"("€")")->as_string(), "\xe2\x82\xac");  // euro sign
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse(R"("😀")")->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, RejectsMalformed) {
  EXPECT_FALSE(parse("").is_ok());
  EXPECT_FALSE(parse("{").is_ok());
  EXPECT_FALSE(parse("[1,]").is_ok());
  EXPECT_FALSE(parse("{\"a\":}").is_ok());
  EXPECT_FALSE(parse("{'a':1}").is_ok());
  EXPECT_FALSE(parse("[1 2]").is_ok());
  EXPECT_FALSE(parse("01").is_ok());
  EXPECT_FALSE(parse("1.").is_ok());
  EXPECT_FALSE(parse("+1").is_ok());
  EXPECT_FALSE(parse("nul").is_ok());
  EXPECT_FALSE(parse("\"unterminated").is_ok());
  EXPECT_FALSE(parse("\"bad\\escape\"").is_ok());
  EXPECT_FALSE(parse("\"\\u12\"").is_ok());
  EXPECT_FALSE(parse("\"\\ud800\"").is_ok());  // unpaired surrogate
  EXPECT_FALSE(parse("42 extra").is_ok());
  EXPECT_FALSE(parse("\"ctrl\x01\"").is_ok());
}

TEST(JsonParseTest, DepthLimit) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(parse(deep).is_ok());
  ParseOptions relaxed;
  relaxed.max_depth = 300;
  EXPECT_TRUE(parse(deep, relaxed).is_ok());
}

TEST(JsonParseTest, WhitespaceTolerance) {
  const auto v = parse(" \n\t { \"a\" : [ 1 , 2 ] } \r\n");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v->find("a")->as_array().size(), 2u);
}

// ----------------------------------------------------------- Serializing

TEST(JsonDumpTest, CompactOutput) {
  const Value v = object({{"a", 1}, {"b", array({true, nullptr})}, {"c", "x"}});
  EXPECT_EQ(dump(v), R"({"a":1,"b":[true,null],"c":"x"})");
}

TEST(JsonDumpTest, EmptyContainers) {
  EXPECT_EQ(dump(Value(Array{})), "[]");
  EXPECT_EQ(dump(Value(Object{})), "{}");
}

TEST(JsonDumpTest, DoubleKeepsPointZero) {
  EXPECT_EQ(dump(Value(2.0)), "2.0");
  EXPECT_EQ(dump(Value(2.5)), "2.5");
  EXPECT_EQ(dump(Value(2)), "2");
}

TEST(JsonDumpTest, NonFiniteBecomesNull) {
  EXPECT_EQ(dump(Value(std::numeric_limits<double>::quiet_NaN())), "null");
  EXPECT_EQ(dump(Value(std::numeric_limits<double>::infinity())), "null");
}

TEST(JsonDumpTest, EscapesControlCharacters) {
  EXPECT_EQ(dump(Value(std::string("a\"b\\c\nd\x01"))), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(JsonDumpTest, IndentedOutput) {
  const Value v = object({{"a", array({1})}});
  EXPECT_EQ(dump(v, {.indent = 2}), "{\n  \"a\": [\n    1\n  ]\n}");
}

TEST(JsonDumpTest, PreservesInsertionOrder) {
  Value v;
  v.set("zulu", 1);
  v.set("alpha", 2);
  v.set("mike", 3);
  EXPECT_EQ(dump(v), R"({"zulu":1,"alpha":2,"mike":3})");
}

// ------------------------------------------------------------ Round trip

Value random_value(crowdweb::Rng& rng, int depth) {
  const int kind = static_cast<int>(rng.uniform_int(0, depth <= 0 ? 4 : 6));
  switch (kind) {
    case 0: return Value{nullptr};
    case 1: return Value{rng.bernoulli(0.5)};
    case 2: return Value{rng.uniform_int(-1'000'000, 1'000'000)};
    case 3: return Value{std::round(rng.uniform(-1e3, 1e3) * 256.0) / 256.0};
    case 4: {
      std::string s;
      const int len = static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < len; ++i)
        s += static_cast<char>(rng.uniform_int(32, 126));
      return Value{s};
    }
    case 5: {
      Array arr;
      const int len = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < len; ++i) arr.push_back(random_value(rng, depth - 1));
      return Value{std::move(arr)};
    }
    default: {
      Value obj{Object{}};
      const int len = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < len; ++i) {
        std::string key = "k";
        key += std::to_string(i);
        obj.set(std::move(key), random_value(rng, depth - 1));
      }
      return obj;
    }
  }
}

TEST(JsonRoundTripTest, RandomDocumentsSurviveDumpParse) {
  crowdweb::Rng rng(2026);
  for (int i = 0; i < 300; ++i) {
    const Value original = random_value(rng, 4);
    const std::string text = dump(original);
    const auto reparsed = parse(text);
    ASSERT_TRUE(reparsed.is_ok()) << text << " -> " << reparsed.status().to_string();
    EXPECT_EQ(*reparsed, original) << text;
  }
}

TEST(JsonFuzzTest, RandomBytesNeverCrashTheParser) {
  crowdweb::Rng rng(555);
  for (int i = 0; i < 2000; ++i) {
    std::string noise;
    const int len = static_cast<int>(rng.uniform_int(0, 64));
    for (int j = 0; j < len; ++j)
      noise += static_cast<char>(rng.uniform_int(0, 255));
    const auto result = parse(noise);  // must return, never crash
    (void)result;
  }
}

TEST(JsonFuzzTest, MutatedValidDocumentsNeverCrash) {
  crowdweb::Rng rng(777);
  const std::string base =
      R"({"city":"NY","cells":[[1,2.5],[3,4.0]],"ok":true,"n":null,"u":"\u00e9"})";
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    const auto result = parse(mutated);
    if (result.is_ok()) {
      // If it still parses, it must re-serialize and re-parse cleanly.
      EXPECT_TRUE(parse(dump(*result)).is_ok());
    }
  }
}

TEST(JsonRoundTripTest, IndentedAlsoSurvives) {
  crowdweb::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Value original = random_value(rng, 3);
    const auto reparsed = parse(dump(original, {.indent = 2}));
    ASSERT_TRUE(reparsed.is_ok());
    EXPECT_EQ(*reparsed, original);
  }
}

}  // namespace
}  // namespace crowdweb::json
