#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

namespace autoncs::util {
namespace {

TEST(JsonEscape, HandlesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonNumber, RoundTripsAndRejectsNonFinite) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
  // %.17g round-trips any double exactly.
  const double value = 0.1 + 0.2;
  EXPECT_EQ(std::stod(json_number(value)), value);
}

TEST(JsonWriter, NestedObjectsAndArrays) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "flow").field("count", std::size_t{3}).field("ok", true);
  w.key("series").begin_array();
  w.value(1.0).value(2.0).value(3.0);
  w.end_array();
  w.key("inner").begin_object();
  w.field("x", 1.5);
  w.key("none").null();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"flow\",\"count\":3,\"ok\":true,"
            "\"series\":[1,2,3],\"inner\":{\"x\":1.5,\"none\":null}}");
  EXPECT_TRUE(json_valid(w.str()));
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("a").begin_array().end_array();
  w.key("o").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[],\"o\":{}}");
  EXPECT_TRUE(json_valid(w.str()));
}

TEST(JsonValid, AcceptsValidDocuments) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[]"));
  EXPECT_TRUE(json_valid("  {\"a\": [1, 2.5, -3e4, true, false, null]} "));
  EXPECT_TRUE(json_valid("\"just a string\""));
  EXPECT_TRUE(json_valid("-0.5"));
  EXPECT_TRUE(json_valid("{\"u\":\"\\u00e9\",\"n\":{\"x\":[{}]}}"));
}

TEST(JsonValid, RejectsInvalidDocuments) {
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\":}"));
  EXPECT_FALSE(json_valid("{\"a\":1,}"));
  EXPECT_FALSE(json_valid("[1 2]"));
  EXPECT_FALSE(json_valid("{} {}"));
  EXPECT_FALSE(json_valid("nul"));
  EXPECT_FALSE(json_valid("01"));
  EXPECT_FALSE(json_valid("\"unterminated"));
  EXPECT_FALSE(json_valid("{'a':1}"));
}

TEST(JsonParse, BuildsTheDom) {
  JsonValue doc;
  ASSERT_TRUE(json_parse(
      " {\"name\":\"flow\",\"n\":3,\"ok\":true,\"none\":null,"
      "\"series\":[1,2.5,-3e4],\"inner\":{\"x\":1.5}} ",
      doc));
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.members.size(), 6u);
  // Member order is preserved.
  EXPECT_EQ(doc.members[0].first, "name");
  EXPECT_EQ(doc.members[5].first, "inner");
  const JsonValue* name = doc.find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(name->is_string());
  EXPECT_EQ(name->string_value, "flow");
  EXPECT_EQ(doc.find("n")->number_value, 3.0);
  EXPECT_TRUE(doc.find("ok")->bool_value);
  EXPECT_EQ(doc.find("none")->kind, JsonValue::Kind::kNull);
  const JsonValue* series = doc.find("series");
  ASSERT_TRUE(series->is_array());
  ASSERT_EQ(series->items.size(), 3u);
  EXPECT_EQ(series->items[2].number_value, -3e4);
  const JsonValue* inner = doc.find("inner");
  ASSERT_TRUE(inner->is_object());
  EXPECT_EQ(inner->find("x")->number_value, 1.5);
  // find() on a non-object and a missing key both yield nullptr.
  EXPECT_EQ(series->find("x"), nullptr);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, RoundTripsWriterDoublesExactly) {
  // The checkpoint format depends on this: every %.17g double the writer
  // emits must come back bit-identical through the parser.
  const double values[] = {0.1 + 0.2, 1.0 / 3.0, 6.02214076e23, 5e-324,
                           -123456.789012345678};
  for (const double value : values) {
    JsonValue parsed;
    ASSERT_TRUE(json_parse(json_number(value), parsed));
    ASSERT_TRUE(parsed.is_number());
    EXPECT_EQ(parsed.number_value, value) << json_number(value);
  }
}

TEST(JsonParse, DecodesEscapes) {
  JsonValue doc;
  ASSERT_TRUE(json_parse("\"a\\\"b\\\\c\\n\\t\\u0041\"", doc));
  EXPECT_EQ(doc.string_value, "a\"b\\c\n\tA");
}

TEST(JsonParse, RejectsWhatJsonValidRejects) {
  JsonValue doc;
  for (const char* bad : {"", "{", "{\"a\":}", "{\"a\":1,}", "[1 2]", "{} {}",
                          "nul", "01", "\"unterminated", "{'a':1}"}) {
    EXPECT_FALSE(json_parse(bad, doc)) << bad;
  }
}

TEST(JsonRead, SizeRejectsNegativeFractionalAndOutOfRange) {
  // A size is a whole number in [0, 2^64); anything else would make the
  // cast to size_t undefined.
  std::size_t size = 7;
  for (const char* bad : {"-1", "0.5", "1e300", "1e400",
                          "18446744073709551616", "\"3\"", "null"}) {
    JsonValue doc;
    ASSERT_TRUE(json_parse(bad, doc)) << bad;
    EXPECT_FALSE(json_read(&doc, size)) << bad;
  }
  EXPECT_EQ(size, 7u);
  for (const auto& [text, value] :
       {std::pair<const char*, std::size_t>{"0", 0},
        {"-0", 0},
        {"48", 48},
        {"1e15", 1000000000000000},
        {"18446744073709549568", 18446744073709549568ULL}}) {
    JsonValue doc;
    ASSERT_TRUE(json_parse(text, doc)) << text;
    ASSERT_TRUE(json_read(&doc, size)) << text;
    EXPECT_EQ(size, value) << text;
  }
}

TEST(JsonLimits, PathologicallyDeepDocumentIsRejectedNotCrashed) {
  // 100k open brackets would overflow the stack of a naive recursive
  // parser; the default depth limit (256) must turn it into a parse
  // failure long before that.
  const std::string deep(100000, '[');
  EXPECT_FALSE(json_valid(deep + std::string(100000, ']')));
  JsonValue doc;
  EXPECT_FALSE(json_parse(deep + std::string(100000, ']'), doc));
  // Truncated mid-descent: still a clean rejection.
  EXPECT_FALSE(json_valid(deep));
  EXPECT_FALSE(json_parse(deep, doc));
  const std::string deep_objects_truncated = [] {
    std::string text;
    for (int i = 0; i < 5000; ++i) text += "{\"k\":";
    return text;
  }();
  EXPECT_FALSE(json_valid(deep_objects_truncated));
}

TEST(JsonLimits, DepthLimitBoundaryIsExact) {
  JsonLimits limits;
  limits.max_depth = 3;
  // Exactly max_depth nested containers parse; one more fails — and a
  // SCALAR at max depth is unaffected (the limit counts containers).
  EXPECT_TRUE(json_valid("[[[1]]]", limits));
  EXPECT_FALSE(json_valid("[[[[1]]]]", limits));
  JsonValue doc;
  EXPECT_TRUE(json_parse("{\"a\":{\"b\":[1,2,3]}}", doc, limits));
  EXPECT_FALSE(json_parse("{\"a\":{\"b\":[[1]]}}", doc, limits));
  EXPECT_TRUE(json_parse("7", doc, limits));
}

TEST(JsonLimits, MaxBytesCapRejectsOversizedInputUpFront) {
  JsonLimits limits;
  limits.max_bytes = 16;
  EXPECT_TRUE(json_valid("{\"a\":1}", limits));
  const std::string big = "\"" + std::string(64, 'x') + "\"";
  EXPECT_FALSE(json_valid(big, limits));
  JsonValue doc;
  EXPECT_FALSE(json_parse(big, doc, limits));
  // 0 (the default) means unlimited.
  EXPECT_TRUE(json_valid(big));
}

TEST(WriteTextFile, RoundTrips) {
  const std::string path =
      ::testing::TempDir() + "/autoncs_json_test_artifact.json";
  ASSERT_TRUE(write_text_file(path, "{\"x\":1}"));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "{\"x\":1}");
  EXPECT_FALSE(write_text_file("/nonexistent-dir/nope/file.json", "x"));
}

}  // namespace
}  // namespace autoncs::util
