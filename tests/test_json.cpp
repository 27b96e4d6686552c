// Unit tests for the dependency-free JSON layer (io/json.hpp): strict
// parsing with line/column diagnostics, deterministic writing, and
// round-trip-exact doubles.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>

#include "io/json.hpp"
#include "util/error.hpp"

namespace {

using ga::io::JsonValue;
using ga::io::JsonWriter;
using ga::io::parse_json;
using ga::io::write_json;
using ga::util::RuntimeError;

// ----------------------------------------------------------------- parse
TEST(Json, ParsesScalars) {
    EXPECT_TRUE(parse_json("null").is_null());
    EXPECT_EQ(parse_json("true").as_bool(), true);
    EXPECT_EQ(parse_json("false").as_bool(), false);
    EXPECT_EQ(parse_json("42").as_number(), 42.0);
    EXPECT_EQ(parse_json("-0.5").as_number(), -0.5);
    EXPECT_EQ(parse_json("6.02e23").as_number(), 6.02e23);
    EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedContainers) {
    const auto doc = parse_json(R"({"a": [1, {"b": null}], "c": {}})");
    ASSERT_TRUE(doc.is_object());
    const auto& a = doc.at("a").as_array();
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0].as_number(), 1.0);
    EXPECT_TRUE(a[1].at("b").is_null());
    EXPECT_TRUE(doc.at("c").as_object().empty());
}

TEST(Json, ObjectPreservesInsertionOrder) {
    const auto doc = parse_json(R"({"z": 1, "a": 2, "m": 3})");
    const auto& object = doc.as_object();
    ASSERT_EQ(object.size(), 3u);
    EXPECT_EQ(object[0].first, "z");
    EXPECT_EQ(object[1].first, "a");
    EXPECT_EQ(object[2].first, "m");
}

TEST(Json, ParsesStringEscapes) {
    EXPECT_EQ(parse_json(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
    EXPECT_EQ(parse_json(R"("\u0041")").as_string(), "A");
    EXPECT_EQ(parse_json(R"("\u00e9")").as_string(), "\xc3\xa9");  // e-acute
    EXPECT_EQ(parse_json(R"("\u20ac")").as_string(), "\xe2\x82\xac");  // euro sign
    // Surrogate pair: U+1F600.
    EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
    // Raw UTF-8 passes through untouched.
    EXPECT_EQ(parse_json("\"\xc3\xa9\"").as_string(), "\xc3\xa9");
}

TEST(Json, RejectsMalformedDocuments) {
    EXPECT_THROW((void)parse_json(""), RuntimeError);
    EXPECT_THROW((void)parse_json("{"), RuntimeError);
    EXPECT_THROW((void)parse_json("[1,]"), RuntimeError);
    EXPECT_THROW((void)parse_json("{\"a\":1,}"), RuntimeError);
    EXPECT_THROW((void)parse_json("{\"a\" 1}"), RuntimeError);
    EXPECT_THROW((void)parse_json("{a: 1}"), RuntimeError);
    EXPECT_THROW((void)parse_json("\"unterminated"), RuntimeError);
    EXPECT_THROW((void)parse_json("\"bad\\q\""), RuntimeError);
    EXPECT_THROW((void)parse_json("\"ctrl\nchar\""), RuntimeError);
    EXPECT_THROW((void)parse_json("nul"), RuntimeError);
    EXPECT_THROW((void)parse_json("1.2.3"), RuntimeError);
    // RFC 8259 number grammar: no bare dots, leading zeros, or empty
    // exponents.
    EXPECT_THROW((void)parse_json(".5"), RuntimeError);
    EXPECT_THROW((void)parse_json("5."), RuntimeError);
    EXPECT_THROW((void)parse_json("0123"), RuntimeError);
    EXPECT_THROW((void)parse_json("1.e3"), RuntimeError);
    EXPECT_THROW((void)parse_json("1e"), RuntimeError);
    EXPECT_THROW((void)parse_json("-"), RuntimeError);
    EXPECT_THROW((void)parse_json("+1"), RuntimeError);
    EXPECT_THROW((void)parse_json("[1] trailing"), RuntimeError);
    EXPECT_THROW((void)parse_json(R"("\ud83d")"), RuntimeError);  // lone surrogate
}

TEST(Json, RejectsDuplicateKeys) {
    EXPECT_THROW((void)parse_json(R"({"a": 1, "a": 2})"), RuntimeError);
}

TEST(Json, ErrorsCarryLineAndColumn) {
    try {
        (void)parse_json("{\n  \"a\": 1,\n  oops\n}");
        FAIL() << "should have thrown";
    } catch (const RuntimeError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
        EXPECT_NE(what.find("column 3"), std::string::npos) << what;
    }
}

TEST(Json, KindErrorsNameBothKinds) {
    try {
        (void)parse_json("\"str\"").as_number();
        FAIL() << "should have thrown";
    } catch (const RuntimeError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("number"), std::string::npos);
        EXPECT_NE(what.find("string"), std::string::npos);
    }
}

TEST(Json, AtNamesTheMissingKey) {
    const auto doc = parse_json(R"({"present": 1})");
    try {
        (void)doc.at("absent");
        FAIL() << "should have thrown";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("absent"), std::string::npos);
    }
}

// ----------------------------------------------------------------- write
TEST(Json, WriteIsDeterministic) {
    const auto doc = parse_json(R"({"b": [1, 2], "a": {"x": true}})");
    const std::string once = write_json(doc);
    EXPECT_EQ(once, write_json(doc));
    EXPECT_EQ(doc, parse_json(once));
}

TEST(Json, CompactForm) {
    const auto doc = parse_json(R"({"a": [1, 2], "b": null})");
    EXPECT_EQ(write_json(doc, 0), R"({"a":[1,2],"b":null})");
}

TEST(Json, WriteEscapesControlCharacters) {
    const std::string written = write_json(JsonValue("a\"b\\c\nd\x01"), 0);
    EXPECT_EQ(written, R"("a\"b\\c\nd\u0001")");
    EXPECT_EQ(parse_json(written).as_string(), "a\"b\\c\nd\x01");
}

TEST(Json, DoublesRoundTripExactly) {
    const double values[] = {0.1,
                             1.0 / 3.0,
                             6.02214076e23,
                             1e-300,
                             -123456.789,
                             9007199254740993.0,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
    for (const double v : values) {
        const std::string text = ga::io::format_double(v);
        EXPECT_EQ(parse_json(text).as_number(), v) << text;
        // And through a whole document cycle.
        JsonValue doc;
        doc.set("v", v);
        EXPECT_EQ(parse_json(write_json(doc)).at("v").as_number(), v);
    }
}

TEST(Json, IntegralDoublesPrintAsIntegers) {
    EXPECT_EQ(ga::io::format_double(77.0), "77");
    EXPECT_EQ(ga::io::format_double(0.0), "0");
    EXPECT_EQ(ga::io::format_double(-3.0), "-3");
}

TEST(Json, NonFiniteNumbersAreRejected) {
    EXPECT_THROW((void)write_json(JsonValue(std::nan(""))), RuntimeError);
    EXPECT_THROW(
        (void)write_json(JsonValue(std::numeric_limits<double>::infinity())),
        RuntimeError);
    // Streamed without a DOM too.
    std::string out;
    ga::io::JsonWriter w(out);
    w.begin_array();
    EXPECT_THROW(w.value(-std::numeric_limits<double>::infinity()),
                 RuntimeError);
}

TEST(Json, SetReplacesInPlace) {
    JsonValue doc;
    doc.set("a", 1.0);
    doc.set("b", 2.0);
    doc.set("a", 3.0);
    ASSERT_EQ(doc.as_object().size(), 2u);
    EXPECT_EQ(doc.at("a").as_number(), 3.0);
    EXPECT_EQ(doc.as_object()[0].first, "a");  // order kept
}

// ------------------------------------------------------ pinned bytes
// The expected strings below were written by the DOM serializer that
// JsonWriter replaced; they pin write_json's bytes across that change.

/// A document touching every writer path: empty and nested containers in
/// objects and arrays, every escape, and integral, fractional, negative,
/// large and tiny doubles.
JsonValue pinned_document() {
    JsonValue::Object nested;
    nested.emplace_back("list", JsonValue::Array{1.0, JsonValue::Array{},
                                                 JsonValue::Object{}, nullptr});
    nested.emplace_back(
        "deep", JsonValue::Object{{"a", JsonValue::Object{
                                            {"b", JsonValue::Array{true, false}}}}});
    JsonValue doc;
    doc.set("empty_object", JsonValue::Object{});
    doc.set("empty_array", JsonValue::Array{});
    doc.set("nested", std::move(nested));
    doc.set("escapes", "q\"b\\s/\b\f\n\r\t\x01\x1f\x7f caf\xc3\xa9");
    doc.set("esc\"aped\nkey", "");
    doc.set("integral", JsonValue::Array{0.0, -0.0, -3.0, 77.0, 1e6, 123456789.0,
                                         9007199254740992.0, 1e21, 1e300});
    doc.set("fractional", JsonValue::Array{0.1, -2.5, 1.0 / 3.0, 1e-7,
                                           6.02214076e23, 5e-324, 2.5e-300});
    return doc;
}

const std::string kPinnedCompact =
    R"({"empty_object":{},"empty_array":[],"nested":{"list":[1,[],{},null],)"
    R"("deep":{"a":{"b":[true,false]}}},)"
    R"("escapes":"q\"b\\s/\b\f\n\r\t\u0001\u001f)" "\x7f" R"( caf)" "\xc3\xa9" R"(",)"
    R"("esc\"aped\nkey":"",)"
    R"("integral":[0,-0,-3,77,1e+06,123456789,9007199254740992,1e+21,1e+300],)"
    R"("fractional":[0.1,-2.5,0.3333333333333333,1e-07,6.02214076e+23,5e-324,2.5e-300]})";

const std::string kPinnedPretty = R"({
  "empty_object": {},
  "empty_array": [],
  "nested": {
    "list": [
      1,
      [],
      {},
      null
    ],
    "deep": {
      "a": {
        "b": [
          true,
          false
        ]
      }
    }
  },
  "escapes": "q\"b\\s/\b\f\n\r\t\u0001\u001f)" "\x7f" R"( caf)" "\xc3\xa9" R"(",
  "esc\"aped\nkey": "",
  "integral": [
    0,
    -0,
    -3,
    77,
    1e+06,
    123456789,
    9007199254740992,
    1e+21,
    1e+300
  ],
  "fractional": [
    0.1,
    -2.5,
    0.3333333333333333,
    1e-07,
    6.02214076e+23,
    5e-324,
    2.5e-300
  ]
}
)";

TEST(Json, WriteBytesArePinned) {
    EXPECT_EQ(write_json(pinned_document(), 0), kPinnedCompact);
    EXPECT_EQ(write_json(pinned_document(), 2), kPinnedPretty);
    // Scalars at the top level; pretty mode ends the document with a newline.
    EXPECT_EQ(write_json(JsonValue(2.5), 0), "2.5");
    EXPECT_EQ(write_json(JsonValue(nullptr), 2), "null\n");
    EXPECT_EQ(write_json(JsonValue::Array{}, 4), "[]\n");
}

/// pinned_document() streamed by hand, with no DOM.
void stream_pinned_document(JsonWriter& w) {
    w.begin_object();
    w.key("empty_object");
    w.begin_object();
    w.end_object();
    w.key("empty_array");
    w.begin_array();
    w.end_array();
    w.key("nested");
    w.begin_object();
    w.key("list");
    w.begin_array();
    w.value(1.0);
    w.begin_array();
    w.end_array();
    w.begin_object();
    w.end_object();
    w.null_value();
    w.end_array();
    w.key("deep");
    w.begin_object();
    w.key("a");
    w.begin_object();
    w.key("b");
    w.begin_array();
    w.value(true);
    w.value(false);
    w.end_array();
    w.end_object();
    w.end_object();
    w.end_object();
    w.member("escapes", "q\"b\\s/\b\f\n\r\t\x01\x1f\x7f caf\xc3\xa9");
    w.member("esc\"aped\nkey", std::string());
    w.key("integral");
    w.begin_array();
    for (const double v : {0.0, -0.0, -3.0, 77.0, 1e6, 123456789.0,
                           9007199254740992.0, 1e21, 1e300}) {
        w.value(v);
    }
    w.end_array();
    w.key("fractional");
    w.begin_array();
    for (const double v :
         {0.1, -2.5, 1.0 / 3.0, 1e-7, 6.02214076e23, 5e-324, 2.5e-300}) {
        w.value(v);
    }
    w.end_array();
    w.end_object();
}

TEST(JsonWriter, StreamEqualsWriteJsonOfTheSameDom) {
    for (const int indent : {0, 2, 3}) {
        std::string streamed;
        JsonWriter w(streamed, indent);
        stream_pinned_document(w);
        EXPECT_EQ(streamed, write_json(pinned_document(), indent)) << indent;
    }
    std::string compact;
    JsonWriter w(compact);
    stream_pinned_document(w);
    EXPECT_EQ(compact, kPinnedCompact);
}

TEST(JsonWriter, AppendsToTheCallersString) {
    std::string out = "prefix ";
    JsonWriter w(out);
    w.write(parse_json(R"({"a":[1,"x"]})"));
    EXPECT_EQ(out, R"(prefix {"a":[1,"x"]})");
}

TEST(Json, ParsesStringRunsAroundEscapes) {
    EXPECT_EQ(parse_json(R"("\nab\\\"cdéef\t")").as_string(),
              "\nab\\\"cd\xc3\xa9" "ef\t");
    EXPECT_EQ(parse_json(R"("plain run")").as_string(), "plain run");
    EXPECT_EQ(parse_json(R"("")").as_string(), "");
    // A control character after a run is reported at its own column.
    try {
        (void)parse_json("\"abc\x01\"");
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string_view(e.what()).find(
                      "column 5: unescaped control character"),
                  std::string_view::npos)
            << e.what();
    }
    EXPECT_THROW((void)parse_json("\"unterminated run"), RuntimeError);
}

}  // namespace
