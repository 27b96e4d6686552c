#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <system_error>

#include "util/error.hpp"

namespace ga::io {

using ga::util::RuntimeError;

std::string_view kind_name(JsonValue::Kind kind) noexcept {
    switch (kind) {
        case JsonValue::Kind::Null: return "null";
        case JsonValue::Kind::Bool: return "bool";
        case JsonValue::Kind::Number: return "number";
        case JsonValue::Kind::String: return "string";
        case JsonValue::Kind::Array: return "array";
        case JsonValue::Kind::Object: return "object";
    }
    return "unknown";
}

namespace {

[[noreturn]] void throw_kind(std::string_view expected, JsonValue::Kind actual) {
    throw RuntimeError("json: expected " + std::string(expected) + ", got " +
                       std::string(kind_name(actual)));
}

}  // namespace

bool JsonValue::as_bool() const {
    if (!is_bool()) throw_kind("bool", kind());
    return std::get<bool>(value_);
}

double JsonValue::as_number() const {
    if (!is_number()) throw_kind("number", kind());
    return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
    if (!is_string()) throw_kind("string", kind());
    return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
    if (!is_array()) throw_kind("array", kind());
    return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
    if (!is_object()) throw_kind("object", kind());
    return std::get<Object>(value_);
}

JsonValue::Array& JsonValue::as_array() {
    if (!is_array()) throw_kind("array", kind());
    return std::get<Array>(value_);
}

JsonValue::Object& JsonValue::as_object() {
    if (!is_object()) throw_kind("object", kind());
    return std::get<Object>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, v] : std::get<Object>(value_)) {
        if (k == key) return &v;
    }
    return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
    const JsonValue* found = find(key);
    if (found == nullptr) {
        throw RuntimeError("json: missing key \"" + std::string(key) + "\"");
    }
    return *found;
}

void JsonValue::set(std::string_view key, JsonValue value) {
    if (is_null()) value_ = Object{};
    auto& object = as_object();
    for (auto& [k, v] : object) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    object.emplace_back(std::string(key), std::move(value));
}

// ----------------------------------------------------------------- parser

namespace {

/// Maximum container nesting the parser accepts. The parser (and the DOM's
/// destructor) recurse per level, so unbounded nesting would let a hostile
/// document ("[[[[…") overflow the stack; 256 is far beyond any legitimate
/// scenario or bench file.
constexpr std::size_t kMaxNestingDepth = 256;

/// Members a non-empty object reserves before its first: a ga-serve request
/// has up to eight (a job has seven), so this spares the vector's
/// one-two-four-eight regrowth on the request path.
constexpr std::size_t kObjectReserve = 8;

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parse_document() {
        skip_whitespace();
        JsonValue value = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        // 1-based line/column of the current position.
        std::size_t line = 1;
        std::size_t column = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                column = 1;
            } else {
                ++column;
            }
        }
        throw RuntimeError("json parse error at line " + std::to_string(line) +
                           ", column " + std::to_string(column) + ": " +
                           message);
    }

    [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
    [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

    void skip_whitespace() noexcept {
        while (!eof()) {
            const char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    void expect(char c) {
        if (eof() || peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    JsonValue parse_value() {
        if (eof()) fail("unexpected end of input");
        switch (peek()) {
            case 'n':
                if (!consume_literal("null")) fail("invalid literal");
                return JsonValue(nullptr);
            case 't':
                if (!consume_literal("true")) fail("invalid literal");
                return JsonValue(true);
            case 'f':
                if (!consume_literal("false")) fail("invalid literal");
                return JsonValue(false);
            case '"': return JsonValue(parse_string());
            case '[': return parse_array();
            case '{': return parse_object();
            default: return parse_number();
        }
    }

    JsonValue parse_number() {
        // RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?.
        // std::from_chars alone is laxer (".5", "0123", "5."), so the shape
        // is validated here before conversion.
        const std::size_t start = pos_;
        const auto digit = [this] {
            return !eof() && peek() >= '0' && peek() <= '9';
        };
        if (!eof() && peek() == '-') ++pos_;
        if (!digit()) {
            pos_ = start;
            fail("expected a value");
        }
        if (peek() == '0') {
            ++pos_;
            if (digit()) {
                pos_ = start;
                fail("malformed number (leading zero)");
            }
        } else {
            while (digit()) ++pos_;
        }
        if (!eof() && peek() == '.') {
            ++pos_;
            if (!digit()) {
                pos_ = start;
                fail("malformed number (digit required after '.')");
            }
            while (digit()) ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
            if (!digit()) {
                pos_ = start;
                fail("malformed number (digit required in exponent)");
            }
            while (digit()) ++pos_;
        }
        double value = 0.0;
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        const auto [end, ec] = std::from_chars(first, last, value);
        if (ec != std::errc{} || end != last) {
            pos_ = start;
            fail("malformed number");
        }
        return JsonValue(value);
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the next quote, escape or control
            // character in one append.
            const std::size_t run = pos_;
            while (!eof()) {
                const auto c = static_cast<unsigned char>(peek());
                if (c == '"' || c == '\\' || c < 0x20) break;
                ++pos_;
            }
            out.append(text_.data() + run, pos_ - run);
            if (eof()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                --pos_;
                fail("unescaped control character in string");
            }
            if (eof()) fail("unterminated escape sequence");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': append_unicode_escape(out); break;
                default: fail("invalid escape sequence");
            }
        }
    }

    std::uint32_t parse_hex4() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        std::uint32_t code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            code <<= 4;
            if (c >= '0' && c <= '9') {
                code |= static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                code |= static_cast<std::uint32_t>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                code |= static_cast<std::uint32_t>(c - 'A' + 10);
            } else {
                fail("invalid hex digit in \\u escape");
            }
        }
        return code;
    }

    void append_unicode_escape(std::string& out) {
        std::uint32_t code = parse_hex4();
        if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
                pos_ += 2;
                const std::uint32_t low = parse_hex4();
                if (low < 0xDC00 || low > 0xDFFF) {
                    fail("invalid low surrogate in \\u escape pair");
                }
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
                fail("unpaired surrogate in \\u escape");
            }
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate in \\u escape");
        }
        // UTF-8 encode.
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    void enter_container() {
        if (++depth_ > kMaxNestingDepth) {
            fail("nesting deeper than " + std::to_string(kMaxNestingDepth) +
                 " levels");
        }
    }

    JsonValue parse_array() {
        expect('[');
        enter_container();
        JsonValue::Array array;
        skip_whitespace();
        if (!eof() && peek() == ']') {
            ++pos_;
            --depth_;
            return JsonValue(std::move(array));
        }
        while (true) {
            skip_whitespace();
            array.push_back(parse_value());
            skip_whitespace();
            if (eof()) fail("unterminated array");
            const char c = text_[pos_++];
            if (c == ']') {
                --depth_;
                return JsonValue(std::move(array));
            }
            if (c != ',') {
                --pos_;
                fail("expected ',' or ']' in array");
            }
        }
    }

    JsonValue parse_object() {
        expect('{');
        enter_container();
        JsonValue::Object object;
        skip_whitespace();
        if (!eof() && peek() == '}') {
            ++pos_;
            --depth_;
            return JsonValue(std::move(object));
        }
        object.reserve(kObjectReserve);
        while (true) {
            skip_whitespace();
            if (eof() || peek() != '"') fail("expected object key string");
            std::string key = parse_string();
            for (const auto& [existing, value] : object) {
                if (existing == key) fail("duplicate key \"" + key + "\"");
            }
            skip_whitespace();
            expect(':');
            skip_whitespace();
            object.emplace_back(std::move(key), parse_value());
            skip_whitespace();
            if (eof()) fail("unterminated object");
            const char c = text_[pos_++];
            if (c == '}') {
                --depth_;
                return JsonValue(std::move(object));
            }
            if (c != ',') {
                --pos_;
                fail("expected ',' or '}' in object");
            }
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
    return Parser(text).parse_document();
}

JsonValue load_json_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    if (!in) throw RuntimeError("json: cannot open '" + path.string() + "'");
    std::ostringstream os;
    os << in.rdbuf();
    try {
        return parse_json(os.str());
    } catch (const RuntimeError& e) {
        throw RuntimeError(path.string() + ": " + e.what());
    }
}

// ----------------------------------------------------------------- writer

namespace {

/// Appends format_double's text for `v`.
void append_double(std::string& out, double v) {
    if (!std::isfinite(v)) {
        throw RuntimeError("json: cannot serialize non-finite number");
    }
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc{}) {
        throw RuntimeError("json: number formatting failed");
    }
    out.append(buf, end);
}

/// Appends `s` as a string literal, copying each run of characters that
/// need no escape in one append.
void append_escaped(std::string& out, std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out.push_back('"');
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                out += "\\u00";
                out.push_back(kHex[c >> 4]);
                out.push_back(kHex[c & 0xF]);
        }
    }
    out.append(s.data() + run, s.size() - run);
    out.push_back('"');
}

}  // namespace

std::string format_double(double v) {
    std::string out;
    append_double(out, v);
    return out;
}

void JsonWriter::newline_indent(int depth) {
    if (indent_ <= 0) return;
    out_.push_back('\n');
    out_.append(static_cast<std::size_t>(indent_) *
                    static_cast<std::size_t>(depth),
                ' ');
}

void JsonWriter::begin_item() {
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (depth_ == 0) return;
    if (!first_) out_.push_back(',');
    first_ = false;
    newline_indent(depth_);
}

void JsonWriter::end_item() {
    if (depth_ == 0 && indent_ > 0) out_.push_back('\n');
}

void JsonWriter::open(char bracket) {
    begin_item();
    out_.push_back(bracket);
    ++depth_;
    first_ = true;
}

void JsonWriter::close(char bracket) {
    --depth_;
    // An empty container stays on one line: "[]", "{}".
    if (!first_) newline_indent(depth_);
    out_.push_back(bracket);
    first_ = false;  // the container was an item of its parent
    end_item();
}

void JsonWriter::key(std::string_view name) {
    begin_item();
    append_escaped(out_, name);
    out_.push_back(':');
    if (indent_ > 0) out_.push_back(' ');
    after_key_ = true;
}

void JsonWriter::null_value() {
    begin_item();
    out_ += "null";
    end_item();
}

void JsonWriter::value(bool b) {
    begin_item();
    out_ += b ? "true" : "false";
    end_item();
}

void JsonWriter::value(double n) {
    begin_item();
    append_double(out_, n);
    end_item();
}

void JsonWriter::value(std::string_view s) {
    begin_item();
    append_escaped(out_, s);
    end_item();
}

void JsonWriter::write(const JsonValue& v) {
    switch (v.kind()) {
        case JsonValue::Kind::Null: null_value(); break;
        case JsonValue::Kind::Bool: value(v.as_bool()); break;
        case JsonValue::Kind::Number: value(v.as_number()); break;
        case JsonValue::Kind::String: value(v.as_string()); break;
        case JsonValue::Kind::Array:
            begin_array();
            for (const JsonValue& element : v.as_array()) write(element);
            end_array();
            break;
        case JsonValue::Kind::Object:
            begin_object();
            for (const auto& [name, member] : v.as_object()) {
                key(name);
                write(member);
            }
            end_object();
            break;
    }
}

std::string write_json(const JsonValue& value, int indent) {
    std::string out;
    JsonWriter(out, indent).write(value);
    return out;
}

}  // namespace ga::io
