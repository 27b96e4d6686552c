// Minimal dependency-free JSON reader/writer for the scenario I/O layer.
//
// DOM-style: `JsonValue` is a tagged union of the six JSON kinds. Objects
// preserve insertion (and file) order, so serialization is deterministic —
// writing the same DOM twice produces the same bytes, the property the
// golden-run reproducibility checks rely on. Numbers are doubles written in
// their shortest round-trip form (std::to_chars), so every double survives
// a write -> parse cycle bit-exactly. `JsonWriter` is the one serializer:
// `write_json` walks a DOM onto it, and hot writers (ga-serve's responses)
// stream onto it without building a DOM.
//
// The parser is strict (RFC 8259: no comments, no trailing commas, no
// duplicate keys) and reports failures as `ga::util::RuntimeError` with
// 1-based line/column positions.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ga::io {

/// One JSON value. Default-constructed it is `null`.
class JsonValue {
public:
    using Array = std::vector<JsonValue>;
    /// Key/value pairs in insertion order (parse preserves file order).
    using Object = std::vector<std::pair<std::string, JsonValue>>;

    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() : value_(nullptr) {}
    JsonValue(std::nullptr_t) : value_(nullptr) {}
    JsonValue(bool b) : value_(b) {}
    JsonValue(double n) : value_(n) {}
    JsonValue(int n) : value_(static_cast<double>(n)) {}
    JsonValue(std::string s) : value_(std::move(s)) {}
    JsonValue(std::string_view s) : value_(std::string(s)) {}
    JsonValue(const char* s) : value_(std::string(s)) {}
    JsonValue(Array a) : value_(std::move(a)) {}
    JsonValue(Object o) : value_(std::move(o)) {}

    [[nodiscard]] Kind kind() const noexcept {
        return static_cast<Kind>(value_.index());
    }
    [[nodiscard]] bool is_null() const noexcept { return kind() == Kind::Null; }
    [[nodiscard]] bool is_bool() const noexcept { return kind() == Kind::Bool; }
    [[nodiscard]] bool is_number() const noexcept {
        return kind() == Kind::Number;
    }
    [[nodiscard]] bool is_string() const noexcept {
        return kind() == Kind::String;
    }
    [[nodiscard]] bool is_array() const noexcept { return kind() == Kind::Array; }
    [[nodiscard]] bool is_object() const noexcept {
        return kind() == Kind::Object;
    }

    /// Checked accessors; throw RuntimeError naming the expected and actual
    /// kinds when the value holds something else.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const Array& as_array() const;
    [[nodiscard]] const Object& as_object() const;
    [[nodiscard]] Array& as_array();
    [[nodiscard]] Object& as_object();

    /// Object member lookup: nullptr when absent (or not an object).
    [[nodiscard]] const JsonValue* find(std::string_view key) const;
    /// Object member lookup; throws RuntimeError naming the missing key.
    [[nodiscard]] const JsonValue& at(std::string_view key) const;
    /// Appends (or replaces) an object member, keeping insertion order.
    void set(std::string_view key, JsonValue value);

    friend bool operator==(const JsonValue&, const JsonValue&) = default;

private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        value_;
};

/// Human-readable name of a kind ("number", "object", ...) for diagnostics.
[[nodiscard]] std::string_view kind_name(JsonValue::Kind kind) noexcept;

/// Parses one JSON document; the whole input must be consumed (trailing
/// whitespace allowed). Throws RuntimeError with line/column on malformed
/// input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Reads and parses a JSON file; parse errors are prefixed with the path.
[[nodiscard]] JsonValue load_json_file(const std::filesystem::path& path);

/// Streaming serializer: appends one document to a caller's string as the
/// caller walks it, with no DOM in between. The bytes are exactly those
/// `write_json` gives the equivalent DOM, trailing pretty-mode newline
/// included (write_json is this writer walking the DOM). The caller keeps
/// the document well formed: `key` only directly inside an object, each key
/// followed by one value, every container closed. Numbers are written by
/// `format_double`'s rules and refused (RuntimeError) when not finite; what
/// was appended before a refusal stays in the string, so a caller that must
/// not emit a partial document truncates it.
class JsonWriter {
public:
    /// Appends to `out`, which must outlive the writer. `indent` as for
    /// write_json.
    explicit JsonWriter(std::string& out, int indent = 0) noexcept
        : out_(out), indent_(indent) {}

    void begin_object() { open('{'); }
    void end_object() { close('}'); }
    void begin_array() { open('['); }
    void end_array() { close(']'); }
    /// Names the next value of the enclosing object.
    void key(std::string_view name);

    void null_value();
    void value(bool b);
    void value(double n);
    void value(std::string_view s);
    void value(const char* s) { value(std::string_view(s)); }
    /// Writes a whole DOM value (named apart from `value`, so a
    /// `std::string` argument cannot also convert to a JsonValue).
    void write(const JsonValue& v);

    /// `key(name)` then `value(v)`. Integers have no overload: cast them to
    /// double, the JSON number type.
    template <typename T>
    void member(std::string_view name, const T& v) {
        key(name);
        value(v);
    }

private:
    void open(char bracket);
    void close(char bracket);
    /// Separator and indentation before a value or key at the current depth.
    void begin_item();
    void newline_indent(int depth);
    /// Pretty mode's trailing newline once the top-level value is complete.
    void end_item();

    std::string& out_;
    int indent_ = 0;
    int depth_ = 0;
    bool first_ = true;      ///< no item yet in the innermost container
    bool after_key_ = false; ///< a key was written; its value comes next
};

/// Serializes a document. `indent` > 0 pretty-prints with that many spaces
/// per level; 0 writes the compact single-line form. Deterministic: the
/// same DOM always yields the same bytes. A trailing newline is appended in
/// pretty mode (diff-friendly files). Throws RuntimeError on non-finite
/// numbers, which JSON cannot represent.
[[nodiscard]] std::string write_json(const JsonValue& value, int indent = 2);

/// Shortest decimal form of `v` that parses back to exactly `v`
/// (std::to_chars). Integral values print without a decimal point
/// ("77", not "77.0"). Shared by the JSON and CSV result writers so every
/// serialized double is round-trip exact. Throws RuntimeError on
/// non-finite values.
[[nodiscard]] std::string format_double(double v);

}  // namespace ga::io
