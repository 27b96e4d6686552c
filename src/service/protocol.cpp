#include "service/protocol.hpp"

#include <cmath>
#include <limits>
#include <utility>

namespace ga::service {

namespace {

/// Validates a JSON number as a request id; throws ProtocolError on a
/// negative, fractional, or oversized value.
std::uint64_t id_from_number(double n) {
    if (!(n >= 0.0) || n != std::floor(n) ||
        n > static_cast<double>(kMaxRequestId)) {
        throw ProtocolError("bad_request",
                            "request: 'id' must be a non-negative integer "
                            "at most 2^53");
    }
    return static_cast<std::uint64_t>(n);
}

}  // namespace

Request parse_request(std::string_view line) {
    ga::io::JsonValue body;
    try {
        body = ga::io::parse_json(line);
    } catch (const std::exception& e) {
        throw ProtocolError("parse_error", e.what());
    }
    if (!body.is_object()) {
        throw ProtocolError("bad_request", "request must be a JSON object");
    }
    const ga::io::JsonValue* id = body.find("id");
    if (id == nullptr || !id->is_number()) {
        throw ProtocolError("bad_request",
                            "request: missing numeric 'id' field");
    }
    const ga::io::JsonValue* type = body.find("type");
    if (type == nullptr || !type->is_string()) {
        throw ProtocolError("bad_request",
                            "request: missing string 'type' field");
    }
    Request request;
    request.id = id_from_number(id->as_number());
    request.type = type->as_string();
    request.body = std::move(body);
    return request;
}

std::optional<std::uint64_t> recover_request_id(std::string_view line) noexcept {
    try {
        const ga::io::JsonValue body = ga::io::parse_json(line);
        if (!body.is_object()) return std::nullopt;
        const ga::io::JsonValue* id = body.find("id");
        if (id == nullptr || !id->is_number()) return std::nullopt;
        return id_from_number(id->as_number());
    } catch (...) {
        return std::nullopt;
    }
}

void begin_ok_response(ga::io::JsonWriter& out, std::uint64_t id) {
    out.begin_object();
    out.member("id", static_cast<double>(id));
    out.member("ok", true);
    out.key("result");
}

void write_error_response(std::string& out, std::optional<std::uint64_t> id,
                          std::string_view code, std::string_view message) {
    ga::io::JsonWriter w(out);
    w.begin_object();
    w.key("id");
    if (id.has_value()) {
        w.value(static_cast<double>(*id));
    } else {
        w.null_value();
    }
    w.member("ok", false);
    w.key("error");
    w.begin_object();
    w.member("code", code);
    w.member("message", message);
    w.end_object();
    w.end_object();
}

void check_keys(const ga::io::JsonValue& body,
                std::initializer_list<std::string_view> allowed,
                std::string_view context) {
    for (const auto& [key, value] : body.as_object()) {
        if (key == "id" || key == "type") continue;
        bool known = false;
        for (const std::string_view candidate : allowed) {
            if (key == candidate) {
                known = true;
                break;
            }
        }
        if (!known) {
            throw ProtocolError("bad_request", std::string(context) +
                                                   ": unknown field '" + key +
                                                   "'");
        }
    }
}

const std::string& string_field(const ga::io::JsonValue& body,
                                std::string_view key,
                                std::string_view context) {
    const ga::io::JsonValue* value = body.find(key);
    if (value == nullptr || !value->is_string()) {
        throw ProtocolError("bad_request", std::string(context) +
                                               ": missing string field '" +
                                               std::string(key) + "'");
    }
    return value->as_string();
}

double number_field(const ga::io::JsonValue& body, std::string_view key,
                    std::string_view context) {
    const ga::io::JsonValue* value = body.find(key);
    if (value == nullptr || !value->is_number()) {
        throw ProtocolError("bad_request", std::string(context) +
                                               ": missing numeric field '" +
                                               std::string(key) + "'");
    }
    return value->as_number();
}

double number_field_or(const ga::io::JsonValue& body, std::string_view key,
                       std::string_view context, double fallback) {
    const ga::io::JsonValue* value = body.find(key);
    if (value == nullptr) return fallback;
    if (!value->is_number()) {
        throw ProtocolError("bad_request", std::string(context) + ": field '" +
                                               std::string(key) +
                                               "' must be a number");
    }
    return value->as_number();
}

std::uint64_t uint_field(const ga::io::JsonValue& body, std::string_view key,
                         std::string_view context) {
    const double n = number_field(body, key, context);
    if (!(n >= 0.0) || n != std::floor(n) ||
        n > static_cast<double>(kMaxRequestId)) {
        throw ProtocolError("bad_request",
                            std::string(context) + ": field '" +
                                std::string(key) +
                                "' must be a non-negative integer");
    }
    return static_cast<std::uint64_t>(n);
}

int int_field(const ga::io::JsonValue& body, std::string_view key,
              std::string_view context) {
    const std::uint64_t n = uint_field(body, key, context);
    constexpr int kMax = std::numeric_limits<int>::max();
    if (n > static_cast<std::uint64_t>(kMax)) {
        throw ProtocolError("bad_request",
                            std::string(context) + ": field '" +
                                std::string(key) + "' must be at most " +
                                std::to_string(kMax));
    }
    return static_cast<int>(n);
}

}  // namespace ga::service
