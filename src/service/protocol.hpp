// Request/response schema of the ga-serve line protocol.
//
// One request per line, one response per line (framing: util/framing.hpp).
// A request is a JSON object with two reserved keys plus a handler-specific
// payload:
//
//   {"id": 7, "type": "balance", "user": "alice"}
//
// `id` is a client-chosen non-negative integer (at most 2^53 so it survives
// JSON's double transport losslessly) echoed verbatim in the response, and
// `type` names the handler. Responses are compact single lines, streamed
// through `ga::io::JsonWriter` (no response DOM is built):
//
//   {"id": 7, "ok": true,  "result": {...}}
//   {"id": 7, "ok": false, "error": {"code": "unknown_user", "message": "..."}}
//
// A request so malformed its id cannot be recovered (parse error, non-object,
// bad id field) is answered with "id": null. Error codes are stable protocol
// surface; messages are human-readable diagnostics (io/json parse errors
// pass through with their line/column positions).
//
// Parsing is strict in both directions: unknown keys in a request are
// rejected (check_keys), so a typo'd optional field fails loudly instead of
// being silently ignored — the same posture as the scenario loader.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "io/json.hpp"
#include "util/error.hpp"

namespace ga::service {

/// A protocol-level failure: carries the stable machine-readable `code`
/// placed in the response's error object alongside the human message.
class ProtocolError : public ga::util::RuntimeError {
public:
    ProtocolError(std::string code, const std::string& message)
        : ga::util::RuntimeError(message), code_(std::move(code)) {}

    [[nodiscard]] const std::string& code() const noexcept { return code_; }

private:
    std::string code_;
};

/// One parsed request: the echoed id, the handler name, and the full
/// request object (handlers pull their payload fields from it).
struct Request {
    std::uint64_t id = 0;
    std::string type;
    ga::io::JsonValue body;  ///< the whole request object
};

/// Largest accepted request id: 2^53, the last integer a JSON double
/// carries exactly.
inline constexpr std::uint64_t kMaxRequestId = 1ULL << 53;

/// Parses and validates one request line. Throws ProtocolError — code
/// "parse_error" for malformed JSON, "bad_request" for a well-formed
/// document violating the envelope (not an object, missing/invalid id or
/// type).
[[nodiscard]] Request parse_request(std::string_view line);

/// Best-effort id recovery from a line that failed full validation, for
/// the "id" field of the error response: returns the id only when the line
/// parses to an object with a valid id. Never throws.
[[nodiscard]] std::optional<std::uint64_t> recover_request_id(
    std::string_view line) noexcept;

/// Opens {"id": N, "ok": true, "result": on `out`. The caller writes the
/// result value, then closes the envelope with `out.end_object()`.
void begin_ok_response(ga::io::JsonWriter& out, std::uint64_t id);

/// Appends {"id": N|null, "ok": false, "error": {"code": ..., "message":
/// ...}} to `out`, compact.
void write_error_response(std::string& out, std::optional<std::uint64_t> id,
                          std::string_view code, std::string_view message);

// ---- strict payload field access ---------------------------------------
// Helpers the handlers use to pull typed fields from the request object.
// All throw ProtocolError("bad_request", ...) naming the offending field.

/// Rejects keys outside `allowed` ("id" and "type" are always allowed).
void check_keys(const ga::io::JsonValue& body,
                std::initializer_list<std::string_view> allowed,
                std::string_view context);

[[nodiscard]] const std::string& string_field(const ga::io::JsonValue& body,
                                              std::string_view key,
                                              std::string_view context);

[[nodiscard]] double number_field(const ga::io::JsonValue& body,
                                  std::string_view key,
                                  std::string_view context);

[[nodiscard]] double number_field_or(const ga::io::JsonValue& body,
                                     std::string_view key,
                                     std::string_view context,
                                     double fallback);

/// Non-negative integer (stored as a JSON number; must be integral and
/// at most 2^53).
[[nodiscard]] std::uint64_t uint_field(const ga::io::JsonValue& body,
                                       std::string_view key,
                                       std::string_view context);

/// Non-negative integer that fits an `int` (core and GPU counts): a larger
/// value is refused, naming the field, rather than narrowed.
[[nodiscard]] int int_field(const ga::io::JsonValue& body, std::string_view key,
                            std::string_view context);

}  // namespace ga::service
