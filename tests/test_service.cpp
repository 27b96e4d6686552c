// Unit tests for the ga-serve service layer: the line protocol's strict
// request envelope, the versioned snapshot codec (round-trip bit-exactness
// and every named rejection), ledger state export/import, and the session
// determinism contract — identical replay, and kill-at-checkpoint/restore
// continuation with byte-identical responses and snapshots.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/accounting.hpp"
#include "core/allocation.hpp"
#include "io/json.hpp"
#include "io/scenario.hpp"
#include "machine/catalog.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/snapshot.hpp"
#include "util/error.hpp"

namespace {

using ga::acct::AccountantSpec;
using ga::acct::JobUsage;
using ga::acct::Ledger;
using ga::acct::LedgerState;
using ga::io::JsonValue;
using ga::io::parse_json;
using ga::service::ClusterSessionState;
using ga::service::ProtocolError;
using ga::service::ServeSession;
using ga::service::SessionState;
using ga::service::decode_snapshot;
using ga::service::encode_snapshot;
using ga::service::parse_request;
using ga::service::recover_request_id;
using ga::service::snapshot_checksum;
using ga::util::PreconditionError;
using ga::util::RuntimeError;

// ------------------------------------------------------------- protocol

TEST(Protocol, ParsesMinimalRequest) {
    const auto r = parse_request(R"({"id": 7, "type": "stats"})");
    EXPECT_EQ(r.id, 7u);
    EXPECT_EQ(r.type, "stats");
    ASSERT_TRUE(r.body.is_object());
}

TEST(Protocol, PayloadFieldsSurviveParsing) {
    const auto r =
        parse_request(R"({"id": 1, "type": "balance", "user": "alice"})");
    const JsonValue* user = r.body.find("user");
    ASSERT_NE(user, nullptr);
    EXPECT_EQ(user->as_string(), "alice");
}

// Each envelope violation carries the stable error code the daemon answers
// with.
void expect_protocol_error(std::string_view line, std::string_view code,
                           std::string_view message_piece) {
    try {
        (void)parse_request(line);
        FAIL() << "expected ProtocolError for: " << line;
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), code) << line;
        EXPECT_NE(std::string_view(e.what()).find(message_piece),
                  std::string_view::npos)
            << "diagnostic '" << e.what() << "' does not mention '"
            << message_piece << "'";
    }
}

TEST(Protocol, RejectsEnvelopeViolations) {
    expect_protocol_error("not json at all", "parse_error", "parse error");
    expect_protocol_error("[1, 2]", "bad_request", "object");
    expect_protocol_error(R"({"type": "stats"})", "bad_request", "id");
    expect_protocol_error(R"({"id": -1, "type": "stats"})", "bad_request",
                          "id");
    expect_protocol_error(R"({"id": 1.5, "type": "stats"})", "bad_request",
                          "id");
    expect_protocol_error(R"({"id": 9007199254740994, "type": "x"})",
                          "bad_request", "id");
    expect_protocol_error(R"({"id": 1})", "bad_request", "type");
    expect_protocol_error(R"({"id": 1, "type": 3})", "bad_request", "type");
}

TEST(Protocol, RecoverRequestIdBestEffort) {
    EXPECT_EQ(recover_request_id(R"({"id": 42, "type": 3})"), 42u);
    EXPECT_EQ(recover_request_id("garbage"), std::nullopt);
    EXPECT_EQ(recover_request_id(R"({"id": -3, "type": "x"})"), std::nullopt);
}

TEST(Protocol, ErrorResponseWithoutIdRendersNull) {
    const std::string line = ga::service::render(
        ga::service::error_response(std::nullopt, "parse_error", "boom"));
    EXPECT_EQ(line.find(R"({"id":null,"ok":false)"), 0u) << line;
}

TEST(Protocol, CheckKeysRejectsUnknownField) {
    const auto r =
        parse_request(R"({"id": 1, "type": "balance", "uzer": "alice"})");
    try {
        ga::service::check_keys(r.body, {"user"}, "balance");
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
        EXPECT_EQ(e.code(), "bad_request");
        EXPECT_NE(std::string_view(e.what()).find("uzer"),
                  std::string_view::npos)
            << e.what();
    }
}

// ------------------------------------------------------- snapshot codec

/// A hand-built state touching every field group: two clusters with
/// running/queued jobs, a mid-stream RNG, and a two-currency ledger with
/// history and a refund link.
SessionState sample_state() {
    Ledger ledger;
    ledger.define_currency("credits", AccountantSpec{"EBA", {}});
    ledger.define_currency("carbon", AccountantSpec{"CBA", {}});
    ledger.create_account("alice", {{"credits", 5.0e5}, {"carbon", 1.0e4}});
    ledger.create_account("bob", {{"credits", 2.0e5}});
    JobUsage usage;
    usage.duration_s = 600.0;
    usage.energy_j = 5.0e4;
    usage.cores = 4;
    const auto outcome =
        ledger.charge("alice", usage, ga::machine::find("IC"));
    EXPECT_TRUE(outcome.admitted);
    EXPECT_FALSE(outcome.transactions.empty());
    (void)ledger.refund("alice", outcome.transactions.front());

    SessionState state;
    state.config_fingerprint = R"({"name":"sample","seed":7})";
    state.clock_s = 1234.5;
    state.next_seq = 9;
    ga::util::Rng rng(2023);
    (void)rng.normal();  // leaves a Box-Muller spare in the state
    state.rng = rng.state();
    state.jobs_submitted = 8;
    state.jobs_rejected = 1;
    state.primary_spent = 98765.4321;
    ClusterSessionState faster;
    faster.name = "FASTER";
    faster.capacity_cores = 2048;
    faster.free_cores = 2000;
    faster.running.push_back({3, 48, 2000.25});
    faster.started = 5;
    faster.completed = 4;
    ClusterSessionState theta;
    theta.name = "Theta";
    theta.capacity_cores = 4096;
    theta.free_cores = 0;
    theta.queue.push_back({7, 4096, 777.0});
    theta.started = 2;
    theta.completed = 2;
    theta.queued_core_seconds = 4096 * 777.0;
    state.clusters = {faster, theta};
    state.ledger = ledger.export_state();
    return state;
}

TEST(Snapshot, RoundTripIsBitExact) {
    const SessionState state = sample_state();
    const std::string bytes = encode_snapshot(state);
    const SessionState back = decode_snapshot(bytes);
    EXPECT_EQ(back, state);
    // encode is a pure function of the state: re-encoding the decoded state
    // reproduces the exact bytes.
    EXPECT_EQ(encode_snapshot(back), bytes);
}

TEST(Snapshot, ChecksumMatchesHeaderField) {
    const std::string bytes = encode_snapshot(sample_state());
    ASSERT_GT(bytes.size(), 32u);
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
        stored |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(bytes[24 + i]))
                  << (8 * i);
    }
    EXPECT_EQ(stored, snapshot_checksum(std::string_view(bytes).substr(32)));
}

void expect_decode_error(std::string_view bytes, std::string_view piece) {
    try {
        (void)decode_snapshot(bytes);
        FAIL() << "expected RuntimeError mentioning '" << piece << "'";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string_view(e.what()).find(piece),
                  std::string_view::npos)
            << "diagnostic '" << e.what() << "' does not mention '" << piece
            << "'";
    }
}

TEST(Snapshot, RejectsTruncatedHeader) {
    const std::string bytes = encode_snapshot(sample_state());
    expect_decode_error(std::string_view(bytes).substr(0, 16),
                        "header truncated");
    expect_decode_error("", "header truncated");
}

TEST(Snapshot, RejectsBadMagic) {
    std::string bytes = encode_snapshot(sample_state());
    bytes[0] = 'X';
    expect_decode_error(bytes, "bad magic");
}

TEST(Snapshot, RejectsUnknownVersion) {
    std::string bytes = encode_snapshot(sample_state());
    bytes[8] = 3;  // version u32 little-endian at offset 8
    expect_decode_error(bytes, "unsupported version 3");
}

TEST(Snapshot, RefusesVersionOneByName) {
    std::string bytes = encode_snapshot(sample_state());
    bytes[8] = 1;
    expect_decode_error(bytes, "version 1 snapshots are refused");
}

TEST(Snapshot, RejectsEndiannessMismatch) {
    std::string bytes = encode_snapshot(sample_state());
    std::swap(bytes[12], bytes[15]);  // byte-swap the endianness tag
    expect_decode_error(bytes, "endianness");
}

TEST(Snapshot, RejectsTruncatedPayload) {
    const std::string bytes = encode_snapshot(sample_state());
    expect_decode_error(std::string_view(bytes).substr(0, bytes.size() - 5),
                        "payload length mismatch");
}

TEST(Snapshot, RejectsTrailingGarbage) {
    std::string bytes = encode_snapshot(sample_state());
    bytes += "extra";
    expect_decode_error(bytes, "payload length mismatch");
}

TEST(Snapshot, RejectsCorruptedPayload) {
    std::string bytes = encode_snapshot(sample_state());
    bytes[40] = static_cast<char>(static_cast<unsigned char>(bytes[40]) ^ 0xFF);
    expect_decode_error(bytes, "checksum mismatch");
}

TEST(Snapshot, RejectsTruncationInsideAField) {
    // Shorten the payload but re-stamp a consistent length and checksum, so
    // decoding gets past the header and dies inside a named field read.
    const std::string bytes = encode_snapshot(sample_state());
    std::string payload(std::string_view(bytes).substr(32));
    payload.resize(payload.size() / 2);
    std::string header(std::string_view(bytes).substr(0, 32));
    const std::uint64_t len = payload.size();
    const std::uint64_t sum = snapshot_checksum(payload);
    for (int i = 0; i < 8; ++i) {
        header[16 + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
        header[24 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
    }
    expect_decode_error(header + payload, "truncated reading");
}

// ------------------------------------------------- ledger export/import

TEST(LedgerState, ExportImportRoundTrip) {
    const SessionState state = sample_state();
    Ledger restored;
    restored.import_state(state.ledger);
    EXPECT_EQ(restored.export_state(), state.ledger);
    // The restored ledger is live: the next transaction id continues the
    // sequence instead of colliding with history.
    JobUsage usage;
    usage.duration_s = 60.0;
    usage.energy_j = 1.0e4;
    const auto outcome =
        restored.charge("bob", usage, ga::machine::find("IC"));
    ASSERT_TRUE(outcome.admitted);
    ASSERT_FALSE(outcome.transactions.empty());
    EXPECT_EQ(outcome.transactions.front(), state.ledger.next_id);
}

TEST(LedgerState, RawAccountantIsNotSnapshottable) {
    Ledger ledger;
    ledger.define_currency(
        "credits",
        ga::acct::AccountantRegistry::global().make(AccountantSpec{"EBA", {}}));
    ledger.create_account("alice", 100.0);
    try {
        (void)ledger.export_state();
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string_view(e.what()).find("not snapshottable"),
                  std::string_view::npos)
            << e.what();
    }
}

TEST(LedgerState, ImportRejectsTamperedStates) {
    const LedgerState good = sample_state().ledger;

    LedgerState bad_spec = good;
    bad_spec.currencies.front().second.name = "NoSuchMethod";
    LedgerState dup_user = good;
    dup_user.accounts.push_back(dup_user.accounts.front());
    LedgerState bad_ids = good;
    ASSERT_GE(bad_ids.transactions.size(), 2u);
    bad_ids.transactions[1].id = bad_ids.transactions[0].id;
    LedgerState low_next = good;
    low_next.next_id = low_next.transactions.back().id;
    LedgerState overdraft = good;
    ASSERT_FALSE(overdraft.accounts.empty());
    overdraft.accounts.front().holdings.front().second.spent =
        overdraft.accounts.front().holdings.front().second.budget + 1.0;

    // Validation failures surface as RuntimeError (structural problems) or
    // PreconditionError (value-range violations, e.g. overdraft); both
    // derive from std::runtime_error.
    for (const LedgerState* state :
         {&bad_spec, &dup_user, &bad_ids, &low_next, &overdraft}) {
        Ledger ledger;
        EXPECT_THROW(ledger.import_state(*state), std::runtime_error);
    }
}

// ------------------------------------------------------------- session

ga::io::ScenarioFile ci_scenario() {
    return ga::io::load_scenario_file(
        std::string(GA_REPO_SCENARIO_DIR) + "/ci_smoke.json");
}

/// The request sequence the determinism tests replay: account setup, an
/// explicit submit, a generated batch (exercising the RNG), a burst that
/// queues behind FASTER's blocked heads, clock advancement that starts some
/// of it, pricing, and a charge/refund pair. The split restore lands after
/// queued jobs have started, so the quotes that follow it read a queued-work
/// sum that a restore rebuilding it from the queue, instead of carrying it,
/// would get wrong in the last bits.
std::vector<std::string> session_script() {
    return {
        R"({"id":1,"type":"create_account","user":"alice","budget":500000})",
        R"({"id":2,"type":"submit_jobs","jobs":[{"user":"alice","cores":8,"runtime_ic_s":3600,"power_ic_w":150}]})",
        R"({"id":3,"type":"submit_jobs","generate":{"count":4,"start_s":50,"spacing_s":25}})",
        R"({"id":4,"type":"submit_jobs","jobs":[{"user":"q1","cores":1024,"runtime_ic_s":1200.1,"power_ic_w":19200,"submit_s":200},{"user":"q2","cores":1000,"runtime_ic_s":30000.3,"power_ic_w":19200,"submit_s":200},{"user":"q3","cores":1024,"runtime_ic_s":1300.7,"power_ic_w":19200,"submit_s":200},{"user":"q4","cores":4,"runtime_ic_s":120.9,"power_ic_w":75,"submit_s":200},{"user":"q5","cores":1500,"runtime_ic_s":3600.3,"power_ic_w":28125,"submit_s":200},{"user":"q6","cores":1500,"runtime_ic_s":2400.1,"power_ic_w":28125,"submit_s":200},{"user":"q7","cores":8,"runtime_ic_s":600.7,"power_ic_w":150,"submit_s":200}]})",
        R"({"id":5,"type":"quote","user":"alice","cores":16,"runtime_ic_s":600,"power_ic_w":200})",
        R"({"id":6,"type":"advance","to_s":4000})",
        R"({"id":7,"type":"quote","cores":8,"runtime_ic_s":600,"power_ic_w":150})",
        R"({"id":8,"type":"charge","user":"alice","machine":"IC","duration_s":60,"energy_j":10000,"cores":2})",
        R"({"id":9,"type":"refund","user":"alice","transaction":2})",
        R"({"id":10,"type":"balance","user":"alice"})",
        R"({"id":11,"type":"quote","cores":2000,"runtime_ic_s":60,"power_ic_w":4000})",
        R"({"id":12,"type":"stats"})",
    };
}

TEST(Session, ReplayIsByteIdentical) {
    ServeSession a(ci_scenario());
    ServeSession b(ci_scenario());
    for (const std::string& line : session_script()) {
        EXPECT_EQ(a.handle_line(line), b.handle_line(line)) << line;
    }
    EXPECT_EQ(encode_snapshot(a.export_state()),
              encode_snapshot(b.export_state()));
}

TEST(Session, CheckpointRestoreContinuesByteIdentically) {
    const std::vector<std::string> script = session_script();
    const std::size_t split = script.size() / 2;

    ServeSession full(ci_scenario());
    std::vector<std::string> expected;
    expected.reserve(script.size());
    for (const std::string& line : script) {
        expected.push_back(full.handle_line(line));
    }

    // Interrupted twin: replay the head, snapshot, restore a fresh session
    // from the decoded bytes, replay the tail.
    ServeSession head(ci_scenario());
    for (std::size_t i = 0; i < split; ++i) {
        EXPECT_EQ(head.handle_line(script[i]), expected[i]);
    }
    const std::string frozen = encode_snapshot(head.export_state());
    ServeSession tail(ci_scenario(), decode_snapshot(frozen));
    for (std::size_t i = split; i < script.size(); ++i) {
        EXPECT_EQ(tail.handle_line(script[i]), expected[i]) << script[i];
    }
    EXPECT_EQ(encode_snapshot(tail.export_state()),
              encode_snapshot(full.export_state()));
}

TEST(Session, RestoreRejectsMismatchedConfiguration) {
    ServeSession session(ci_scenario());
    SessionState state = session.export_state();

    ga::io::ScenarioFile other = ci_scenario();
    other.workload.seed += 1;
    try {
        ServeSession mismatched(std::move(other), state);
        FAIL() << "expected RuntimeError";
    } catch (const RuntimeError& e) {
        EXPECT_NE(std::string_view(e.what()).find("fingerprint"),
                  std::string_view::npos)
            << e.what();
    }

    SessionState tampered = state;
    tampered.clusters.pop_back();
    EXPECT_THROW(ServeSession(ci_scenario(), tampered), RuntimeError);
}

/// Pulls `response.result` after asserting `ok` is true.
JsonValue result_of(const std::string& response) {
    const JsonValue doc = parse_json(response);
    const JsonValue* ok = doc.find("ok");
    EXPECT_TRUE(ok != nullptr && ok->as_bool()) << response;
    const JsonValue* result = doc.find("result");
    EXPECT_NE(result, nullptr) << response;
    return *result;
}

TEST(Session, ChargeRefundRestoresBalance) {
    ServeSession session(ci_scenario());
    (void)session.handle_line(
        R"({"id":1,"type":"create_account","user":"alice","budget":1000000})");
    const JsonValue before = result_of(
        session.handle_line(R"({"id":2,"type":"balance","user":"alice"})"));
    const JsonValue charged = result_of(session.handle_line(
        R"({"id":3,"type":"charge","user":"alice","machine":"IC","duration_s":60,"energy_j":10000,"cores":2})"));
    EXPECT_TRUE(charged.find("admitted")->as_bool());
    const std::uint64_t tx = static_cast<std::uint64_t>(
        charged.find("transactions")->as_array().front().as_number());
    const JsonValue refunded = result_of(session.handle_line(
        R"({"id":4,"type":"refund","user":"alice","transaction":)" +
        std::to_string(tx) + "}"));
    EXPECT_NE(refunded.find("refund"), nullptr);
    const JsonValue after = result_of(
        session.handle_line(R"({"id":5,"type":"balance","user":"alice"})"));
    EXPECT_EQ(ga::service::render(before), ga::service::render(after));
}

/// Pulls `response.error.code` after asserting `ok` is false.
std::string error_code_of(const std::string& response) {
    const JsonValue doc = parse_json(response);
    const JsonValue* ok = doc.find("ok");
    EXPECT_TRUE(ok != nullptr && !ok->as_bool()) << response;
    return doc.find("error")->find("code")->as_string();
}

TEST(Session, StructuredErrorsCarryStableCodes) {
    ServeSession session(ci_scenario());
    EXPECT_EQ(error_code_of(session.handle_line("{nope")), "parse_error");
    EXPECT_EQ(error_code_of(session.handle_line(
                  R"({"id":1,"type":"frobnicate"})")),
              "unknown_type");
    EXPECT_EQ(error_code_of(session.handle_line(
                  R"({"id":2,"type":"balance","user":"ghost"})")),
              "unknown_user");
    EXPECT_EQ(error_code_of(session.handle_line(
                  R"({"id":3,"type":"balance","uzer":"x"})")),
              "bad_request");
    // The clock never moves backwards.
    (void)session.handle_line(R"({"id":4,"type":"advance","to_s":100})");
    EXPECT_EQ(error_code_of(session.handle_line(
                  R"({"id":5,"type":"advance","to_s":50})")),
              "bad_request");
    // A parse failure that still carries a recoverable id echoes it.
    const std::string bad = session.handle_line(R"({"id": 9, "type": 5})");
    EXPECT_EQ(parse_json(bad).find("id")->as_number(), 9.0);
}

TEST(Session, ShutdownSetsTheFlag) {
    ServeSession session(ci_scenario());
    EXPECT_FALSE(session.shutdown_requested());
    const JsonValue result =
        result_of(session.handle_line(R"({"id":1,"type":"shutdown"})"));
    EXPECT_TRUE(result.find("stopping")->as_bool());
    EXPECT_TRUE(session.shutdown_requested());
}

TEST(Session, NonFiniteSubmitIsRefusedWithoutStateChange) {
    // A job whose predicted energy and cost overflow must not be admitted:
    // an accountless user's cost would otherwise reach primary_spent, and
    // every later `stats` would fail to render it. The refusal covers the
    // whole request, including the finite job before the overflowing one.
    ServeSession session(ci_scenario());
    (void)result_of(session.handle_line(
        R"({"id":1,"type":"submit_jobs","jobs":[{"user":"u1","cores":8,"runtime_ic_s":3600,"power_ic_w":150}]})"));
    const std::string before = encode_snapshot(session.export_state());
    const std::string finite =
        R"({"user":"u2","cores":8,"runtime_ic_s":60,"power_ic_w":150})";
    const std::string huge =
        R"({"user":"u3","cores":8,"runtime_ic_s":1e308,"power_ic_w":1e308})";
    for (const std::string& jobs : {huge, finite + "," + huge}) {
        const std::string request =
            R"({"id":2,"type":"submit_jobs","jobs":[)" + jobs + "]}";
        EXPECT_EQ(error_code_of(session.handle_line(request)), "bad_request")
            << request;
        EXPECT_EQ(encode_snapshot(session.export_state()), before) << request;
        (void)result_of(session.handle_line(R"({"id":3,"type":"stats"})"));
    }
}

}  // namespace
