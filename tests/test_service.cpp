// Unit tests for the ga-serve service layer: the line protocol's strict
// request envelope, the versioned snapshot codec (round-trip bit-exactness
// and every named rejection), ledger state export/import, and the session
// determinism contract — identical replay, and kill-at-checkpoint/restore
// continuation with byte-identical responses and snapshots.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
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
#include "util/rng.hpp"

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
    std::string line;
    ga::service::write_error_response(line, std::nullopt, "parse_error",
                                      "boom");
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

TEST(Snapshot, RejectsNonFiniteFieldsByName) {
    // Checksummed and well-formed, but a NaN clock or an infinite spend
    // would poison the restored session, so the decoder names the field.
    SessionState nan_clock = sample_state();
    nan_clock.clock_s = std::numeric_limits<double>::quiet_NaN();
    expect_decode_error(encode_snapshot(nan_clock),
                        "non-finite value reading clock_s");
    SessionState inf_spent = sample_state();
    inf_spent.ledger.accounts.front().holdings.front().second.spent =
        std::numeric_limits<double>::infinity();
    expect_decode_error(encode_snapshot(inf_spent),
                        "non-finite value reading ledger.holding.spent");
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

    // A holding in a currency the state does not define, which no later
    // charge could price, and a second holding of one currency are refused
    // with the account and the currency named.
    LedgerState bad_holding = good;
    ASSERT_EQ(bad_holding.accounts.back().user, "bob");
    bad_holding.accounts.back().holdings.front().first = "bogus";
    LedgerState dup_holding = good;
    ASSERT_EQ(dup_holding.accounts.front().user, "alice");
    auto& holdings = dup_holding.accounts.front().holdings;
    holdings.push_back(holdings.front());
    for (const auto& [state, user, currency] :
         {std::tuple{&bad_holding, "bob", "bogus"},
          std::tuple{&dup_holding, "alice", holdings.front().first.c_str()}}) {
        Ledger ledger;
        try {
            ledger.import_state(*state);
            ADD_FAILURE() << user << "'s " << currency << " holding restored";
        } catch (const RuntimeError& e) {
            const std::string_view what = e.what();
            EXPECT_NE(what.find(user), std::string_view::npos) << what;
            EXPECT_NE(what.find(currency), std::string_view::npos) << what;
        }
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
    EXPECT_EQ(ga::io::write_json(before, 0), ga::io::write_json(after, 0));
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

TEST(Session, NonFiniteQuoteAndChargeAreRefusedWithoutStateChange) {
    // Figures that overflow are refused before the handler builds its
    // response, naming the figure and the machine; the session is left as
    // it was.
    ServeSession session(ci_scenario());
    (void)result_of(session.handle_line(
        R"({"id":1,"type":"create_account","user":"bob","budget":1000000})"));
    const std::string before = encode_snapshot(session.export_state());
    const std::pair<std::string, std::string> cases[] = {
        {R"({"id":2,"type":"quote","cores":8,"runtime_ic_s":1e308,"power_ic_w":150})",
         "quote has a non-finite predicted energy on FASTER"},
        {R"({"id":3,"type":"quote","user":"bob","cores":8,"runtime_ic_s":1e308,"power_ic_w":150})",
         "quote has a non-finite predicted energy on FASTER"},
        {R"({"id":4,"type":"charge","user":"bob","machine":"IC","duration_s":1e308,"energy_j":1e308,"cores":4})",
         "charge has a non-finite cost in credits on IC"},
    };
    for (const auto& [request, message] : cases) {
        const std::string response = session.handle_line(request);
        EXPECT_EQ(error_code_of(response), "bad_request") << response;
        EXPECT_NE(response.find(message), std::string::npos) << response;
        EXPECT_EQ(encode_snapshot(session.export_state()), before) << request;
    }
    (void)result_of(session.handle_line(R"({"id":5,"type":"stats"})"));
}

TEST(Session, WorkSumOverflowIsRefusedWithoutStateChange) {
    // Under Runtime pricing a 64-core job of runtime_ic_s 1e307 has a finite
    // cost, but its cores * runtime is not finite. Two such jobs used to be
    // accepted: the immediate-start path's `+= inf; -= inf` left the
    // cluster's queued-work sum NaN, the checkpoint succeeded, and restoring
    // it failed. Two jobs of 5e305 overflow only together, on Theta.
    const ga::io::ScenarioFile runtime_priced =
        ga::io::scenario_from_json(parse_json(R"({
            "name": "runtime-priced",
            "workload": {"base_jobs": 360, "repetitions": 2, "users": 40,
                         "span_days": 2.0, "seed": 2023},
            "options": {"pricing": "Runtime"}})"));
    ServeSession session(runtime_priced);
    (void)result_of(session.handle_line(
        R"({"id":1,"type":"submit_jobs","jobs":[{"user":"u1","cores":8,"runtime_ic_s":3600,"power_ic_w":150}]})"));
    const std::string before = encode_snapshot(session.export_state());
    const std::pair<std::string, std::string> cases[] = {
        {R"({"user":"a","cores":64,"runtime_ic_s":1e307,"power_ic_w":1},{"user":"b","cores":64,"runtime_ic_s":1e307,"power_ic_w":1})",
         "job 0 has a non-finite cores * runtime on FASTER"},
        {R"({"user":"a","cores":64,"runtime_ic_s":5e305,"power_ic_w":1},{"user":"b","cores":64,"runtime_ic_s":5e305,"power_ic_w":1})",
         "could make Theta's core-second sums non-finite"},
    };
    for (const auto& [jobs, message] : cases) {
        const std::string response = session.handle_line(
            R"({"id":2,"type":"submit_jobs","jobs":[)" + jobs + "]}");
        EXPECT_EQ(error_code_of(response), "bad_request") << response;
        EXPECT_NE(response.find(message), std::string::npos) << response;
        EXPECT_EQ(encode_snapshot(session.export_state()), before) << jobs;
    }
    // A later checkpoint restores.
    (void)result_of(session.handle_line(
        R"({"id":3,"type":"submit_jobs","jobs":[{"user":"u2","cores":4,"runtime_ic_s":60,"power_ic_w":75}]})"));
    const std::string frozen = encode_snapshot(session.export_state());
    const ServeSession restored(runtime_priced, decode_snapshot(frozen));
    EXPECT_EQ(encode_snapshot(restored.export_state()), frozen);
}

TEST(Session, NonFiniteCurrencyCostIsRefusedWithoutStateChange) {
    // An account holder's submit shows the ledger's cost in each of its
    // currencies. Here that currency (CarbonTax at rate 1e308) overflows
    // while the routing price (EBA) stays finite. The request used to admit
    // job 0, refuse job 1 in the ledger, and then fail to render: an error
    // after a half-applied request.
    const ga::io::ScenarioFile taxed = ga::io::scenario_from_json(parse_json(R"({
        "name": "taxed",
        "workload": {"base_jobs": 360, "repetitions": 2, "users": 40,
                     "span_days": 2.0, "seed": 2023},
        "options": {"pricing": "EBA", "currency_budgets": [
            {"currency": "tax", "budget": 1,
             "accountant": {"name": "CarbonTax", "params": {"rate": 1e308}}}]}})"));
    ServeSession session(taxed);
    (void)result_of(session.handle_line(
        R"({"id":1,"type":"create_account","user":"a","budgets":{"tax":1e308}})"));
    const std::string before = encode_snapshot(session.export_state());
    const std::string response = session.handle_line(
        R"({"id":2,"type":"submit_jobs","jobs":[{"user":"anon","cores":8,"runtime_ic_s":3600,"power_ic_w":150},{"user":"a","cores":8,"runtime_ic_s":3600000,"power_ic_w":150}]})");
    EXPECT_EQ(error_code_of(response), "bad_request") << response;
    EXPECT_NE(response.find("job 1 has a non-finite cost in tax on"),
              std::string::npos)
        << response;
    EXPECT_EQ(encode_snapshot(session.export_state()), before);
}

TEST(Session, QuoteWithNonStringUserIsExactlyTheErrorLine) {
    ServeSession session(ci_scenario());
    EXPECT_EQ(
        session.handle_line(
            R"({"id":5,"type":"quote","user":7,"cores":8,"runtime_ic_s":600,"power_ic_w":150})"),
        R"({"id":5,"ok":false,"error":{"code":"bad_request","message":"quote: 'user' must be a string"}})");
}

/// Prices every job at a negative cost; the ledger refuses to charge it.
class NegativeAccounting final : public ga::acct::Accountant {
public:
    [[nodiscard]] double charge(const JobUsage& /*usage*/,
                                const ga::machine::CatalogEntry& /*m*/)
        const override {
        return -1.0;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "Negative";
    }
    [[nodiscard]] std::string_view unit() const noexcept override {
        return "credits";
    }
};

TEST(Session, HandlerThrowingMidResultLeavesOnlyTheErrorLine) {
    // An account holder's submit writes its job's "user" before the ledger
    // charges it; the ledger then refuses the negative cost by throwing.
    auto& registry = ga::acct::AccountantRegistry::global();
    if (!registry.contains("Negative")) {
        registry.register_accountant("Negative", [](const AccountantSpec&) {
            return std::make_unique<NegativeAccounting>();
        });
    }
    const ga::io::ScenarioFile negative = ga::io::scenario_from_json(parse_json(R"({
        "name": "negative-priced",
        "workload": {"base_jobs": 360, "repetitions": 2, "users": 40,
                     "span_days": 2.0, "seed": 2023},
        "options": {"pricing": "Negative"}})"));
    ServeSession session(negative);
    (void)result_of(session.handle_line(
        R"({"id":1,"type":"create_account","user":"alice","budget":100})"));
    const std::string response = session.handle_line(
        R"({"id":2,"type":"submit_jobs","jobs":[{"user":"alice","cores":8,"runtime_ic_s":3600,"power_ic_w":150}]})");
    const JsonValue doc = parse_json(response);  // one document, no prefix
    EXPECT_EQ(doc.find("error")->find("code")->as_string(), "precondition")
        << response;
    std::string expected;
    ga::service::write_error_response(
        expected, 2, "precondition",
        doc.find("error")->find("message")->as_string());
    EXPECT_EQ(response, expected);
}

/// A seeded stream over every verb but checkpoint and shutdown, with
/// account holders and accountless users, multi-job and generated submits,
/// refunds, clock advances and refused requests.
std::vector<std::string> seeded_stream(std::uint64_t seed, std::size_t n) {
    ga::util::Rng rng(seed);
    std::vector<std::string> lines;
    std::uint64_t id = 0;
    const auto add = [&](const std::string& body) {
        lines.push_back(R"({"id":)" + std::to_string(++id) + "," + body + "}");
    };
    const auto job = [&](const std::string& user, double submit_s) {
        return R"({"user":")" + user + R"(","cores":)" +
               std::to_string(1 << rng.uniform_int(0, 6)) +
               R"(,"runtime_ic_s":)" +
               ga::io::format_double(rng.uniform(1.0, 20000.0)) +
               R"(,"power_ic_w":)" +
               ga::io::format_double(rng.uniform(10.0, 2000.0)) +
               R"(,"gips":)" + ga::io::format_double(rng.uniform(0.5, 4.0)) +
               R"(,"submit_s":)" + ga::io::format_double(submit_s) + "}";
    };
    for (int u = 0; u < 4; ++u) {
        add(R"("type":"create_account","user":"u)" + std::to_string(u) +
            R"(","budget":)" + ga::io::format_double(rng.uniform(1e4, 1e7)));
    }
    double clock = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string user = "u" + std::to_string(rng.uniform_int(0, 5));
        clock += rng.uniform(0.0, 50.0);
        switch (rng.uniform_int(0, 9)) {
            case 0:
            case 1:
                add(R"("type":"submit_jobs","jobs":[)" + job(user, clock) +
                    "," + job("anon", clock) + "]");
                break;
            case 2:
                add(R"("type":"submit_jobs","generate":{"count":3,"start_s":)" +
                    ga::io::format_double(clock) + "}");
                clock += 3.0;
                break;
            case 3: {
                std::string quote = job(user, clock);
                quote.replace(quote.find(R"("submit_s")"), std::string::npos,
                              R"("priced_at_s":)" +
                                  ga::io::format_double(clock) + "}");
                add(R"("type":"quote",)" + quote.substr(1, quote.size() - 2));
                break;
            }
            case 4:
                add(R"("type":"charge","user":")" + user +
                    R"(","machine":"Theta","duration_s":)" +
                    ga::io::format_double(rng.uniform(1.0, 1e4)) +
                    R"(,"energy_j":)" +
                    ga::io::format_double(rng.uniform(1.0, 1e7)) +
                    R"(,"cores":4,"gpus":1})");
                break;
            case 5:
                add(R"("type":"refund","user":")" + user +
                    R"(","transaction":)" +
                    std::to_string(rng.uniform_int(1, 40)));
                break;
            case 6: add(R"("type":"balance","user":")" + user + "\""); break;
            case 7: add(R"("type":"stats")"); break;
            case 8:
                add(R"("type":"advance","to_s":)" + ga::io::format_double(clock));
                break;
            default: add(R"("type":"metrics")"); break;
        }
    }
    // Escapes in an echoed user name and in an error message.
    add(R"("type":"create_account","user":"t\tü\u0001\"","budget":5)");
    add(R"("type":"balance","us\"er":"u0")");
    lines.emplace_back("{nope");
    return lines;
}

TEST(Session, EveryStreamedResponseIsCanonicalJson) {
    // The streamed response bytes are what write_json gives the parsed DOM:
    // one compact document per line, and the same bytes the DOM path wrote.
    ServeSession session(ci_scenario());
    std::size_t ok = 0;
    std::size_t failed = 0;
    for (const std::string& line : seeded_stream(/*seed=*/20251, 400)) {
        const std::string response = session.handle_line(line);
        const JsonValue doc = parse_json(response);
        EXPECT_EQ(ga::io::write_json(doc, 0), response) << line;
        (doc.find("ok")->as_bool() ? ok : failed) += 1;
    }
    // The stream exercises both envelopes.
    EXPECT_GT(ok, 300u);
    EXPECT_GT(failed, 2u);
}

TEST(Session, CountsAboveIntMaxAreRefusedWithoutStateChange) {
    // Each count used to be narrowed to an int: a quote of 2^32 + 8 cores
    // priced 8, a submit of 2^32 + 1 cores ran 1, and a charge billed 2^32 +
    // 2 cores and 2^32 GPUs as 2 and 0.
    ServeSession session(ci_scenario());
    (void)result_of(session.handle_line(
        R"({"id":1,"type":"create_account","user":"bob","budget":1000000})"));
    const std::string before = encode_snapshot(session.export_state());
    const std::pair<std::string, std::string> cases[] = {
        {R"({"id":2,"type":"quote","cores":4294967304,"runtime_ic_s":600,"power_ic_w":150})",
         "quote: field 'cores' must be at most 2147483647"},
        {R"({"id":3,"type":"submit_jobs","jobs":[{"user":"bob","cores":4294967297,"runtime_ic_s":600,"power_ic_w":150}]})",
         "submit_jobs.job: field 'cores' must be at most 2147483647"},
        {R"({"id":4,"type":"charge","user":"bob","machine":"IC","duration_s":60,"energy_j":1000,"cores":4294967298,"gpus":4294967296})",
         "charge: field 'cores' must be at most 2147483647"},
        {R"({"id":5,"type":"charge","user":"bob","machine":"IC","duration_s":60,"energy_j":1000,"cores":2,"gpus":4294967296})",
         "charge: field 'gpus' must be at most 2147483647"},
    };
    for (const auto& [request, message] : cases) {
        const std::string response = session.handle_line(request);
        EXPECT_EQ(error_code_of(response), "bad_request") << response;
        EXPECT_NE(response.find(message), std::string::npos) << response;
        EXPECT_EQ(encode_snapshot(session.export_state()), before) << request;
    }
    // The largest int is still a count (the quote prices it).
    (void)result_of(session.handle_line(
        R"({"id":6,"type":"quote","cores":2147483647,"runtime_ic_s":600,"power_ic_w":150})"));
}

TEST(Session, CurrencyCostsOnRegionalGridsMatchTheRoutingCost) {
    // On regional grids the routing price reads the grid traces, and so do
    // the ledger's and the quote's currency accountants: an account
    // holder's charge is the job's routing cost, bit for bit, also after a
    // restore rebuilt the ledger's accountants.
    const ga::io::ScenarioFile regional =
        ga::io::scenario_from_json(parse_json(R"({
            "name": "regional-cba",
            "workload": {"base_jobs": 360, "repetitions": 2, "users": 40,
                         "span_days": 2.0, "seed": 2023},
            "options": {"regional_grids": true, "pricing": "CBA"}})"));
    const auto check = [](ServeSession& session, double submit_s) {
        const std::string at = ga::io::format_double(submit_s);
        const JsonValue submitted = result_of(session.handle_line(
            R"({"id":2,"type":"submit_jobs","jobs":[{"user":"alice","cores":8,"runtime_ic_s":3600,"power_ic_w":150,"submit_s":)" +
            at + "}]}"));
        const JsonValue& job = submitted.at("jobs").as_array().front();
        EXPECT_EQ(job.at("costs").at("credits").as_number(),
                  job.at("cost").as_number());
        const JsonValue quoted = result_of(session.handle_line(
            R"({"id":3,"type":"quote","user":"alice","cores":8,"runtime_ic_s":3600,"power_ic_w":150,"priced_at_s":)" +
            at + "}"));
        const std::string& chosen = quoted.at("chosen").as_string();
        const JsonValue* machine_cost = nullptr;
        for (const JsonValue& m : quoted.at("machines").as_array()) {
            if (m.at("machine").as_string() == chosen) machine_cost = &m.at("cost");
        }
        EXPECT_NE(machine_cost, nullptr) << chosen;
        if (machine_cost != nullptr) {
            EXPECT_EQ(quoted.at("currency_costs").at("credits").as_number(),
                      machine_cost->as_number());
        }
        return job.at("cost").as_number();
    };
    ServeSession session(regional);
    (void)result_of(session.handle_line(
        R"({"id":1,"type":"create_account","user":"alice","budget":1e12})"));
    const double first = check(session, 36000.0);
    ServeSession restored(regional,
                          decode_snapshot(encode_snapshot(session.export_state())));
    // The same job an hour later, before and after the restore.
    const double later = check(session, 39600.0);
    EXPECT_EQ(check(restored, 39600.0), later);
    EXPECT_NE(first, later);  // the grid's intensity moved the cost
}

TEST(Session, RestoreRejectsLedgerCurrenciesTheScenarioDoesNotDefine) {
    // Quotes price each currency with the scenario's accountant, so a
    // snapshot whose ledger defines the currencies otherwise would charge
    // what it quotes under another spec (gCO2e under EBA instead of CBA).
    const auto dual = [] {
        return ga::io::load_scenario_file(std::string(GA_REPO_SCENARIO_DIR) +
                                          "/outage_dual_budget.json");
    };
    ServeSession session(dual());
    (void)result_of(session.handle_line(
        R"({"id":1,"type":"create_account","user":"alice","budgets":{"core-hours":1e6,"gCO2e":1e6}})"));
    const SessionState state = session.export_state();
    ASSERT_EQ(state.ledger.currencies.size(), 2u);
    ASSERT_EQ(state.ledger.currencies[1].first, "gCO2e");

    SessionState changed = state;
    changed.ledger.currencies[1].second = AccountantSpec{"EBA", {}};
    SessionState dropped = state;
    dropped.ledger.currencies.pop_back();
    SessionState added = state;
    added.ledger.currencies.emplace_back(
        "tax", AccountantSpec{"CarbonTax", {{"rate", 0.02}}});
    for (const SessionState* tampered : {&changed, &dropped, &added}) {
        try {
            const ServeSession restored(dual(), *tampered);
            ADD_FAILURE() << "expected RuntimeError";
        } catch (const RuntimeError& e) {
            EXPECT_NE(std::string_view(e.what()).find("currencies"),
                      std::string_view::npos)
                << e.what();
        }
    }

    const ServeSession restored(dual(), state);
    EXPECT_EQ(encode_snapshot(restored.export_state()), encode_snapshot(state));
}

}  // namespace
