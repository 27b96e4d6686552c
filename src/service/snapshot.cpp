#include "service/snapshot.hpp"

#include <bit>
#include <cstdio>
#include <limits>

#include "util/error.hpp"

namespace ga::service {

namespace {

constexpr char kMagic[8] = {'G', 'A', 'S', 'N', 'A', 'P', 'S', 'H'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

[[noreturn]] void fail(const std::string& what) {
    throw ga::util::RuntimeError("snapshot: " + what);
}

// ---- encoding: every integer little-endian via explicit byte shifts ----

void put_u32(std::string& out, std::uint32_t v) {
    out.push_back(static_cast<char>(v & 0xFF));
    out.push_back(static_cast<char>((v >> 8) & 0xFF));
    out.push_back(static_cast<char>((v >> 16) & 0xFF));
    out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<char>((v >> shift) & 0xFF));
    }
}

void put_i32(std::string& out, std::int32_t v) {
    put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
    put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_bool(std::string& out, bool v) {
    out.push_back(v ? '\x01' : '\x00');
}

void put_string(std::string& out, std::string_view s) {
    put_u64(out, s.size());
    out.append(s);
}

// ---- decoding: a cursor that names the field it was reading on failure --

class Cursor {
public:
    explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

    std::uint32_t u32(std::string_view field) {
        const auto* p = take(4, field);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
                 << (8 * i);
        }
        return v;
    }

    std::uint64_t u64(std::string_view field) {
        const auto* p = take(8, field);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
                 << (8 * i);
        }
        return v;
    }

    std::int32_t i32(std::string_view field) {
        return static_cast<std::int32_t>(u32(field));
    }

    double f64(std::string_view field) {
        return std::bit_cast<double>(u64(field));
    }

    bool boolean(std::string_view field) {
        const auto* p = take(1, field);
        const unsigned char v = static_cast<unsigned char>(*p);
        if (v > 1) {
            fail("invalid boolean reading " + std::string(field));
        }
        return v == 1;
    }

    std::string str(std::string_view field) {
        const std::uint64_t len = u64(field);
        if (len > remaining()) {
            fail("truncated reading " + std::string(field));
        }
        const auto* p = take(static_cast<std::size_t>(len), field);
        return std::string(p, static_cast<std::size_t>(len));
    }

    /// Element-count prefix; bounded by the remaining bytes so a corrupt
    /// count cannot drive a multi-gigabyte reserve.
    std::size_t count(std::string_view field) {
        const std::uint64_t n = u64(field);
        if (n > remaining()) {
            fail("implausible element count reading " + std::string(field));
        }
        return static_cast<std::size_t>(n);
    }

    [[nodiscard]] std::size_t remaining() const noexcept {
        return bytes_.size() - pos_;
    }

private:
    const char* take(std::size_t n, std::string_view field) {
        if (remaining() < n) {
            fail("truncated reading " + std::string(field));
        }
        const char* p = bytes_.data() + pos_;
        pos_ += n;
        return p;
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

// ---- payload schema (version 2) ----------------------------------------

void encode_ledger(std::string& out, const ga::acct::LedgerState& ledger) {
    put_u64(out, ledger.currencies.size());
    for (const auto& [currency, spec] : ledger.currencies) {
        put_string(out, currency);
        put_string(out, spec.name);
        put_u64(out, spec.params.size());
        for (const auto& [key, value] : spec.params) {
            put_string(out, key);
            put_f64(out, value);
        }
    }
    put_u64(out, ledger.accounts.size());
    for (const auto& account : ledger.accounts) {
        put_string(out, account.user);
        put_u64(out, account.first_valid_tx);
        put_u64(out, account.holdings.size());
        for (const auto& [currency, alloc] : account.holdings) {
            put_string(out, currency);
            put_f64(out, alloc.budget);
            put_f64(out, alloc.spent);
        }
    }
    put_u64(out, ledger.transactions.size());
    for (const auto& t : ledger.transactions) {
        put_u64(out, t.id);
        put_string(out, t.user);
        put_string(out, t.machine);
        put_string(out, t.currency);
        put_string(out, t.unit);
        put_f64(out, t.cost);
        put_f64(out, t.duration_s);
        put_f64(out, t.energy_j);
        put_f64(out, t.priced_at_s);
        put_i32(out, t.cores);
        put_i32(out, t.gpus);
        put_u64(out, t.refund_of);
    }
    put_u64(out, ledger.refunded.size());
    for (const std::uint64_t id : ledger.refunded) put_u64(out, id);
    put_u64(out, ledger.next_id);
}

ga::acct::LedgerState decode_ledger(Cursor& in) {
    ga::acct::LedgerState ledger;
    const std::size_t n_currencies = in.count("ledger.currencies");
    ledger.currencies.reserve(n_currencies);
    for (std::size_t i = 0; i < n_currencies; ++i) {
        std::string currency = in.str("ledger.currency.name");
        ga::acct::AccountantSpec spec;
        spec.name = in.str("ledger.currency.spec");
        const std::size_t n_params = in.count("ledger.currency.params");
        for (std::size_t p = 0; p < n_params; ++p) {
            std::string key = in.str("ledger.currency.param.key");
            spec.params.emplace(std::move(key),
                                in.f64("ledger.currency.param.value"));
        }
        ledger.currencies.emplace_back(std::move(currency), std::move(spec));
    }
    const std::size_t n_accounts = in.count("ledger.accounts");
    ledger.accounts.reserve(n_accounts);
    for (std::size_t i = 0; i < n_accounts; ++i) {
        ga::acct::LedgerState::AccountState account;
        account.user = in.str("ledger.account.user");
        account.first_valid_tx = in.u64("ledger.account.first_valid_tx");
        const std::size_t n_holdings = in.count("ledger.account.holdings");
        account.holdings.reserve(n_holdings);
        for (std::size_t h = 0; h < n_holdings; ++h) {
            std::string currency = in.str("ledger.holding.currency");
            ga::acct::LedgerState::AllocationState alloc;
            alloc.budget = in.f64("ledger.holding.budget");
            alloc.spent = in.f64("ledger.holding.spent");
            account.holdings.emplace_back(std::move(currency), alloc);
        }
        ledger.accounts.push_back(std::move(account));
    }
    const std::size_t n_transactions = in.count("ledger.transactions");
    ledger.transactions.reserve(n_transactions);
    for (std::size_t i = 0; i < n_transactions; ++i) {
        ga::acct::Transaction t;
        t.id = in.u64("transaction.id");
        t.user = in.str("transaction.user");
        t.machine = in.str("transaction.machine");
        t.currency = in.str("transaction.currency");
        t.unit = in.str("transaction.unit");
        t.cost = in.f64("transaction.cost");
        t.duration_s = in.f64("transaction.duration_s");
        t.energy_j = in.f64("transaction.energy_j");
        t.priced_at_s = in.f64("transaction.priced_at_s");
        t.cores = in.i32("transaction.cores");
        t.gpus = in.i32("transaction.gpus");
        t.refund_of = in.u64("transaction.refund_of");
        ledger.transactions.push_back(std::move(t));
    }
    const std::size_t n_refunded = in.count("ledger.refunded");
    ledger.refunded.reserve(n_refunded);
    for (std::size_t i = 0; i < n_refunded; ++i) {
        ledger.refunded.push_back(in.u64("ledger.refunded.id"));
    }
    ledger.next_id = in.u64("ledger.next_id");
    return ledger;
}

void encode_cluster(std::string& out, const ClusterSessionState& cluster) {
    put_string(out, cluster.name);
    put_i32(out, cluster.capacity_cores);
    put_i32(out, cluster.free_cores);
    put_u64(out, cluster.running.size());
    for (const auto& job : cluster.running) {
        put_u64(out, job.seq);
        put_i32(out, job.cores);
        put_f64(out, job.finish_s);
    }
    put_u64(out, cluster.queue.size());
    for (const auto& job : cluster.queue) {
        put_u64(out, job.seq);
        put_i32(out, job.cores);
        put_f64(out, job.runtime_s);
    }
    put_u64(out, cluster.started);
    put_u64(out, cluster.completed);
    put_f64(out, cluster.queued_core_seconds);
}

ClusterSessionState decode_cluster(Cursor& in) {
    ClusterSessionState cluster;
    cluster.name = in.str("cluster.name");
    cluster.capacity_cores = in.i32("cluster.capacity_cores");
    cluster.free_cores = in.i32("cluster.free_cores");
    const std::size_t n_running = in.count("cluster.running");
    cluster.running.reserve(n_running);
    for (std::size_t i = 0; i < n_running; ++i) {
        ClusterSessionState::RunningJob job;
        job.seq = in.u64("running.seq");
        job.cores = in.i32("running.cores");
        job.finish_s = in.f64("running.finish_s");
        cluster.running.push_back(std::move(job));
    }
    const std::size_t n_queue = in.count("cluster.queue");
    cluster.queue.reserve(n_queue);
    for (std::size_t i = 0; i < n_queue; ++i) {
        ClusterSessionState::QueuedJob job;
        job.seq = in.u64("queued.seq");
        job.cores = in.i32("queued.cores");
        job.runtime_s = in.f64("queued.runtime_s");
        cluster.queue.push_back(std::move(job));
    }
    cluster.started = in.u64("cluster.started");
    cluster.completed = in.u64("cluster.completed");
    cluster.queued_core_seconds = in.f64("cluster.queued_core_seconds");
    return cluster;
}

std::string encode_payload(const SessionState& state) {
    std::string out;
    put_string(out, state.config_fingerprint);
    put_f64(out, state.clock_s);
    put_u64(out, state.next_seq);
    for (const std::uint64_t word : state.rng.gen) put_u64(out, word);
    put_u64(out, state.rng.lineage);
    put_f64(out, state.rng.spare_normal);
    put_bool(out, state.rng.has_spare_normal);
    put_u64(out, state.jobs_submitted);
    put_u64(out, state.jobs_rejected);
    put_f64(out, state.primary_spent);
    put_u64(out, state.clusters.size());
    for (const auto& cluster : state.clusters) encode_cluster(out, cluster);
    encode_ledger(out, state.ledger);
    return out;
}

SessionState decode_payload(std::string_view payload) {
    Cursor in(payload);
    SessionState state;
    state.config_fingerprint = in.str("config_fingerprint");
    state.clock_s = in.f64("clock_s");
    state.next_seq = in.u64("next_seq");
    for (std::uint64_t& word : state.rng.gen) word = in.u64("rng.gen");
    state.rng.lineage = in.u64("rng.lineage");
    state.rng.spare_normal = in.f64("rng.spare_normal");
    state.rng.has_spare_normal = in.boolean("rng.has_spare_normal");
    state.jobs_submitted = in.u64("jobs_submitted");
    state.jobs_rejected = in.u64("jobs_rejected");
    state.primary_spent = in.f64("primary_spent");
    const std::size_t n_clusters = in.count("clusters");
    state.clusters.reserve(n_clusters);
    for (std::size_t i = 0; i < n_clusters; ++i) {
        state.clusters.push_back(decode_cluster(in));
    }
    state.ledger = decode_ledger(in);
    if (in.remaining() != 0) {
        fail(std::to_string(in.remaining()) +
             " trailing bytes after the payload");
    }
    return state;
}

}  // namespace

std::uint64_t snapshot_checksum(std::string_view bytes) noexcept {
    // FNV-1a 64 — the project hash (same constants as the broker's
    // partitioner); enough to catch corruption, not a cryptographic seal.
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::string encode_snapshot(const SessionState& state) {
    const std::string payload = encode_payload(state);
    std::string out;
    out.reserve(kHeaderBytes + payload.size());
    out.append(kMagic, sizeof kMagic);
    put_u32(out, kSnapshotVersion);
    put_u32(out, kEndianTag);
    put_u64(out, payload.size());
    put_u64(out, snapshot_checksum(payload));
    out.append(payload);
    return out;
}

SessionState decode_snapshot(std::string_view bytes) {
    if (bytes.size() < kHeaderBytes) {
        fail("header truncated (" + std::to_string(bytes.size()) + " of " +
             std::to_string(kHeaderBytes) + " bytes)");
    }
    if (bytes.substr(0, sizeof kMagic) !=
        std::string_view(kMagic, sizeof kMagic)) {
        fail("bad magic; not a ga-serve snapshot");
    }
    Cursor header(bytes.substr(sizeof kMagic, kHeaderBytes - sizeof kMagic));
    const std::uint32_t version = header.u32("version");
    if (version == 1) {
        fail("version 1 snapshots are refused: they predate the shared "
             "scheduling core and lack the clusters' queued-work sums (this "
             "build reads version " + std::to_string(kSnapshotVersion) + ")");
    }
    if (version != kSnapshotVersion) {
        fail("unsupported version " + std::to_string(version) +
             " (this build reads version " + std::to_string(kSnapshotVersion) +
             ")");
    }
    const std::uint32_t endian = header.u32("endian_tag");
    if (endian != kEndianTag) {
        fail("endianness tag mismatch; snapshot bytes were reordered");
    }
    const std::uint64_t payload_len = header.u64("payload_len");
    const std::uint64_t checksum = header.u64("checksum");
    const std::string_view payload = bytes.substr(kHeaderBytes);
    if (payload.size() != payload_len) {
        fail("payload length mismatch: header says " +
             std::to_string(payload_len) + ", found " +
             std::to_string(payload.size()));
    }
    if (snapshot_checksum(payload) != checksum) {
        fail("checksum mismatch; the payload is corrupted");
    }
    return decode_payload(payload);
}

void write_snapshot_file(const std::filesystem::path& path,
                         const SessionState& state) {
    const std::string bytes = encode_snapshot(state);
    const std::filesystem::path tmp = path.string() + ".tmp";
    {
        std::FILE* f = std::fopen(tmp.string().c_str(), "wb");
        if (f == nullptr) {
            fail("cannot open " + tmp.string() + " for writing");
        }
        const std::size_t written =
            std::fwrite(bytes.data(), 1, bytes.size(), f);
        const int close_rc = std::fclose(f);
        if (written != bytes.size() || close_rc != 0) {
            std::filesystem::remove(tmp);
            fail("short write to " + tmp.string());
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp);
        fail("cannot rename " + tmp.string() + " to " + path.string() + ": " +
             ec.message());
    }
}

SessionState read_snapshot_file(const std::filesystem::path& path) {
    std::FILE* f = std::fopen(path.string().c_str(), "rb");
    if (f == nullptr) {
        fail("cannot open " + path.string());
    }
    std::string bytes;
    char buffer[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
        bytes.append(buffer, n);
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        fail("read error on " + path.string());
    }
    try {
        return decode_snapshot(bytes);
    } catch (const ga::util::RuntimeError& e) {
        throw ga::util::RuntimeError(path.string() + ": " + e.what());
    }
}

}  // namespace ga::service
