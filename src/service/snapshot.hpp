// Versioned durable snapshots of a ga-serve session.
//
// `SessionState` is the complete value-type image of a live session —
// ledger (accounts, transactions, refund links, currency specs), the
// logical clock, per-cluster running/queued jobs, the RNG stream, and a
// configuration fingerprint — everything needed to restart the daemon and
// continue byte-identically. The codec turns it into a self-validating
// binary blob:
//
//   offset  size  field
//   0       8     magic "GASNAPSH"
//   8       4     format version (u32, currently 2)
//   12      4     endianness tag 0x01020304 (u32)
//   16      8     payload length in bytes (u64)
//   24      8     FNV-1a 64 checksum of the payload (u64)
//   32      ...   payload
//
// Every integer is pinned little-endian by explicit byte shifts and every
// double travels as its IEEE-754 bit pattern, so a snapshot written on any
// supported host restores bit-exactly on any other. Decoding rejects, with
// a named diagnostic: short headers, bad magic, versions other than 2
// (forward compatibility is refusal, never a guess; version 1 snapshots,
// which predate the shared scheduling core and lack the clusters'
// queued-work sums, are refused by name), endianness-tag
// mismatches, length/checksum mismatches, truncation inside any field
// (each error names the field being read), and trailing garbage.
//
// encode is a pure function of the state: encode(decode(encode(s))) is
// byte-identical to encode(s) — the round-trip bit-exactness the tests pin.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "core/allocation.hpp"
#include "util/rng.hpp"

namespace ga::service {

/// Current snapshot format version.
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// One cluster's live scheduling state.
struct ClusterSessionState {
    /// A started job: occupies `cores` until the clock reaches `finish_s`.
    struct RunningJob {
        std::uint64_t seq = 0;  ///< session-wide submission sequence number
        int cores = 0;
        double finish_s = 0.0;

        bool operator==(const RunningJob&) const = default;
    };

    /// A waiting job: starts (strict FIFO) once enough cores free up.
    struct QueuedJob {
        std::uint64_t seq = 0;
        int cores = 0;
        double runtime_s = 0.0;  ///< predicted runtime on this cluster

        bool operator==(const QueuedJob&) const = default;
    };

    std::string name;  ///< catalog machine name ("FASTER", ...)
    int capacity_cores = 0;
    int free_cores = 0;
    /// Sorted by (finish_s, seq) — the completion order.
    std::vector<RunningJob> running;
    /// FIFO, front starts first.
    std::vector<QueuedJob> queue;
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    /// The scheduler's running sum of cores x runtime over the queue, which
    /// wait estimates read. Carried rather than recomputed: once queued jobs
    /// have started, a fresh front-to-back sum can differ in the last bits.
    double queued_core_seconds = 0.0;

    bool operator==(const ClusterSessionState&) const = default;
};

/// The complete durable state of one session.
struct SessionState {
    /// Canonical rendering of the effective configuration (scenario name,
    /// workload knobs, resolved grid point). Restore refuses a snapshot
    /// whose fingerprint differs from the serving scenario's: replaying
    /// requests against a different configuration would silently diverge.
    std::string config_fingerprint;
    double clock_s = 0.0;
    std::uint64_t next_seq = 1;  ///< next job submission sequence number
    ga::util::RngState rng;      ///< the generate-path arrival stream
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_rejected = 0;
    double primary_spent = 0.0;  ///< routing-cost spend against SimOptions::budget
    std::vector<ClusterSessionState> clusters;
    ga::acct::LedgerState ledger;

    bool operator==(const SessionState&) const = default;
};

/// Serializes a session to the versioned binary form described above.
[[nodiscard]] std::string encode_snapshot(const SessionState& state);

/// Parses and validates a snapshot; throws ga::util::RuntimeError with a
/// named diagnostic on any corruption, truncation, or unknown version.
[[nodiscard]] SessionState decode_snapshot(std::string_view bytes);

/// FNV-1a 64 over arbitrary bytes — the header checksum (exposed so tests
/// and the checkpoint response can name it).
[[nodiscard]] std::uint64_t snapshot_checksum(std::string_view bytes) noexcept;

/// Writes `encode_snapshot(state)` to `path` (atomically: a temp file in
/// the same directory, then rename). Throws RuntimeError on I/O failure.
void write_snapshot_file(const std::filesystem::path& path,
                         const SessionState& state);

/// Reads and decodes a snapshot file; errors are prefixed with the path.
[[nodiscard]] SessionState read_snapshot_file(const std::filesystem::path& path);

}  // namespace ga::service
