// Deterministic random number generation.
//
// Experiments in this repository must be bit-reproducible across runs and
// platforms, so we implement our own small generators instead of relying on
// std::mt19937 + libstdc++ distribution implementations (whose outputs are
// not specified across standard libraries for non-uniform distributions).
//
//   * SplitMix64 — seeding/stream-splitting generator.
//   * Xoshiro256StarStar — main generator (Blackman & Vigna), 2^256-1 period.
//   * Rng — convenience facade with uniform / normal / lognormal /
//     exponential / categorical draws, all with specified algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace ga::util {

/// SplitMix64: tiny 64-bit generator used to seed Xoshiro and to derive
/// independent child streams from a parent seed.
class SplitMix64 {
public:
    explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    constexpr std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// xoshiro256** 1.0 — the project-wide uniform bit source.
class Xoshiro256StarStar {
public:
    using result_type = std::uint64_t;

    explicit Xoshiro256StarStar(std::uint64_t seed) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~0ULL; }

    result_type operator()() noexcept;

    /// Raw 256-bit state, for durable snapshots. A generator restored via
    /// set_state produces the identical output sequence.
    [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
        return state_;
    }
    void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
        state_ = state;
    }

private:
    std::array<std::uint64_t, 4> state_{};
};

/// Serializable mid-stream state of an `Rng` (see Rng::state / from_state).
/// Captures everything draw-affecting: the 256-bit xoshiro state, the seed
/// lineage used by split(), and the Box–Muller spare-deviate cache.
struct RngState {
    std::array<std::uint64_t, 4> gen{};
    std::uint64_t lineage = 0;
    double spare_normal = 0.0;
    bool has_spare_normal = false;

    bool operator==(const RngState&) const = default;
};

/// High-level deterministic RNG facade.
///
/// All distribution algorithms are implemented here (Box–Muller, inversion,
/// Walker-free linear scan for categorical) so results are identical on any
/// conforming platform.
class Rng {
public:
    explicit Rng(std::uint64_t seed) noexcept : gen_(seed), lineage_(seed) {}

    /// Derives an independent child stream; children with distinct tags are
    /// statistically independent of the parent and of each other.
    [[nodiscard]] Rng split(std::uint64_t tag) const noexcept;

    /// Raw 64 uniform bits.
    std::uint64_t bits() noexcept { return gen_(); }

    /// Uniform double in [0, 1).
    double uniform() noexcept;

    /// Uniform double in [lo, hi). Requires lo <= hi.
    double uniform(double lo, double hi) noexcept;

    /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

    /// Standard normal via Box–Muller (uses a cached spare deviate).
    double normal() noexcept;

    /// Normal with the given mean and standard deviation (sigma >= 0).
    double normal(double mean, double sigma) noexcept;

    /// Log-normal: exp(Normal(mu_log, sigma_log)).
    double lognormal(double mu_log, double sigma_log) noexcept;

    /// Exponential with the given rate lambda > 0.
    double exponential(double lambda) noexcept;

    /// Bernoulli draw with success probability p (clamped to [0,1]).
    bool bernoulli(double p) noexcept;

    /// Samples an index from non-negative weights (need not be normalized).
    /// Returns weights.size()-1 if rounding pushes the scan off the end.
    std::size_t categorical(std::span<const double> weights) noexcept;

    /// Mid-stream state for durable snapshots; from_state resumes the exact
    /// draw sequence (including a cached Box–Muller spare).
    [[nodiscard]] RngState state() const noexcept {
        return RngState{gen_.state(), lineage_, spare_normal_,
                        has_spare_normal_};
    }
    [[nodiscard]] static Rng from_state(const RngState& state) noexcept {
        Rng rng(Xoshiro256StarStar(0), state.lineage);
        rng.gen_.set_state(state.gen);
        rng.spare_normal_ = state.spare_normal;
        rng.has_spare_normal_ = state.has_spare_normal;
        return rng;
    }

    /// Fisher–Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& values) noexcept {
        if (values.empty()) return;
        for (std::size_t i = values.size() - 1; i > 0; --i) {
            const auto j = static_cast<std::size_t>(
                uniform_int(0, static_cast<std::int64_t>(i)));
            using std::swap;
            swap(values[i], values[j]);
        }
    }

private:
    // Split needs the *seed lineage*, not generator state, so we remember the
    // seed that constructed this Rng.
    Rng(Xoshiro256StarStar gen, std::uint64_t lineage) noexcept
        : gen_(gen), lineage_(lineage) {}

    Xoshiro256StarStar gen_;
    std::uint64_t lineage_ = 0;
    double spare_normal_ = 0.0;
    bool has_spare_normal_ = false;
};

}  // namespace ga::util
