#include "util/rng.hpp"

#include <cmath>

namespace ga::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
    // A zero state would be absorbing; SplitMix64 cannot produce four zero
    // outputs in a row from any seed, so no further fix-up is required.
}

Xoshiro256StarStar::result_type Xoshiro256StarStar::operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

Rng Rng::split(std::uint64_t tag) const noexcept {
    // Mix lineage and tag through SplitMix64 twice for avalanche; the child
    // seed depends only on (root seed, path of tags), never on draw count.
    SplitMix64 sm(lineage_ ^ (0x9E3779B97F4A7C15ULL * (tag + 1)));
    const std::uint64_t child_seed = sm.next() ^ SplitMix64(tag ^ lineage_).next();
    Rng child{Xoshiro256StarStar(child_seed), child_seed};
    return child;
}

double Rng::uniform() noexcept {
    // 53 top bits -> double in [0,1).
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(gen_());  // full 64-bit range
    // Lemire-style rejection-free-ish: use 128-bit multiply-shift with
    // rejection to remove modulo bias.
    std::uint64_t x = gen_();
    __uint128_t m = static_cast<__uint128_t>(x) * span;
    auto low = static_cast<std::uint64_t>(m);
    if (low < span) {
        const std::uint64_t threshold = (0 - span) % span;
        while (low < threshold) {
            x = gen_();
            m = static_cast<__uint128_t>(x) * span;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::normal() noexcept {
    if (has_spare_normal_) {
        has_spare_normal_ = false;
        return spare_normal_;
    }
    // Box–Muller on (0,1] uniforms to avoid log(0).
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    spare_normal_ = r * std::sin(theta);
    has_spare_normal_ = true;
    return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) noexcept {
    return mean + sigma * normal();
}

double Rng::lognormal(double mu_log, double sigma_log) noexcept {
    return std::exp(normal(mu_log, sigma_log));
}

double Rng::exponential(double lambda) noexcept {
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
}

bool Rng::bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
}

std::size_t Rng::categorical(std::span<const double> weights) noexcept {
    double total = 0.0;
    for (const double w : weights) total += (w > 0.0 ? w : 0.0);
    if (total <= 0.0 || weights.empty()) return 0;
    const double target = uniform() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += (weights[i] > 0.0 ? weights[i] : 0.0);
        if (target < acc) return i;
    }
    return weights.size() - 1;
}

}  // namespace ga::util
