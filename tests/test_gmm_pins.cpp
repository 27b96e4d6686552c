// Bit pins for the GMM fit. The counter GMM feeds every simulated job's
// counters, so a change to one bit of a fitted parameter moves every result
// golden; these pins say which parameter moved, and by how much, first.
//
// The expectations are hexfloats recorded from a row-at-a-time EM loop. A
// faster fit must keep every value's operations in the same order and
// reproduce them exactly; never regenerate them to make a change pass.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats/gmm.hpp"
#include "util/rng.hpp"
#include "workload/counters.hpp"

namespace {

namespace st = ga::stats;

struct ComponentPin {
    double weight;
    std::vector<double> mean;
    std::vector<double> covariance;
    double log_norm;
};

struct FitPin {
    std::vector<ComponentPin> components;
    std::size_t trace_size;
    double trace_last;
};

std::string hex(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

void expect_bits(double actual, double expected, const std::string& what) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
              std::bit_cast<std::uint64_t>(expected))
        << what << ": got " << hex(actual) << ", pinned " << hex(expected);
}

void expect_pinned(const st::Gmm& model, const FitPin& pin) {
    ASSERT_EQ(model.components().size(), pin.components.size());
    for (std::size_t c = 0; c < pin.components.size(); ++c) {
        const auto& got = model.components()[c];
        const auto& want = pin.components[c];
        const std::string at = "component " + std::to_string(c);
        expect_bits(got.weight, want.weight, at + " weight");
        ASSERT_EQ(got.mean.size(), want.mean.size());
        for (std::size_t i = 0; i < want.mean.size(); ++i) {
            expect_bits(got.mean[i], want.mean[i], at + " mean[" + std::to_string(i) + "]");
        }
        ASSERT_EQ(got.covariance.size(), want.covariance.size());
        for (std::size_t i = 0; i < want.covariance.size(); ++i) {
            expect_bits(got.covariance[i], want.covariance[i],
                        at + " covariance[" + std::to_string(i) + "]");
        }
        expect_bits(got.log_norm, want.log_norm, at + " log_norm");
    }
    ASSERT_EQ(model.training_trace().size(), pin.trace_size);
    expect_bits(model.training_trace().back(), pin.trace_last, "last trace value");
}

// The counter GMM of the ci_smoke scenario (trace seed 2023): it runs all
// 120 EM iterations without meeting the tolerance.
TEST(GmmPins, CounterGmmAtTheCiSmokeSeedRunsEveryIteration) {
    const FitPin pin{{
        {0x1.09ff22effdbb8p-1,
         {0x1.cb49b58c5692ep+0, 0x1.d23af2bb18f92p+1},
         {0x1.656fd7893f996p-2, -0x1.85ae44b3fb17fp-5, -0x1.85ae44b3fb17fp-5, 0x1.0783714af2d9p-2},
         -0x1.3d88452456d88p-1},
        {0x1.0f78446efa83ap-2,
         {-0x1.6ba4183d13798p+0, 0x1.ad7c2584cf884p+1},
         {0x1.11e2836dc0427p-2, 0x1.68b03c03ed011p-5, 0x1.68b03c03ed011p-5, 0x1.011bf046c61aep-2},
         -0x1.e4365951a5a5cp-2},
        {0x1.b912eb62140a6p-3,
         {-0x1.a5c014dbf8733p-5, 0x1.002ad43489e9dp+2},
         {0x1.bb8561ab8adabp-1, 0x1.fb73554c4b23cp-3, 0x1.fb73554c4b23cp-3, 0x1.1d9f2dabd763bp-2},
         -0x1.f653e6a5293dfp-1},
    }, 120, -0x1.31a95e791dbb4p+1};
    expect_pinned(ga::workload::fit_counter_gmm(4000, 2023 ^ 0x9E5), pin);
}

// Seed 1 meets the tolerance after 72 iterations, so this pins the stopping
// test as well as the parameters.
TEST(GmmPins, CounterGmmAtSeedOneConvergesEarly) {
    const FitPin pin{{
        {0x1.0ceed0f19bf18p-2,
         {0x1.37b013ab8155p-1, 0x1.05f5910945978p+2},
         {0x1.ae1e930397be7p-1, 0x1.b2649b44dc296p-4, 0x1.b2649b44dc296p-4, 0x1.e58d2ae231318p-3},
         -0x1.008416f2e5ea1p+0},
        {0x1.50da314184388p-2,
         {-0x1.641c6ea3ac4bep+0, 0x1.b2a4bcd410151p+1},
         {0x1.231ea641cf6f6p-2, 0x1.3f5d1d3815839p-4, 0x1.3f5d1d3815839p-4, 0x1.10995949238c2p-2},
         -0x1.02c485e001994p-1},
        {0x1.a236fdccdfd61p-2,
         {0x1.eb497334c9eb9p+0, 0x1.c86af29885e85p+1},
         {0x1.3f509e02985fp-2, -0x1.4e1ea925b37fp-8, -0x1.4e1ea925b37fp-8, 0x1.a910ece1b9637p-3},
         -0x1.e01823da7ec5cp-2},
    }, 72, -0x1.3370c049a79dcp+1};
    expect_pinned(ga::workload::fit_counter_gmm(4000, 1), pin);
}

// Three overlapping, correlated 3-D clusters. Every simulator caller fits
// 2-D data, where the triangular solve subtracts one term per row and the
// quadratic form adds two squares, so no reordering shows; in 3-D the last
// row subtracts two terms and the form adds three squares, so this pins
// their order too.
std::vector<double> three_cluster_3d(std::uint64_t seed) {
    ga::util::Rng rng(seed);
    const double centers[3][3] = {{-1.2, 0.3, 0.8}, {1.0, -0.4, 0.0}, {0.2, 1.2, -1.0}};
    std::vector<double> rows;
    for (const auto& ctr : centers) {
        for (int i = 0; i < 400; ++i) {
            const double a = rng.normal();
            const double b = rng.normal();
            const double d = rng.normal();
            rows.push_back(ctr[0] + 0.9 * a);
            rows.push_back(ctr[1] + 0.5 * a + 0.7 * b);
            rows.push_back(ctr[2] - 0.4 * a + 0.3 * b + 0.6 * d);
        }
    }
    return rows;
}

TEST(GmmPins, ThreeDimensionalFit) {
    const FitPin pin{{
        {0x1.7a49b2f1f5337p-2,
         {-0x1.1696de6625bf8p+0, 0x1.9827babd10a2ap-2, 0x1.75339a20dfbecp-1},
         {0x1.8ad7eaa3b0fbp-1, 0x1.ac5027f09c6a4p-2, -0x1.7867aff1fbddp-2,
          0x1.ac5027f09c6a4p-2, 0x1.85c682751b8cap-1, 0x1.49990cef02823p-7,
          -0x1.7867aff1fbddp-2, 0x1.49990cef02823p-7, 0x1.52338cd71bbb2p-1},
         -0x1.dc0a28ddd4b77p+0},
        {0x1.2aa59ec649e2p-2,
         {0x1.912884093142p-3, 0x1.41642cecc4fadp+0, -0x1.1007e8f3c5ap+0},
         {0x1.a758c35ecaebbp-1, 0x1.0ffe63dd54f32p-1, -0x1.5655638cda0c4p-2,
          0x1.0ffe63dd54f32p-1, 0x1.97b6008303d94p-1, -0x1.1750a313fbc3fp-7,
          -0x1.5655638cda0c4p-2, -0x1.1750a313fbc3fp-7, 0x1.03104a3e6b117p-1},
         -0x1.a06ff099e34e7p+0},
        {0x1.5b10ae47c0eb5p-2,
         {0x1.017a8b0575a25p+0, -0x1.7b3f9ce0005c8p-2, 0x1.3e3344372d5c9p-8},
         {0x1.99d3823694cdep-1, 0x1.932a35e52cc58p-2, -0x1.53e17828271b9p-2,
          0x1.932a35e52cc58p-2, 0x1.51ba7458fb074p-1, 0x1.af3b044550ae9p-5,
          -0x1.53e17828271b9p-2, 0x1.af3b044550ae9p-5, 0x1.2e6dec80ea56ap-1},
         -0x1.be3a49e6fd30dp+0},
    }, 119, -0x1.09312a1f0977dp+2};
    st::GmmOptions options;
    options.n_components = 3;
    options.seed = 11;
    expect_pinned(st::Gmm::fit(three_cluster_3d(2024), 3, options), pin);
}

}  // namespace
