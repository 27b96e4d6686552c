// Golden check of the predictor's benchmark table (workload/predictor.cpp).
//
// benchmark_points() returns committed work profiles instead of running the
// kernel suite in every process. This suite re-runs the suite at
// test_scale() x {1, 2} and compares each row with the table bit for bit. On
// a mismatch it prints the rows the kernels count now as hexfloat
// initializers: a deliberate kernel change regenerates the table by copying
// them into kSuiteProfiles (and then moves every result golden).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "kernels/kernel.hpp"
#include "workload/predictor.hpp"

namespace {

namespace wl = ga::workload;

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string initializer(const std::string& kernel,
                        const ga::machine::WorkProfile& p) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "    {\"%s\", {%a, %a, %a}},\n", kernel.c_str(),
                  p.flops, p.mem_bytes, p.parallel_fraction);
    return buf;
}

TEST(BenchmarkTable, MatchesTheKernelSuiteBitForBit) {
    const auto& table = wl::benchmark_points();
    std::string replacement;
    std::size_t row = 0;
    bool same = true;
    for (const auto& kernel : ga::kernels::make_suite()) {
        const std::string name(kernel->name());
        for (const int scale : {1, 2}) {
            const auto profile = kernel->run(kernel->test_scale() * scale).profile;
            replacement += initializer(name, profile);
            same = same && row < table.size() && table[row].kernel == name &&
                   same_bits(table[row].profile.flops, profile.flops) &&
                   same_bits(table[row].profile.mem_bytes, profile.mem_bytes) &&
                   same_bits(table[row].profile.parallel_fraction,
                             profile.parallel_fraction);
            ++row;
        }
    }
    EXPECT_TRUE(same && row == table.size())
        << "the kernels now count these rows; to accept them, replace "
           "kSuiteProfiles in src/workload/predictor.cpp with:\n"
        << replacement;
}

TEST(BenchmarkTable, IcCountersAreDerivedFromEachProfile) {
    for (const auto& p : wl::benchmark_points()) {
        const auto expected = wl::counters_on_ic(p.profile);
        EXPECT_TRUE(same_bits(p.counters_ic.gips, expected.gips)) << p.kernel;
        EXPECT_TRUE(same_bits(p.counters_ic.llc_mps, expected.llc_mps)) << p.kernel;
    }
}

}  // namespace
