// Build-sanity smoke suite: asserts the `ga` library links and the public
// entry points are constructible with defaults. Guards the CMake layer —
// if a module drops out of the library or a default constructor breaks,
// this suite fails before any behavioral test runs.
#include <gtest/gtest.h>

#include <memory>

#include "core/accounting.hpp"
#include "machine/catalog.hpp"
#include "sim/simulator.hpp"
#include "workload/workload.hpp"

namespace {

TEST(BuildSanity, CatalogEntryConstructibleWithDefaults) {
    ga::machine::CatalogEntry entry;
    EXPECT_EQ(entry.pue, 1.0);
    EXPECT_GT(entry.platform_overhead_kg, 0.0);

    // The built-in catalog links and contains all ten paper machines.
    EXPECT_EQ(ga::machine::catalog().size(), 10u);
}

TEST(BuildSanity, AccountantsConstructibleForEveryMethod) {
    for (const auto& m : ga::acct::all_methods()) {
        std::unique_ptr<const ga::acct::Accountant> a =
            ga::acct::AccountantRegistry::global().make(m);
        ASSERT_NE(a, nullptr);
        EXPECT_EQ(a->name(), m.name);
        EXPECT_FALSE(m.name.empty());
    }
}

TEST(BuildSanity, BatchSimulatorConstructibleWithDefaults) {
    ga::workload::TraceOptions options;
    options.base_jobs = 16;  // keep the smoke test fast
    options.users = 4;
    options.span_days = 1.0;

    ga::sim::BatchSimulator simulator(ga::workload::build_workload(options));
    EXPECT_EQ(simulator.clusters().size(),
              ga::sim::default_clusters().size());

    ga::sim::SimOptions defaults;
    ga::sim::SimResult result = simulator.run(defaults);
    EXPECT_EQ(result.jobs_completed + result.jobs_skipped,
              simulator.workload().jobs.size());
}

}  // namespace
