// Shared gtest helpers for the simulator suites (test_sweep,
// test_policy_registry). Not a test TU itself — the tests/ glob only picks
// up test_*.cpp.
#pragma once

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace ga::testutil {

/// Field-for-field SimResult equality — the engine's bit-identity bar
/// (parallel==serial, enum==spec). Exact ==, no tolerances. Runs record
/// finish times only on request, so each result that completed a job must
/// carry them (`SimOptions::finish_times`); otherwise the comparison would
/// skip them unseen.
inline void expect_identical(const ga::sim::SimResult& a,
                             const ga::sim::SimResult& b) {
    for (const ga::sim::SimResult* r : {&a, &b}) {
        EXPECT_TRUE(r->jobs_completed == 0 || !r->finish_times_s.empty())
            << "a compared run recorded no finish times";
    }
    EXPECT_EQ(a.work_core_hours, b.work_core_hours);
    EXPECT_EQ(a.jobs_completed, b.jobs_completed);
    EXPECT_EQ(a.jobs_skipped, b.jobs_skipped);
    EXPECT_EQ(a.total_cost, b.total_cost);
    EXPECT_EQ(a.energy_mwh, b.energy_mwh);
    EXPECT_EQ(a.operational_carbon_kg, b.operational_carbon_kg);
    EXPECT_EQ(a.attributed_carbon_kg, b.attributed_carbon_kg);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.finish_times_s, b.finish_times_s);
    EXPECT_EQ(a.jobs_per_machine, b.jobs_per_machine);
    EXPECT_EQ(a.currency_spent, b.currency_spent);
}

}  // namespace ga::testutil
