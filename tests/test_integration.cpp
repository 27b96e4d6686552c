// Cross-module integration tests: the experiment-shaped claims of the paper
// reproduced end-to-end through the public APIs (kernels -> machine model ->
// accounting; workload -> simulator; grids -> CBA routing).
#include <gtest/gtest.h>

#include <map>

#include "carbon/grids.hpp"
#include "carbon/rates.hpp"
#include "core/accounting.hpp"
#include "core/estimate.hpp"
#include "faas/platform.hpp"
#include "kernels/kernel.hpp"
#include "machine/catalog.hpp"
#include "sim/simulator.hpp"
#include "taskrt/experiment.hpp"

namespace {

namespace ac = ga::acct;
namespace mc = ga::machine;
namespace cb = ga::carbon;

struct MachineCosts {
    std::map<std::string, double> runtime_s;
    std::map<std::string, double> eba;
    std::map<std::string, double> cba;
    std::map<std::string, double> peak;
};

// Executes the Cholesky kernel once and prices it on the Chameleon nodes.
const MachineCosts& cholesky_costs() {
    static const MachineCosts costs = [] {
        MachineCosts c;
        const auto kernel = ga::kernels::make_cholesky();
        const auto result = kernel->run(768);
        const mc::CpuPerfModel model;
        const ac::EnergyBasedAccounting eba;
        const ac::CarbonBasedAccounting cba;
        const ac::PeakAccounting peak;
        for (const auto& entry : mc::chameleon_cpu_nodes()) {
            const auto exec = model.execute(result.profile, entry.node, 1);
            ac::JobUsage u;
            u.duration_s = exec.seconds;
            u.energy_j = exec.joules;
            u.cores = 1;
            c.runtime_s[entry.node.name] = exec.seconds;
            c.eba[entry.node.name] = eba.charge(u, entry);
            c.cba[entry.node.name] = cba.charge(u, entry);
            c.peak[entry.node.name] = peak.charge(u, entry);
        }
        return c;
    }();
    return costs;
}

// ---------------------------------------------------------------- Table 1
TEST(Table1, RuntimeOrderingMatchesPaper) {
    // Paper: Ice Lake (4.60) < Cascade Lake (4.68) < Desktop (5.20) < Zen3 (5.65).
    const auto& c = cholesky_costs();
    EXPECT_LT(c.runtime_s.at("Ice Lake"), c.runtime_s.at("Cascade Lake"));
    EXPECT_LT(c.runtime_s.at("Cascade Lake"), c.runtime_s.at("Desktop"));
    EXPECT_LT(c.runtime_s.at("Desktop"), c.runtime_s.at("Zen3"));
}

TEST(Table1, EbaOrderingMatchesPaper) {
    // Paper: Desktop 1.0 < Zen3 1.05 < Ice Lake 1.10 < Cascade Lake 1.90.
    const auto& c = cholesky_costs();
    EXPECT_LT(c.eba.at("Desktop"), c.eba.at("Zen3"));
    EXPECT_LT(c.eba.at("Zen3"), c.eba.at("Ice Lake"));
    EXPECT_LT(c.eba.at("Ice Lake"), c.eba.at("Cascade Lake"));
    // Cascade Lake is nearly 2x Desktop.
    EXPECT_NEAR(c.eba.at("Cascade Lake") / c.eba.at("Desktop"), 1.9, 0.25);
}

TEST(Table1, CbaOrderingMatchesPaper) {
    // Paper: Desktop 1.0 < Ice Lake 1.10 < Zen3 1.15 < Cascade Lake 1.20
    // (same order here; Cascade Lake's magnitude differs, see EXPERIMENTS.md).
    const auto& c = cholesky_costs();
    EXPECT_LT(c.cba.at("Desktop"), c.cba.at("Ice Lake"));
    EXPECT_LT(c.cba.at("Ice Lake"), c.cba.at("Zen3"));
    EXPECT_LT(c.cba.at("Zen3"), c.cba.at("Cascade Lake"));
}

TEST(Table1, PeakRewardsTheEnergyHungryMachine) {
    // The paper's headline dysfunction: under Peak accounting, Cascade Lake
    // is the CHEAPEST machine even though it uses the most energy.
    const auto& c = cholesky_costs();
    EXPECT_LT(c.peak.at("Cascade Lake"), c.peak.at("Desktop"));
    EXPECT_LT(c.peak.at("Cascade Lake"), c.peak.at("Zen3"));
    EXPECT_LT(c.peak.at("Cascade Lake"), c.peak.at("Ice Lake"));
    // Normalized Peak costs (paper: D 1.43, CL 1.0, IL 1.06, Z 1.36).
    const double cl = c.peak.at("Cascade Lake");
    EXPECT_NEAR(c.peak.at("Desktop") / cl, 1.43, 0.1);
    EXPECT_NEAR(c.peak.at("Ice Lake") / cl, 1.06, 0.1);
    EXPECT_NEAR(c.peak.at("Zen3") / cl, 1.36, 0.1);
}

// ---------------------------------------------------------------- Table 3
TEST(Table3, EbaAndCbaPreferTwoP100s) {
    // Paper: "EBA and CBA both prioritize using two P100 GPUs".
    const ac::EnergyBasedAccounting eba;
    const ac::CarbonBasedAccounting cba;
    double best_eba = 1e300;
    double best_cba = 1e300;
    std::string best_eba_cfg;
    std::string best_cba_cfg;
    for (const auto& run : ga::taskrt::table3_sweep()) {
        const auto& entry = mc::find(run.gpu);
        ac::JobUsage u;
        u.duration_s = run.runtime_s;
        u.energy_j = run.energy_j;
        u.cores = 0;
        u.gpus = run.n_gpus;
        const std::string cfg = run.gpu + "x" + std::to_string(run.n_gpus);
        if (eba.charge(u, entry) < best_eba) {
            best_eba = eba.charge(u, entry);
            best_eba_cfg = cfg;
        }
        if (cba.charge(u, entry) < best_cba) {
            best_cba = cba.charge(u, entry);
            best_cba_cfg = cfg;
        }
    }
    EXPECT_EQ(best_eba_cfg, "P100x2");
    EXPECT_EQ(best_cba_cfg, "P100x2");
}

// ---------------------------------------------------------------- Table 4
TEST(Table4, AcceleratedShiftsChargesTowardNewMachines) {
    // Accel charges less than linear on the old machines (Desktop age 3,
    // Cascade Lake age 4) and more on the newest (Zen3 age 1).
    const auto accel = cb::DepreciationMethod::DoubleDeclining;
    const auto linear = cb::DepreciationMethod::Linear;
    const auto rate = [](mc::CatalogId id, cb::DepreciationMethod m) {
        return cb::per_core_rate_g_per_hour(mc::find(id), m);
    };
    EXPECT_LT(rate(mc::CatalogId::Desktop, accel),
              rate(mc::CatalogId::Desktop, linear));
    EXPECT_LT(rate(mc::CatalogId::CascadeLake, accel),
              rate(mc::CatalogId::CascadeLake, linear));
    EXPECT_GT(rate(mc::CatalogId::Zen3, accel), rate(mc::CatalogId::Zen3, linear));
}

// ---------------------------------------------------------------- Fig 7
TEST(Fig7, CheapestEndpointShiftsWithTimeOfDay) {
    // Under CBA with the regional grids, the lowest-cost machine for a
    // reference job changes across the day.
    std::map<std::string, cb::IntensityTrace> traces;
    for (const auto& entry : mc::simulation_machines()) {
        if (entry.grid_region.empty()) continue;
        traces.emplace(entry.node.name,
                       cb::synthesize(cb::region(entry.grid_region), 10, 77));
    }
    const ac::CarbonBasedAccounting cba(std::move(traces));

    std::map<std::string, int> wins;
    for (int hour = 0; hour < 24; ++hour) {
        ac::JobUsage u;
        u.duration_s = 3600.0;
        u.energy_j = 3.6e6;  // 1 kWh
        // 32 cores: a cluster job (the Desktop's near-zero-carbon hydro grid
        // would otherwise win every hour for jobs that fit it).
        u.cores = 32;
        u.priced_at_s = 3.0 * 86400.0 + hour * 3600.0;  // a mid-trace day
        std::string best;
        double best_cost = 1e300;
        for (const auto& entry : mc::simulation_machines()) {
            if (u.cores > entry.node.total_cores()) continue;
            const double c = cba.charge(u, entry);
            if (c < best_cost) {
                best_cost = c;
                best = entry.node.name;
            }
        }
        ++wins[best];
    }
    EXPECT_GE(wins.size(), 2u)
        << "the cheapest machine never changed across the day";
}

// ---------------------------------------------------------------- platform+sim
TEST(PlatformIntegration, KernelSubmissionThroughFullPipeline) {
    // Really execute a kernel, submit its profile through green-ACCESS, and
    // check the measured (monitor-attributed) energy lands near the model's.
    ga::faas::GreenAccess platform({"EBA", {}});
    platform.register_endpoint(mc::find(mc::CatalogId::Zen3));
    platform.create_user("scientist", 1e12);

    const auto kernel = ga::kernels::make_matmul();
    const auto run = kernel->run(kernel->test_scale());
    const auto result = platform.submit("scientist", run.profile, 4);
    ASSERT_TRUE(result.accepted) << result.reject_reason;
    const mc::CpuPerfModel model;
    const auto exec =
        model.execute(run.profile, mc::find(mc::CatalogId::Zen3).node, 4);
    EXPECT_NEAR(result.measured_energy_j, exec.joules,
                std::max(2.0, exec.joules * 0.35));
}

TEST(SimIntegration, MixedMatchesEftCompletionTimes) {
    // Paper Fig 5b: Mixed completes jobs about as fast as EFT while paying
    // Greedy-like costs most of the time.
    ga::workload::TraceOptions o;
    o.base_jobs = 3000;
    o.users = 60;
    o.span_days = 5.0;
    o.seed = 31;
    const ga::sim::BatchSimulator simulator(ga::workload::build_workload(o));

    ga::sim::SimOptions opts;
    opts.policy = {"Mixed", {}};
    const auto mixed = simulator.run(opts);
    opts.policy = {"EFT", {}};
    const auto eft = simulator.run(opts);
    opts.policy = {"Greedy", {}};
    const auto greedy = simulator.run(opts);

    EXPECT_LT(mixed.makespan_s, 1.5 * eft.makespan_s);
    EXPECT_GT(greedy.makespan_s, eft.makespan_s);
    EXPECT_LE(greedy.total_cost, mixed.total_cost);
}

}  // namespace
