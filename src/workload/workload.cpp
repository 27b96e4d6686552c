#include "workload/workload.hpp"

#include <optional>

#include "machine/catalog.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace ga::workload {

std::vector<Workload::PerMachine> Workload::extrapolate(const TraceJob& job) const {
    GA_REQUIRE(predictor != nullptr, "workload: predictor not initialized");
    const auto scaling = predictor->predict(job.counters);
    std::vector<PerMachine> out(scaling.size());
    for (std::size_t m = 0; m < scaling.size(); ++m) {
        out[m].runtime_s = job.runtime_ic_s * scaling[m].runtime_factor;
        out[m].power_w = job.power_ic_w * scaling[m].power_factor;
    }
    return out;
}

Workload build_workload(const TraceOptions& options) {
    // The trace and the counter GMM share no seed and no state, so they are
    // built side by side; the counters need both.
    Workload w;
    std::optional<ga::stats::Gmm> gmm;
    ga::util::parallel_for(2, 2, [&](std::size_t stage) {
        if (stage == 0) {
            w.jobs = generate_trace(options);
        } else {
            gmm.emplace(fit_counter_gmm(/*training_rows=*/4000,
                                        options.seed ^ 0x9E5u));
        }
    });
    synthesize_counters(w.jobs, *gmm, options.seed ^ 0x51Du);
    w.predictor = std::make_shared<CrossPlatformPredictor>(
        ga::machine::simulation_machines());
    return w;
}

}  // namespace ga::workload
