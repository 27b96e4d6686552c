#include "workload/workload.hpp"

#include <optional>

#include "machine/catalog.hpp"
#include "util/parallel.hpp"

namespace ga::workload {

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
