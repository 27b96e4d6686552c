// Shared test helper: a job's per-machine runtime and power as the batch
// simulator runs it. Not a test TU itself — the tests/ glob only picks up
// test_*.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "workload/workload.hpp"

namespace ga::testutil {

/// One job's predicted execution on one machine.
struct PairPrediction {
    double runtime_s = 0.0;
    double power_w = 0.0;

    [[nodiscard]] double energy_j() const noexcept { return runtime_s * power_w; }
};

/// Job `j` of `w` on every machine, index-aligned with
/// `w.predictor->machines()`: its IC runtime and power scaled by what
/// `predict()` gives for the counters of the first job of its (user, app)
/// pair, as `BatchSimulator` predicts each pair once.
inline std::vector<PairPrediction> pair_prediction(const ga::workload::Workload& w,
                                                   std::size_t j) {
    const ga::workload::TraceJob& job = w.jobs.at(j);
    std::size_t first = 0;
    while (w.jobs[first].user != job.user || w.jobs[first].app != job.app) ++first;
    const auto scaling = w.predictor->predict(w.jobs[first].counters);
    std::vector<PairPrediction> out(scaling.size());
    for (std::size_t m = 0; m < scaling.size(); ++m) {
        out[m].runtime_s = job.runtime_ic_s * scaling[m].runtime_factor;
        out[m].power_w = job.power_ic_w * scaling[m].power_factor;
    }
    return out;
}

}  // namespace ga::testutil
