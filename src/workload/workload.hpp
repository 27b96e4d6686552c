// Facade assembling the full §5 workload: trace generation, counter
// synthesis, and the cross-platform predictor — everything the batch
// simulator consumes.
#pragma once

#include <memory>

#include "workload/counters.hpp"
#include "workload/predictor.hpp"
#include "workload/trace.hpp"

namespace ga::workload {

/// A ready-to-simulate workload.
struct Workload {
    std::vector<TraceJob> jobs;
    std::shared_ptr<CrossPlatformPredictor> predictor;
};

/// Builds the workload over the Table-5 simulation machines.
/// `options` defaults to the paper's 142,380-job scale; pass a smaller
/// `base_jobs` for tests. Generates the trace and fits the counter GMM on
/// two threads; the jobs are those of the stages run one after the other.
[[nodiscard]] Workload build_workload(const TraceOptions& options = {});

}  // namespace ga::workload
