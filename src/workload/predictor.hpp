// Cross-platform runtime/power prediction (paper §5.2, stage two).
//
// "We then use a KNN trained on a set of benchmark applications to estimate
// runtime and power consumption on the other machines."
//
// The benchmark set is the work the instrumented kernel suite (ga_kernels)
// counts, read from a committed table rather than re-measured. For each
// benchmark we compute its counters on IC and its runtime/power on every
// simulation machine via the CPU execution model; the KNN then maps a job's
// (GMM-synthesized) counters to per-machine scale factors relative to IC.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "machine/catalog.hpp"
#include "machine/perf.hpp"
#include "stats/knn.hpp"
#include "workload/trace.hpp"

namespace ga::workload {

/// One benchmark observation used for training (and for GMM alignment).
struct BenchmarkPoint {
    std::string kernel;
    ga::machine::WorkProfile profile;
    JobCounters counters_ic;  ///< per-core counters measured on IC
};

/// The kernel suite's work profiles at test_scale() x {1, 2}, with their IC
/// counters derived by counters_on_ic. The profiles are a committed table
/// (the counts are machine-independent), so no kernel runs here; the
/// BenchmarkTable golden test re-runs the kernels and checks it bit for bit.
/// Built once per process.
[[nodiscard]] const std::vector<BenchmarkPoint>& benchmark_points();

/// Per-machine scaling relative to IC.
struct MachineScaling {
    double runtime_factor = 1.0;
    double power_factor = 1.0;
};

/// KNN-backed predictor over a fixed machine set.
class CrossPlatformPredictor {
public:
    /// Trains on the benchmark points for the given machines. `k` is the
    /// neighbour count (paper's method; small k keeps behavior clusters
    /// crisp). `noise_sigma` adds deterministic log-normal prediction error
    /// per (job counters, machine) — real KNN predictors trained on a few
    /// benchmarks carry exactly this kind of spread, and it prevents
    /// winner-take-all machine selection in the simulator.
    explicit CrossPlatformPredictor(
        std::vector<ga::machine::CatalogEntry> machines, std::size_t k = 3,
        int reference_cores = 8, double noise_sigma = 0.12);

    /// Predicts scaling factors for each machine (index-aligned with
    /// `machines()`).
    [[nodiscard]] std::vector<MachineScaling> predict(
        const JobCounters& counters) const;

    [[nodiscard]] const std::vector<ga::machine::CatalogEntry>& machines()
        const noexcept {
        return machines_;
    }

    /// Index of a machine by name; throws RuntimeError when absent.
    [[nodiscard]] std::size_t machine_index(std::string_view name) const;

private:
    std::vector<ga::machine::CatalogEntry> machines_;
    std::size_t ic_index_;
    double noise_sigma_;
    std::unique_ptr<ga::stats::KnnRegressor> knn_;
};

/// Derives per-core IC counters from a work profile and its IC execution.
[[nodiscard]] JobCounters counters_on_ic(const ga::machine::WorkProfile& profile,
                                         int cores = 8);

}  // namespace ga::workload
