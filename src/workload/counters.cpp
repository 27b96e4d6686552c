#include "workload/counters.hpp"

#include <cmath>
#include <optional>

#include "util/error.hpp"
#include "workload/predictor.hpp"

namespace ga::workload {

std::vector<double> make_counter_training_data(std::size_t rows,
                                               std::uint64_t seed) {
    GA_REQUIRE(rows >= 16, "counters: need a non-trivial training set");
    ga::util::Rng rng(seed);

    // "Data collected on IC": counter measurements of real executions. Our
    // stand-in is the instrumented benchmark suite's counters on the IC
    // machine model, spread by log-normal jitter to mimic the job diversity
    // around each behavior cluster.
    const auto& points = benchmark_points();
    GA_REQUIRE(!points.empty(), "counters: empty benchmark set");

    std::vector<double> out;
    out.reserve(rows * 2);
    for (std::size_t r = 0; r < rows; ++r) {
        const auto& p = points[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(points.size()) - 1))];
        out.push_back(std::log(p.counters_ic.gips) + rng.normal(0.0, 0.45));
        out.push_back(std::log(p.counters_ic.llc_mps) + rng.normal(0.0, 0.45));
    }
    return out;
}

ga::stats::Gmm fit_counter_gmm(std::size_t training_rows, std::uint64_t seed) {
    const auto data = make_counter_training_data(training_rows, seed);
    ga::stats::GmmOptions options;
    options.n_components = 3;
    options.max_iterations = 120;
    options.seed = seed ^ 0xC0FFEEull;
    return ga::stats::Gmm::fit(data, 2, options);
}

JobCounters counters_from_sample(const std::vector<double>& sample) {
    GA_REQUIRE(sample.size() == 2, "counters: GMM sample must be 2-dimensional");
    JobCounters c;
    c.gips = std::exp(sample[0]);
    c.llc_mps = std::exp(sample[1]);
    return c;
}

void synthesize_counters(std::vector<TraceJob>& jobs, const ga::stats::Gmm& gmm,
                         std::uint64_t seed) {
    ga::util::Rng rng(seed);
    // Repetitions of the same (user, app) share one counter vector — the
    // paper's "same cross-platform characteristics" assumption. Sample on
    // first sight of the pair, in job order, reuse afterwards.
    PairMemo<std::optional<JobCounters>> memo;
    for (auto& job : jobs) {
        auto& counters = memo[job];
        if (!counters) counters = counters_from_sample(gmm.sample(rng));
        job.counters = *counters;
    }
}

}  // namespace ga::workload
