// Synthetic per-job energy trace in the style of Patel et al. (paper §5.2).
//
// The paper uses a published dataset of per-job energy from two HPC clusters
// (~84k jobs, reduced to 71,190 with energy values, each repeated twice →
// 142,380 jobs). That dataset is not redistributable here, so this generator
// produces a trace with the distributional features §5 depends on:
//
//   * users submit repeated runs of a small set of personal "apps" — same
//     requested cores, same execution characteristics (the paper's repetition
//     assumption);
//   * heavy-tailed (log-normal) runtimes;
//   * a core-count mix where 17% of jobs need more than 16 cores (and thus
//     cannot run on the one-node Desktop);
//   * per-job energy/power characteristics spanning compute-bound to
//     memory-bound behavior.
//
// Runtime and power are expressed on the IC machine (the cluster most
// similar to the source dataset, as the paper assumes) and extrapolated to
// other machines by the cross-platform predictor.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace ga::workload {

/// Synthesized hardware-counter vector (the paper's two counters).
struct JobCounters {
    double gips = 1.0;     ///< instructions per second, billions
    double llc_mps = 1.0;  ///< last-level-cache misses per second, millions
};

/// One job of the trace.
struct TraceJob {
    std::uint32_t id = 0;
    std::uint32_t user = 0;
    std::uint32_t app = 0;       ///< user-local app index (repetition key)
    int cores = 1;
    double submit_s = 0.0;       ///< seconds from simulation start
    double runtime_ic_s = 0.0;   ///< duration when run on IC
    double power_ic_w = 0.0;     ///< average draw on IC (job's provisioned share)
    JobCounters counters;        ///< GMM-synthesized counters

    [[nodiscard]] double energy_ic_j() const noexcept {
        return runtime_ic_s * power_ic_w;
    }
};

/// One value per (user, app) repetition key: a vector of per-app slots for
/// each user id, grown on demand. A slot starts value-initialized.
template <typename T>
class PairMemo {
public:
    /// The slot of `job`'s (user, app) pair.
    T& operator[](const TraceJob& job) {
        if (job.user >= slots_.size()) slots_.resize(std::size_t{job.user} + 1);
        std::vector<T>& apps = slots_[job.user];
        if (job.app >= apps.size()) apps.resize(std::size_t{job.app} + 1);
        return apps[job.app];
    }

private:
    std::vector<std::vector<T>> slots_;
};

/// Arrival-time process for the generated trace.
enum class ArrivalProcess {
    /// Legacy paper mode: submissions uniform over the span. The default —
    /// traces generated with it are bit-identical to pre-knob traces.
    Uniform,
    /// Datacenter-scale mode: a day/night submission cycle with a weekday/
    /// weekend split, plus arrival bursts (many jobs landing within seconds
    /// of a shared epicenter). This is the bursty diurnal load that stresses
    /// the simulator's queue index at millions of jobs.
    Diurnal,
};

/// Name of an arrival process ("uniform", "diurnal") for the scenario schema.
[[nodiscard]] std::string_view to_string(ArrivalProcess arrival) noexcept;

/// Inverse of `to_string`; nullopt for unknown names.
[[nodiscard]] std::optional<ArrivalProcess> arrival_from_string(
    std::string_view name) noexcept;

/// Generator configuration (defaults reproduce the paper's workload scale).
/// Datacenter-scale traces raise `base_jobs`/`users` (millions of jobs, tens
/// of thousands of users) and switch `arrival` to Diurnal; generation stays
/// O(jobs) and deterministic in the options.
struct TraceOptions {
    std::size_t base_jobs = 71'190;  ///< before repetition
    int repetitions = 2;             ///< paper repeats every execution twice
    std::size_t users = 400;
    double span_days = 12.0;         ///< submission window
    std::uint64_t seed = 20'23;

    ArrivalProcess arrival = ArrivalProcess::Uniform;
    // Diurnal-mode knobs (ignored under Uniform):
    double diurnal_peak_hour = 14.0;  ///< local time of the daily peak, [0,24)
    double diurnal_amplitude = 0.75;  ///< 0 = flat day, ->1 = silent troughs
    double weekend_factor = 0.35;     ///< weekend rate multiplier, (0,1]
    double burst_fraction = 0.15;     ///< fraction of jobs arriving in bursts
    double burst_width_s = 120.0;     ///< mean offset from a burst epicenter
    double burst_mean_jobs = 50.0;    ///< target jobs per burst epicenter

    /// Total jobs produced.
    [[nodiscard]] std::size_t total_jobs() const noexcept {
        return base_jobs * static_cast<std::size_t>(repetitions);
    }

    friend bool operator==(const TraceOptions&, const TraceOptions&) = default;
};

/// Application archetype: the latent execution profile shared by all
/// repetitions of one user's app.
struct AppProfile {
    int cores = 1;
    double runtime_median_s = 1200.0;
    double runtime_sigma = 0.35;      ///< log-space jitter across repetitions
    double compute_intensity = 0.5;   ///< 0 = memory-bound, 1 = compute-bound
    double submit_rate_per_day = 2.0;
};

/// Generates the synthetic trace. Deterministic in the options.
/// Jobs are sorted by submit time; ids are dense.
[[nodiscard]] std::vector<TraceJob> generate_trace(const TraceOptions& options);

/// Draws the core count for an app (the 17%->16+ mix); exposed for tests.
[[nodiscard]] int sample_core_count(ga::util::Rng& rng);

/// Draws an app archetype; exposed for tests.
[[nodiscard]] AppProfile sample_app_profile(ga::util::Rng& rng);

}  // namespace ga::workload
