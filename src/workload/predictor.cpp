#include "workload/predictor.hpp"

#include <bit>
#include <cmath>
#include <iterator>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ga::workload {

namespace {

const ga::machine::CatalogEntry& ic_entry() {
    return ga::machine::find(ga::machine::CatalogId::InstitutionalCluster);
}

struct ProfileRow {
    const char* kernel;
    ga::machine::WorkProfile profile;
};

// The work the kernel suite (ga::kernels::make_suite) counts at
// test_scale() x {1, 2}, in suite order. The counts are machine-independent,
// so they are recorded here rather than re-measured by every process; the
// BenchmarkTable golden test re-runs the kernels, compares bit for bit and
// prints replacement rows when a kernel change moves a count.
constexpr ProfileRow kSuiteProfiles[] = {
    {"Cholesky", {0x1.218p+21, 0x1.5p+19, 0x1.dc28f5c28f5c3p-1}},
    {"Cholesky", {0x1.20fp+24, 0x1.1ap+22, 0x1.dc28f5c28f5c3p-1}},
    {"MD", {0x1.b2ace6p+27, 0x1.855cbp+28, 0x1.e666666666666p-1}},
    {"MD", {0x1.bd8fdb8p+28, 0x1.8f09fcp+29, 0x1.e666666666666p-1}},
    {"Pagerank", {0x1.4c08p+21, 0x1.a3ecp+24, 0x1.c28f5c28f5c29p-1}},
    {"Pagerank", {0x1.4c08p+22, 0x1.a3ecp+25, 0x1.c28f5c28f5c29p-1}},
    {"MatMul", {0x1.f4p+22, 0x1.2cp+21, 0x1.f5c28f5c28f5cp-1}},
    {"MatMul", {0x1.f4p+25, 0x1.f4p+23, 0x1.f5c28f5c28f5cp-1}},
    {"DNA Viz.", {0x1.e848p+18, 0x1.312ep+18, 0x1.999999999999ap-1}},
    {"DNA Viz.", {0x1.e848p+19, 0x1.312ep+19, 0x1.999999999999ap-1}},
    {"BFS", {0x0p+0, 0x1.964p+19, 0x1.8p-1}},
    {"BFS", {0x0p+0, 0x1.964p+20, 0x1.8p-1}},
    {"MST", {0x0p+0, 0x1.4a5ddc4bf88fcp+22, 0x1.3333333333333p-1}},
    {"MST", {0x0p+0, 0x1.5d4d7c4bf88fcp+23, 0x1.3333333333333p-1}},
};

}  // namespace

JobCounters counters_on_ic(const ga::machine::WorkProfile& profile, int cores) {
    const ga::machine::CpuPerfModel model;
    const auto exec = model.execute(profile, ic_entry().node, cores);
    GA_REQUIRE(exec.seconds > 0.0, "predictor: zero-duration profile");
    const double core_seconds = exec.seconds * cores;
    JobCounters c;
    // Instruction proxy: one instruction per flop plus one per 8 bytes moved.
    c.gips = (profile.flops + profile.mem_bytes / 8.0) / core_seconds / 1e9;
    // One LLC miss per 64-byte line fetched from DRAM.
    c.llc_mps = profile.mem_bytes / 64.0 / core_seconds / 1e6;
    return c;
}

const std::vector<BenchmarkPoint>& benchmark_points() {
    static const std::vector<BenchmarkPoint> points = [] {
        std::vector<BenchmarkPoint> out;
        out.reserve(std::size(kSuiteProfiles));
        for (const auto& row : kSuiteProfiles) {
            out.push_back({row.kernel, row.profile, counters_on_ic(row.profile)});
        }
        return out;
    }();
    return points;
}

CrossPlatformPredictor::CrossPlatformPredictor(
    std::vector<ga::machine::CatalogEntry> machines, std::size_t k,
    int reference_cores, double noise_sigma)
    : machines_(std::move(machines)),
      ic_index_(machines_.size()),
      noise_sigma_(noise_sigma) {
    GA_REQUIRE(noise_sigma_ >= 0.0, "predictor: noise sigma must be >= 0");
    GA_REQUIRE(!machines_.empty(), "predictor: need at least one machine");
    for (std::size_t i = 0; i < machines_.size(); ++i) {
        if (machines_[i].id == ga::machine::CatalogId::InstitutionalCluster) {
            ic_index_ = i;
        }
    }
    GA_REQUIRE(ic_index_ < machines_.size(),
               "predictor: machine set must include IC (the trace's source)");

    const auto& points = benchmark_points();
    const ga::machine::CpuPerfModel model;

    // Features: log counters. Targets: per machine, (log runtime ratio,
    // log power ratio) versus IC — log space keeps ratios multiplicative
    // under KNN averaging.
    std::vector<double> features;
    std::vector<double> targets;
    const std::size_t n_outputs = machines_.size() * 2;
    for (const auto& p : points) {
        features.push_back(std::log(p.counters_ic.gips));
        features.push_back(std::log(p.counters_ic.llc_mps));
        const int cores_ic =
            std::min(reference_cores, ic_entry().node.total_cores());
        const auto ic_exec = model.execute(p.profile, ic_entry().node, cores_ic);
        // Whole-allocation power: active draw plus the provisioned idle
        // share — the trace's power_ic_w uses the same convention, and the
        // idle term is what separates low-idle Desktop from high-idle FASTER.
        const double ic_power =
            (ic_exec.joules + ic_exec.idle_share_j) / ic_exec.seconds;
        for (const auto& m : machines_) {
            const int cores = std::min(reference_cores, m.node.total_cores());
            const auto exec = model.execute(p.profile, m.node, cores);
            const double power = (exec.joules + exec.idle_share_j) / exec.seconds;
            targets.push_back(std::log(exec.seconds / ic_exec.seconds));
            targets.push_back(std::log(power / ic_power));
        }
    }
    knn_ = std::make_unique<ga::stats::KnnRegressor>(
        features, 2, targets, n_outputs, std::min(k, points.size()),
        ga::stats::KnnWeighting::InverseDistance);
}

std::vector<MachineScaling> CrossPlatformPredictor::predict(
    const JobCounters& counters) const {
    GA_REQUIRE(counters.gips > 0.0 && counters.llc_mps > 0.0,
               "predictor: counters must be positive");
    const std::vector<double> query = {std::log(counters.gips),
                                       std::log(counters.llc_mps)};
    const auto raw = knn_->predict(query);

    // Deterministic per-(counters, machine) prediction noise: the same job
    // always gets the same prediction (repetitions share counters), but
    // near-ties between machines resolve differently across jobs — matching
    // the measurement/model error of the paper's real KNN.
    const std::uint64_t key =
        std::bit_cast<std::uint64_t>(counters.gips) * 0x9E3779B97F4A7C15ULL ^
        std::bit_cast<std::uint64_t>(counters.llc_mps);

    // IC keeps the default scaling of exactly 1: the trace's runtime/power
    // are ground truth on IC, so prediction noise must not perturb them.
    // Each machine seeds its own noise stream, so skipping IC's draws
    // leaves the others' bits.
    std::vector<MachineScaling> out(machines_.size());
    for (std::size_t m = 0; m < machines_.size(); ++m) {
        if (m == ic_index_) continue;
        ga::util::Rng noise_rng(ga::util::SplitMix64(key ^ (m * 0xD1B54A32ULL)).next());
        out[m].runtime_factor =
            std::exp(raw[m * 2] + noise_rng.normal(0.0, noise_sigma_));
        out[m].power_factor =
            std::exp(raw[m * 2 + 1] + noise_rng.normal(0.0, noise_sigma_));
    }
    return out;
}

std::size_t CrossPlatformPredictor::machine_index(std::string_view name) const {
    for (std::size_t i = 0; i < machines_.size(); ++i) {
        if (machines_[i].node.name == name) return i;
    }
    throw ga::util::RuntimeError("predictor: unknown machine '" +
                                 std::string(name) + "'");
}

}  // namespace ga::workload
