// CPU execution model: converts an application's work profile into
// (runtime, energy) on a given node.
//
// The paper measured real applications with RAPL on four physical CPU nodes
// (Table 1, Fig. 4). We do not have that hardware, so the substitution is a
// roofline + Amdahl model whose per-machine constants (sustained GFlop/s per
// core, incremental watts per busy core, memory bandwidth) are calibrated to
// the paper's published (runtime, energy) pairs. Kernels in ga_kernels are
// *really executed* to produce their work profiles (flop and byte counts are
// counted by instrumentation, not assumed), and this model maps a profile to
// any catalog machine. The simulator's predictor reads those profiles from a
// committed table (workload/predictor.cpp) that a golden test re-derives
// from the kernels, so simulations run no kernel.
#pragma once

#include "machine/spec.hpp"

namespace ga::machine {

/// Machine-independent description of a computation, measured by the
/// instrumented kernels.
struct WorkProfile {
    double flops = 0.0;              ///< floating-point operations
    double mem_bytes = 0.0;          ///< bytes moved to/from DRAM
    double parallel_fraction = 0.95; ///< Amdahl-parallelizable share
};

/// Model output for one (profile, node, cores) combination.
struct ExecutionEstimate {
    double seconds = 0.0;
    double joules = 0.0;       ///< task-attributed (active) energy, RAPL-style
    double avg_watts = 0.0;    ///< joules / seconds
    double activity = 0.0;     ///< 0..1 compute-intensity factor
    double idle_share_j = 0.0; ///< node idle energy attributable to the
                               ///< provisioned cores (whole-job accounting)
};

/// Options controlling the power-activity mapping.
struct CpuPerfOptions {
    /// Activity (fraction of the per-core active power actually drawn) for a
    /// fully memory-bound task; compute-bound tasks draw 1.0.
    double memory_bound_activity = 0.55;
};

/// Deterministic roofline/Amdahl execution model.
class CpuPerfModel {
public:
    explicit CpuPerfModel(CpuPerfOptions options = CpuPerfOptions{}) noexcept
        : options_(options) {}

    /// Estimates runtime and energy for `profile` on `node` using
    /// `cores_used` cores (1 <= cores_used <= node.total_cores()).
    [[nodiscard]] ExecutionEstimate execute(const WorkProfile& profile,
                                            const NodeSpec& node,
                                            int cores_used) const;

    /// Effective energy cost of one double-precision flop on `node` for a
    /// fully compute-bound task (joules/flop) — used to rank machine
    /// efficiency in tests.
    [[nodiscard]] static double joules_per_flop(const NodeSpec& node) noexcept;

private:
    CpuPerfOptions options_;
};

}  // namespace ga::machine
