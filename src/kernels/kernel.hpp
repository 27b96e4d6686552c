// The application suite of Fig. 4 / Table 1: Cholesky, MD, PageRank, MatMul,
// DNA Viz., BFS, MST (five SeBS-style benchmarks plus two scientific codes).
//
// Every kernel REALLY EXECUTES on the host: it allocates data, computes a
// result, and returns a checksum (verified by tests against reference
// values). While executing, each kernel counts the work it performs — flops
// and bytes moved — at loop-nest granularity. The resulting WorkProfile is
// machine-independent and is what the CPU execution model (ga_machine) maps
// onto each catalog machine to obtain the paper's (runtime, energy) pairs.
//
// The Fig. 4 / Table 1 benches and this module's tests run the kernels. The
// simulator does not: its predictor reads the suite's test-scale profiles
// from a committed table (workload/predictor.cpp), and the BenchmarkTable
// golden test re-runs the kernels to check that table bit for bit.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "machine/perf.hpp"

namespace ga::kernels {

/// Output of one kernel execution.
struct KernelResult {
    ga::machine::WorkProfile profile;  ///< counted work
    double checksum = 0.0;             ///< numeric result (verifiable)
    double wall_seconds = 0.0;         ///< host wall-clock (informational only)
};

/// A runnable, work-metered application.
class Kernel {
public:
    virtual ~Kernel() = default;

    /// Display name as used in Fig. 4 ("Cholesky", "MD", ...).
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// Executes at problem scale `n` (kernel-specific dimension: matrix
    /// order, atom count, vertex count, or sequence length).
    [[nodiscard]] virtual KernelResult run(int n) const = 0;

    /// The scale used for the paper-reproduction benches, chosen so the
    /// modeled Desktop runtime lands in the few-seconds regime of Fig. 4.
    [[nodiscard]] virtual int paper_scale() const noexcept = 0;

    /// A small scale for unit tests.
    [[nodiscard]] virtual int test_scale() const noexcept = 0;
};

/// Factory functions, one per application.
[[nodiscard]] std::unique_ptr<Kernel> make_cholesky();
[[nodiscard]] std::unique_ptr<Kernel> make_matmul();
[[nodiscard]] std::unique_ptr<Kernel> make_pagerank();
[[nodiscard]] std::unique_ptr<Kernel> make_bfs();
[[nodiscard]] std::unique_ptr<Kernel> make_mst();
[[nodiscard]] std::unique_ptr<Kernel> make_md();
[[nodiscard]] std::unique_ptr<Kernel> make_dnaviz();

/// The full suite in Fig. 4 order: Cholesky, MD, Pagerank, MatMul, DNA Viz.,
/// BFS, MST.
[[nodiscard]] std::vector<std::unique_ptr<Kernel>> make_suite();

/// Names in suite order.
[[nodiscard]] const std::vector<std::string>& suite_names();

/// Builds one kernel by name; throws RuntimeError for unknown names.
[[nodiscard]] std::unique_ptr<Kernel> make_kernel(std::string_view name);

}  // namespace ga::kernels
