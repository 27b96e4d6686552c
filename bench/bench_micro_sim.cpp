// Micro-benchmarks (google-benchmark): batch-simulator throughput — jobs
// simulated per second per registry policy (including the context-aware
// strategies that read the scheduling context on every routing decision),
// and sweep-engine scaling: scenarios per second for an 8-policy grid at
// increasing thread counts.
#include <benchmark/benchmark.h>

#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "workload/workload.hpp"

namespace {

const ga::sim::BatchSimulator& simulator() {
    static const ga::sim::BatchSimulator sim = [] {
        ga::workload::TraceOptions o;
        o.base_jobs = 5000;
        o.users = 100;
        o.span_days = 6.0;
        o.seed = 51;
        return ga::sim::BatchSimulator(ga::workload::build_workload(o));
    }();
    return sim;
}

// Jobs per second under one policy, EBA pricing; the context-aware
// policies additionally price the per-cluster grid/queue views they
// consult.
void BM_Policy(benchmark::State& state, const char* name) {
    ga::sim::SimOptions o;
    o.policy = ga::sim::PolicySpec{name, {}};
    for (auto _ : state) {
        const auto r = simulator().run(o);
        benchmark::DoNotOptimize(r.work_core_hours);
    }
    state.counters["jobs/s"] = benchmark::Counter(
        static_cast<double>(simulator().workload().jobs.size()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

// Full 8-policy grid through the sweep engine; range(0) = worker threads.
// threads=1 is the serial baseline, higher counts show the parallel speedup.
void BM_Sweep(benchmark::State& state) {
    ga::sim::SweepGrid grid;
    grid.policies = ga::sim::all_policies();
    const auto specs = grid.expand();
    ga::sim::SweepRunner runner(simulator(),
                                static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        const auto outcomes = runner.run(specs);
        benchmark::DoNotOptimize(outcomes.front().result.work_core_hours);
    }
    state.counters["scenarios/s"] = benchmark::Counter(
        static_cast<double>(specs.size()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Policy, greedy, "Greedy")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Policy, energy, "Energy")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Policy, mixed, "Mixed")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Policy, eft, "EFT")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Policy, carbon_aware, "CarbonAware")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Policy, least_loaded, "LeastLoaded")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Sweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();
