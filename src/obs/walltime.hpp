// The single sanctioned home of wall-clock reads.
//
// Project rule (enforced by tools/ga-analyze, rule
// `obs-wallclock-outside-obs`): no code outside this header may read a
// clock. Simulation *inputs* must be virtual-time or seeded — a wall-clock
// read feeding a simulation would break the bit-identical golden contract —
// so every legitimate timing need (benchmark stopwatches, latency
// histograms, optional wall timestamps on trace events) routes through this
// API instead, where the read is visibly diagnostic: `WallTimer` measures
// durations that are only ever *reported*, never fed back into results.
#pragma once

#include <chrono>

namespace ga::obs {

/// Monotonic stopwatch: captures the clock at construction, `seconds()`
/// reports the elapsed time. The measured value must only flow into
/// metrics, traces, or benchmark reports — never into simulation state.
class WallTimer {
public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /// Seconds elapsed since construction (or the last `restart()`).
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    /// Re-arms the stopwatch.
    void restart() { start_ = std::chrono::steady_clock::now(); }

private:
    std::chrono::steady_clock::time_point start_;
};

/// Microseconds on the monotonic clock (arbitrary epoch). Used by the
/// tracer's optional wall-timestamp channel; values are comparable within
/// one process only.
[[nodiscard]] inline double wall_now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace ga::obs
