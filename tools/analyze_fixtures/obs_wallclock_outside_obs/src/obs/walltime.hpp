// Fixture: a file whose path ends in obs/walltime.hpp — the built-in exempt
// home of the obs-wallclock-outside-obs rule — may read the monotonic clock.
#pragma once

#include <chrono>

inline double fixture_elapsed_seconds(
    std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}
