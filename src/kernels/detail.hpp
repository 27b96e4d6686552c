// Internal helpers shared by the kernel implementations.
#pragma once

#include <cstdint>

#include "obs/walltime.hpp"

namespace ga::kernels::detail {

/// Wall-clock timer for the informational `wall_seconds` field — the obs
/// timer, so the wall-clock read stays inside the sanctioned module (see
/// ga-analyze's rule `obs-wallclock-outside-obs`).
using WallTimer = ga::obs::WallTimer;

/// Cheap deterministic value generator for input data (not statistics-grade;
/// kernels only need reproducible, well-spread inputs).
inline double fill_value(std::uint64_t i) noexcept {
    std::uint64_t z = i * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
}

}  // namespace ga::kernels::detail
