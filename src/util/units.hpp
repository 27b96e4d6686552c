// Physical quantities used throughout the accounting libraries.
//
// Everything is stored in SI-ish base units as double:
//   energy  : joules (J)          power  : watts (W)
//   time    : seconds (s)         carbon : grams CO2-equivalent (gCO2e)
//   carbon intensity : gCO2e per kWh (the unit grid operators publish)
//
// Conversion helpers keep the kWh/J boundary explicit — mixing those up is
// the classic bug in energy accounting code, so conversions are named and
// centralized here instead of scattered magic constants.
#pragma once

namespace ga::util {

/// Joules per kilowatt-hour.
inline constexpr double kJoulesPerKwh = 3.6e6;

/// Seconds in one hour / one year (365-day accounting year, as the paper's
/// Eq. 2 uses 24*365 hours for the embodied carbon rate).
inline constexpr double kSecondsPerHour = 3600.0;
inline constexpr double kHoursPerYear = 24.0 * 365.0;

/// Converts joules to kilowatt-hours.
[[nodiscard]] constexpr double joules_to_kwh(double joules) noexcept {
    return joules / kJoulesPerKwh;
}

/// Converts kilowatt-hours to joules.
[[nodiscard]] constexpr double kwh_to_joules(double kwh) noexcept {
    return kwh * kJoulesPerKwh;
}

/// Converts seconds to hours.
[[nodiscard]] constexpr double seconds_to_hours(double seconds) noexcept {
    return seconds / kSecondsPerHour;
}

/// Operational carbon in gCO2e for `joules` of electricity at grid
/// intensity `g_per_kwh` (gCO2e/kWh).
[[nodiscard]] constexpr double operational_carbon_g(double joules,
                                                    double g_per_kwh) noexcept {
    return joules_to_kwh(joules) * g_per_kwh;
}

/// Core-hours for `cores` busy for `seconds`.
[[nodiscard]] constexpr double core_hours(double cores, double seconds) noexcept {
    return cores * seconds_to_hours(seconds);
}

}  // namespace ga::util
