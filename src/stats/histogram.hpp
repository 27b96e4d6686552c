// Fixed-width histogram used for distribution reporting in the study and
// simulation benches.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ga::stats {

/// Equal-width histogram over [lo, hi) with values outside clamped into the
/// first/last bin (experiment outputs should never silently drop samples).
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;

    [[nodiscard]] std::size_t count(std::size_t bin) const;
    [[nodiscard]] std::size_t total() const noexcept { return total_; }

    /// Center of a bin.
    [[nodiscard]] double bin_center(std::size_t bin) const;

    /// Fraction of mass in a bin (0 if empty histogram).
    [[nodiscard]] double fraction(std::size_t bin) const;

    /// Simple textual bar rendering (for bench output).
    [[nodiscard]] std::string render(std::size_t max_width = 50) const;

private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

}  // namespace ga::stats
