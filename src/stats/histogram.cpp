#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace ga::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
    GA_REQUIRE(hi > lo, "histogram range must be non-empty");
    GA_REQUIRE(bins > 0, "histogram needs at least one bin");
    counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
    const double scaled =
        (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
    auto bin = static_cast<std::ptrdiff_t>(std::floor(scaled));
    bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                     static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(bin)];
    ++total_;
}

std::size_t Histogram::count(std::size_t bin) const {
    GA_REQUIRE(bin < counts_.size(), "histogram bin out of range");
    return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
    GA_REQUIRE(bin < counts_.size(), "histogram bin out of range");
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + width * (static_cast<double>(bin) + 0.5);
}

double Histogram::fraction(std::size_t bin) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

std::string Histogram::render(std::size_t max_width) const {
    const std::size_t peak = *std::max_element(counts_.begin(), counts_.end());
    std::ostringstream os;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        const std::size_t bar =
            peak == 0 ? 0 : counts_[b] * max_width / std::max<std::size_t>(peak, 1);
        os << ga::util::TablePrinter::num(bin_center(b), 2) << " | "
           << std::string(bar, '#') << ' ' << counts_[b] << '\n';
    }
    return os.str();
}

}  // namespace ga::stats
