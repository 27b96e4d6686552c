#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"

namespace ga::util {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {
    GA_REQUIRE(!header_.empty(), "table header must be non-empty");
    alignments_.assign(header_.size(), Align::Right);
    alignments_[0] = Align::Left;
}

void TablePrinter::add_row(std::vector<std::string> row) {
    GA_REQUIRE(row.size() == header_.size(), "table row arity must match header");
    rows_.push_back(Row{std::move(row), false});
}

void TablePrinter::add_separator() { rows_.push_back(Row{{}, true}); }

std::string TablePrinter::num(double value, int decimals) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << value;
    return os.str();
}

std::string TablePrinter::render() const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
    for (const auto& row : rows_) {
        if (row.separator) continue;
        for (std::size_t i = 0; i < row.cells.size(); ++i) {
            widths[i] = std::max(widths[i], row.cells[i].size());
        }
    }

    std::ostringstream os;
    auto rule = [&] {
        os << '+';
        for (const std::size_t w : widths) os << std::string(w + 2, '-') << '+';
        os << '\n';
    };
    auto emit = [&](const std::vector<std::string>& cells) {
        os << '|';
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::size_t pad = widths[i] - cells[i].size();
            os << ' ';
            if (alignments_[i] == Align::Right) os << std::string(pad, ' ');
            os << cells[i];
            if (alignments_[i] == Align::Left) os << std::string(pad, ' ');
            os << " |";
        }
        os << '\n';
    };

    if (!title_.empty()) os << title_ << '\n';
    rule();
    emit(header_);
    rule();
    for (const auto& row : rows_) {
        if (row.separator) {
            rule();
        } else {
            emit(row.cells);
        }
    }
    rule();
    return os.str();
}

}  // namespace ga::util
