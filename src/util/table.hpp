// ASCII table rendering for the bench harnesses: every reproduced paper
// table/figure prints through this so outputs are uniform and diffable.
#pragma once

#include <string>
#include <vector>

namespace ga::util {

/// Column alignment inside a rendered table.
enum class Align { Left, Right };

/// Accumulates rows and renders a boxed, padded ASCII table.
class TablePrinter {
public:
    explicit TablePrinter(std::vector<std::string> header);

    /// Optional table caption printed above the box.
    void set_title(std::string title) { title_ = std::move(title); }

    void add_row(std::vector<std::string> row);

    /// Inserts a horizontal rule between row groups.
    void add_separator();

    /// Formats a double with the given number of decimals.
    [[nodiscard]] static std::string num(double value, int decimals = 2);

    [[nodiscard]] std::string render() const;

private:
    struct Row {
        std::vector<std::string> cells;
        bool separator = false;
    };

    std::string title_;
    std::vector<std::string> header_;
    std::vector<Align> alignments_;
    std::vector<Row> rows_;
};

}  // namespace ga::util
