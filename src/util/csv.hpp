// Minimal CSV reading/writing: ga-sim's `--out csv` payload
// (io/results.hpp) writes through it.
//
// The dialect is deliberately simple (RFC4180-ish): comma separator, fields
// containing comma/quote/newline are double-quoted, embedded quotes doubled.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ga::util {

/// One parsed CSV table: a header row plus data rows of equal arity.
struct CsvTable {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    /// Index of a header column; throws RuntimeError when absent.
    [[nodiscard]] std::size_t column(std::string_view name) const;
};

/// Streaming CSV writer.
class CsvWriter {
public:
    explicit CsvWriter(std::vector<std::string> header);

    /// Appends one row; must match the header arity.
    void add_row(std::vector<std::string> row);

    /// Convenience overload that formats doubles with max round-trip digits.
    void add_row_values(const std::vector<double>& values);

    /// Serializes the whole table.
    [[nodiscard]] std::string to_string() const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/// Parses CSV text (first row is the header). Throws RuntimeError on ragged
/// rows or unterminated quotes.
[[nodiscard]] CsvTable parse_csv(std::string_view text);

/// Escapes one field per the dialect above.
[[nodiscard]] std::string csv_escape(std::string_view field);

}  // namespace ga::util
