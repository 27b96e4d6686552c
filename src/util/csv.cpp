#include "util/csv.hpp"

#include <sstream>

#include "util/error.hpp"

namespace ga::util {

std::size_t CsvTable::column(std::string_view name) const {
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (header[i] == name) return i;
    }
    throw RuntimeError("csv: no column named '" + std::string(name) + "'");
}

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {
    GA_REQUIRE(!header_.empty(), "csv header must be non-empty");
}

void CsvWriter::add_row(std::vector<std::string> row) {
    GA_REQUIRE(row.size() == header_.size(), "csv row arity must match header");
    rows_.push_back(std::move(row));
}

void CsvWriter::add_row_values(const std::vector<double>& values) {
    std::vector<std::string> row;
    row.reserve(values.size());
    for (const double v : values) {
        std::ostringstream os;
        os.precision(17);
        os << v;
        row.push_back(os.str());
    }
    add_row(std::move(row));
}

std::string CsvWriter::to_string() const {
    std::ostringstream os;
    auto emit_row = [&os](const std::vector<std::string>& row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i != 0) os << ',';
            os << csv_escape(row[i]);
        }
        os << '\n';
    };
    emit_row(header_);
    for (const auto& row : rows_) emit_row(row);
    return os.str();
}

std::string csv_escape(std::string_view field) {
    const bool needs_quotes =
        field.find_first_of(",\"\n\r") != std::string_view::npos;
    if (!needs_quotes) return std::string(field);
    std::string out;
    out.reserve(field.size() + 2);
    out.push_back('"');
    for (const char c : field) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

namespace {

// Splits one logical CSV record starting at `pos`; advances pos past the
// record (and its newline).
std::vector<std::string> parse_record(std::string_view text, std::size_t& pos) {
    std::vector<std::string> fields;
    std::string current;
    bool in_quotes = false;
    while (pos < text.size()) {
        const char c = text[pos];
        if (in_quotes) {
            if (c == '"') {
                if (pos + 1 < text.size() && text[pos + 1] == '"') {
                    current.push_back('"');
                    ++pos;
                } else {
                    in_quotes = false;
                }
            } else {
                current.push_back(c);
            }
        } else {
            if (c == '"') {
                in_quotes = true;
            } else if (c == ',') {
                fields.push_back(std::move(current));
                current.clear();
            } else if (c == '\n' || c == '\r') {
                // consume \r\n or \n
                if (c == '\r' && pos + 1 < text.size() && text[pos + 1] == '\n') ++pos;
                ++pos;
                fields.push_back(std::move(current));
                return fields;
            } else {
                current.push_back(c);
            }
        }
        ++pos;
    }
    if (in_quotes) throw RuntimeError("csv: unterminated quoted field");
    fields.push_back(std::move(current));
    return fields;
}

}  // namespace

CsvTable parse_csv(std::string_view text) {
    CsvTable table;
    std::size_t pos = 0;
    if (text.empty()) throw RuntimeError("csv: empty input");
    table.header = parse_record(text, pos);
    while (pos < text.size()) {
        auto row = parse_record(text, pos);
        if (row.size() == 1 && row[0].empty()) continue;  // trailing blank line
        if (row.size() != table.header.size()) {
            throw RuntimeError("csv: ragged row (expected " +
                               std::to_string(table.header.size()) + " fields, got " +
                               std::to_string(row.size()) + ")");
        }
        table.rows.push_back(std::move(row));
    }
    return table;
}

}  // namespace ga::util
