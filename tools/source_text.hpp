// Text utilities for ga-analyze, the project's source-scanning tool. It
// matches *policy*, not C++ semantics, so it works on comment- and
// string-stripped source: a banned token or an include mention inside prose
// or a string literal must never trip a rule.
#pragma once

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ga::tools {

/// Replaces comments and string/char literals with spaces, preserving
/// newlines so line numbers survive. Handles //, /* */, "...", '...', and
/// the R"delim(...)delim" raw-string form.
inline std::string strip_comments_and_strings(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    enum class State { Code, Line, Block, Str, Chr, Raw };
    State state = State::Code;
    std::string raw_delim;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char next = i + 1 < in.size() ? in[i + 1] : '\0';
        switch (state) {
            case State::Code:
                if (c == '/' && next == '/') {
                    state = State::Line;
                    out += "  ";
                    ++i;
                } else if (c == '/' && next == '*') {
                    state = State::Block;
                    out += "  ";
                    ++i;
                } else if (c == 'R' && next == '"' &&
                           (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                           in[i - 1])) &&
                                       in[i - 1] != '_'))) {
                    // R"delim( — capture the delimiter up to '('.
                    std::size_t j = i + 2;
                    raw_delim.clear();
                    while (j < in.size() && in[j] != '(') raw_delim += in[j++];
                    state = State::Raw;
                    out.append(j - i + 1, ' ');
                    i = j;
                } else if (c == '"') {
                    state = State::Str;
                    out += ' ';
                } else if (c == '\'') {
                    state = State::Chr;
                    out += ' ';
                } else {
                    out += c;
                }
                break;
            case State::Line:
                if (c == '\n') {
                    state = State::Code;
                    out += '\n';
                } else {
                    out += ' ';
                }
                break;
            case State::Block:
                if (c == '*' && next == '/') {
                    state = State::Code;
                    out += "  ";
                    ++i;
                } else {
                    out += c == '\n' ? '\n' : ' ';
                }
                break;
            case State::Str:
                if (c == '\\') {
                    out += "  ";
                    ++i;
                    if (i < in.size() && in[i] == '\n') out.back() = '\n';
                } else if (c == '"') {
                    state = State::Code;
                    out += ' ';
                } else {
                    out += c == '\n' ? '\n' : ' ';
                }
                break;
            case State::Chr:
                if (c == '\\') {
                    out += "  ";
                    ++i;
                } else if (c == '\'') {
                    state = State::Code;
                    out += ' ';
                } else {
                    out += ' ';
                }
                break;
            case State::Raw: {
                const std::string closer = ")" + raw_delim + "\"";
                if (c == ')' && in.compare(i, closer.size(), closer) == 0) {
                    out.append(closer.size(), ' ');
                    i += closer.size() - 1;
                    state = State::Code;
                } else {
                    out += c == '\n' ? '\n' : ' ';
                }
                break;
            }
        }
    }
    return out;
}

inline bool ends_with(std::string_view value, std::string_view suffix) {
    return value.size() >= suffix.size() &&
           value.compare(value.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
}

/// Reads a whole file, throwing with the tool name on failure.
inline std::string read_file(const std::filesystem::path& path,
                             std::string_view tool) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error(std::string(tool) + ": cannot read " +
                                 path.string());
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

}  // namespace ga::tools
