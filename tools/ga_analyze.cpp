// ga-analyze — the project's static analysis: per-file policy rules, the
// include/layering graph and the lock-order graph.
//
// Each positional PATH is scanned. A path holding src/ is a tree (src/
// recursively plus the top level of tools/; the fixture directories under
// tools/ are not part of the tools module) and gets every check below; its
// graph checks need --layers. Any other path gets the per-file rules (A)
// only, over every C++ file under it.
//
// (A) Per-file rules: repository policy clang and clang-tidy cannot see,
// matched line by line on comment- and string-stripped text
// (source_text.hpp), so prose mentioning a banned token never trips a rule.
//
//   banned-rng    No std::rand/srand, std::random_device, or standard
//                 library engines (mt19937, ...). All randomness flows
//                 through the seeded, bit-reproducible ga::util::Rng
//                 (util/rng.hpp) so every experiment replays exactly.
//   obs-wallclock-outside-obs
//                 No wall-clock or machine-clock reads outside the obs
//                 module — time(nullptr),
//                 std::chrono::{system,steady,high_resolution}_clock,
//                 gettimeofday, ... Simulation time is virtual and seeded; a
//                 clock read is a hidden nondeterministic input. Diagnostic
//                 timing (benchmarks, latency histograms, trace wall
//                 timestamps) goes through ga::obs::WallTimer
//                 (obs/walltime.hpp), the rule's one exempt home.
//   unordered-io  No unordered containers under an io/ directory.
//                 Serialized output (results, scenarios, golden files) must
//                 be byte-identical across platforms and standard
//                 libraries; hash-order iteration anywhere near a
//                 serializer is how that contract dies quietly.
//   naked-mutex   No std::mutex / std::lock_guard / std::unique_lock /
//                 std::condition_variable outside util/thread_annotations.hpp.
//                 Locking goes through the annotated ga::util::Mutex wrappers
//                 so clang Thread Safety Analysis sees every lock.
//
// A banned call matches bare, `std::`- or `::`-qualified, but not as a
// member of another scope (`dice::rand(`) or a member call (`d.rand(`,
// `p->rand(`). A member declaration such as `int rand();` still matches: a
// regex cannot tell it from a call. A rule limited to a directory (`/io/`)
// applies however the path is spelled (`io/x.cpp`, `./io/x.cpp`).
//
// (B) Include/layering graph. Every `#include "..."` under src/ (plus the
// tools/ front-ends) becomes an edge in a file-level DAG, collapsed to the
// module graph (util, stats, machine, ..., io, tools). The declared
// layering lives in tools/ga-layers.txt; the checks are:
//
//   include-cycle      a cycle in the file-level include graph
//   upward-include     module includes a module at the same or a higher
//                      declared layer
//   undeclared-dep     module includes a lower-layer module that its
//                      ga-layers.txt entry does not declare
//   unused-dep         declared dependency with no actual include edge
//                      (the table must match reality, both directions)
//   undeclared-module  module on disk missing from ga-layers.txt
//   stale-module       ga-layers.txt entry with no files on disk
//   layer-order        declared dependency whose layer is not strictly
//                      lower than its consumer's (table self-consistency)
//   missing-guard      header without #pragma once
//   relative-include   quoted include using ../ or resolving only relative
//                      to the including file instead of the src/ root
//
// The module graph exports as Graphviz DOT (`--dot -`); the dependency-flow
// diagram in docs/ARCHITECTURE.md is that export verbatim, and
// `--check-doc` diffs the committed fence against the regenerated graph
// (rule `doc-drift`), so the documentation cannot quietly fall behind the
// code.
//
// (C) Lock-order graph. The scanner extracts every annotated mutex
// declaration (`ga::util::Mutex`), every `LockGuard` acquisition with the
// guards held at that point, `GA_REQUIRES` entry capabilities, and the
// hierarchy declared through `GA_ACQUIRED_BEFORE` / `GA_ACQUIRED_AFTER`
// (util/thread_annotations.hpp). Call sites made while holding a lock
// propagate through a may-acquire fixpoint (matched by function name), so
// an acquisition buried one call deep still produces an ordering edge.
// Checks:
//
//   lock-cycle       a cycle in the declared + observed acquisition graph
//                    (the global deadlock check Clang TSA does not do), or
//                    a guard re-acquiring a mutex already held
//   lock-order       observed acquisition order contradicts the declared
//                    GA_ACQUIRED_BEFORE/AFTER hierarchy
//   lock-undeclared  observed cross-mutex acquisition not covered by the
//                    declared hierarchy (every real nesting must be
//                    declared, so the hierarchy stays the single source
//                    of truth)
//   lock-unresolved  a LockGuard argument or hierarchy annotation naming
//                    no known mutex (typo surface)
//
// Known approximation: call edges are matched by unqualified function
// name, so a self-edge reached through a call (e.g. `holding.charge(...)`
// under the ledger lock colliding with `Ledger::charge`) is ignored —
// only a literally nested guard on the same mutex reports self-deadlock.
//
// Findings print clang-style; `--allowlist FILE` suppresses documented
// exceptions ("<rule> <path-suffix>" lines, '#' comments), and `--sarif
// FILE` additionally writes SARIF 2.1.0 for GitHub code scanning.
// `--self-test DIR` runs the seeded fixture trees, each with layers.txt,
// src/ and an expect.txt that names the rule of every expected finding
// (a rule found twice is named twice; `clean` expects none). Exit codes:
// 0 clean, 1 findings, 2 usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "source_text.hpp"

namespace {

namespace fs = std::filesystem;
using ga::tools::ends_with;
using ga::tools::read_file;
using ga::tools::strip_comments_and_strings;

struct Finding {
    std::string path;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

bool finding_less(const Finding& a, const Finding& b) {
    return std::tie(a.path, a.line, a.rule, a.message) <
           std::tie(b.path, b.line, b.rule, b.message);
}

const std::map<std::string, std::string>& rule_descriptions() {
    static const std::map<std::string, std::string> kRules = {
        {"banned-rng", "unseeded or non-reproducible RNG"},
        {"obs-wallclock-outside-obs", "wall-clock read outside the obs module"},
        {"unordered-io", "unordered container in the serialization layer"},
        {"naked-mutex", "raw standard-library lock"},
        {"include-cycle", "cycle in the file-level include graph"},
        {"upward-include", "include of a same- or higher-layer module"},
        {"undeclared-dep", "module dependency not declared in ga-layers.txt"},
        {"unused-dep", "declared module dependency with no include edge"},
        {"undeclared-module", "module on disk missing from ga-layers.txt"},
        {"stale-module", "ga-layers.txt entry with no files on disk"},
        {"layer-order", "declared dependency not at a strictly lower layer"},
        {"missing-guard", "header without #pragma once"},
        {"relative-include", "include not rooted at src/"},
        {"lock-cycle", "potential deadlock: cycle in the lock-order graph"},
        {"lock-order", "acquisition contradicts the declared lock hierarchy"},
        {"lock-undeclared",
         "cross-mutex acquisition not covered by the declared hierarchy"},
        {"lock-unresolved", "lock expression names no known mutex"},
        {"doc-drift", "committed diagram differs from the regenerated graph"},
    };
    return kRules;
}

// ------------------------------------------------------------ layer table

struct LayerEntry {
    std::string name;
    int layer = 0;
    std::vector<std::string> deps;
    std::size_t line = 0;
};

struct LayerTable {
    std::string path;  // for finding locations
    std::vector<LayerEntry> entries;

    const LayerEntry* find(std::string_view module) const {
        for (const LayerEntry& e : entries) {
            if (e.name == module) return &e;
        }
        return nullptr;
    }
};

/// Parses "module <name> <layer> [dep...]" lines; '#' starts a comment.
LayerTable load_layers(const fs::path& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("ga-analyze: cannot read layer table " +
                                 path.string());
    }
    LayerTable table;
    table.path = path.generic_string();
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        std::istringstream fields(line);
        std::string keyword;
        if (!(fields >> keyword)) continue;
        if (keyword != "module") {
            throw std::runtime_error("ga-analyze: " + table.path + ":" +
                                     std::to_string(lineno) +
                                     ": expected 'module', got '" + keyword +
                                     "'");
        }
        LayerEntry entry;
        entry.line = lineno;
        if (!(fields >> entry.name >> entry.layer)) {
            throw std::runtime_error("ga-analyze: " + table.path + ":" +
                                     std::to_string(lineno) +
                                     ": expected 'module <name> <layer>'");
        }
        std::string dep;
        while (fields >> dep) entry.deps.push_back(dep);
        table.entries.push_back(std::move(entry));
    }
    return table;
}

// ---------------------------------------------------------------- sources

struct SourceFile {
    std::string rel;     // generic path relative to the scan root
    std::string module;  // first directory under src/, or "tools"
    bool header = false;
    std::string raw;      // include targets are string literals, so the
                          // directive scan needs the unstripped text
    std::string stripped;
    /// Resolved project includes: (target rel path, line, root_resolved).
    struct Include {
        std::string target;
        std::size_t line = 0;
        bool root_resolved = false;  // found from the src/ root
    };
    std::vector<Include> includes;
};

bool scannable(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

/// Loads the tree under `root`: src/ recursively, tools/ top-level only
/// (fixture directories under tools/ are not part of the tools module).
std::map<std::string, SourceFile> load_tree(const fs::path& root) {
    std::map<std::string, SourceFile> files;
    const fs::path src = root / "src";
    const auto add = [&](const fs::path& p, const std::string& module) {
        SourceFile f;
        f.rel = fs::relative(p, root).generic_string();
        f.module = module;
        f.header = p.extension() != ".cpp" && p.extension() != ".cc";
        f.raw = read_file(p, "ga-analyze");
        f.stripped = strip_comments_and_strings(f.raw);
        files.emplace(f.rel, std::move(f));
    };
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
        if (!entry.is_regular_file() || !scannable(entry.path())) continue;
        const std::string rel =
            fs::relative(entry.path(), src).generic_string();
        const auto slash = rel.find('/');
        const std::string module =
            slash == std::string::npos ? std::string("src") : rel.substr(0, slash);
        add(entry.path(), module);
    }
    const fs::path tools = root / "tools";
    if (fs::is_directory(tools)) {
        for (const auto& entry : fs::directory_iterator(tools)) {
            if (entry.is_regular_file() && scannable(entry.path())) {
                add(entry.path(), "tools");
            }
        }
    }
    return files;
}

/// Resolves `#include "..."` directives against the loaded tree and flags
/// relative-include hygiene violations.
void resolve_includes(std::map<std::string, SourceFile>& files,
                      std::vector<Finding>& findings) {
    static const std::regex kInclude(
        R"rx(^[ \t]*#[ \t]*include[ \t]*"([^"]+)")rx");
    for (auto& [rel, file] : files) {
        // The raw text: stripping blanks the quoted target. The ^#
        // anchor keeps commented-out directives from matching.
        std::istringstream lines(file.raw);
        std::string line;
        std::size_t lineno = 0;
        while (std::getline(lines, line)) {
            ++lineno;
            std::smatch m;
            if (!std::regex_search(line, m, kInclude)) continue;
            const std::string target = m[1].str();
            if (target.find("..") != std::string::npos) {
                findings.push_back({rel, lineno, "relative-include",
                                    "include \"" + target +
                                        "\" escapes its directory; include "
                                        "as \"module/name.hpp\" from src/"});
                continue;
            }
            const std::string from_root = "src/" + target;
            if (files.count(from_root) != 0) {
                file.includes.push_back({from_root, lineno, true});
                continue;
            }
            // Sibling resolution (tools/ front-ends include their shared
            // header this way; under src/ it is a hygiene violation).
            const auto dir = rel.rfind('/');
            const std::string sibling =
                dir == std::string::npos ? target : rel.substr(0, dir + 1) + target;
            if (files.count(sibling) != 0) {
                file.includes.push_back({sibling, lineno, false});
                if (file.module != "tools") {
                    findings.push_back(
                        {rel, lineno, "relative-include",
                         "include \"" + target +
                             "\" resolves only relative to this file; "
                             "include as \"" +
                             sibling.substr(4) + "\" from src/"});
                }
            }
            // Unresolved quoted includes (system or generated) are ignored.
        }
    }
}

// --------------------------------------------------------- per-file rules

struct FileRule {
    std::string name;
    std::regex pattern;
    /// The rule applies only to paths containing this (empty: every path).
    std::string path_fragment;
    /// Paths ending in any of these are exempt (the rule's own
    /// implementation home).
    std::vector<std::string> builtin_exempt;
    std::string message;
};

const std::vector<FileRule>& file_rules() {
    // What may precede a banned name: a line start, `std::`, a `::` that
    // does not follow a name, or any character but a name character, `:`,
    // a member access's `.` or the `>` of `->`. A member declaration
    // (`int rand();`) still matches; a regex cannot tell it from a call.
    static const std::string kCall =
        R"((^|std\s*::\s*|(^|[^:\w])::\s*|[^:\w.>]|(^|[^-])>))";
    static const std::vector<FileRule> kRules = {
        {"banned-rng",
         std::regex(kCall + R"((rand|srand)\s*\(|)" + kCall +
                    R"((random_device|mt19937(_64)?|default_random_engine|minstd_rand0?|knuth_b|ranlux\w+)\b)"),
         "",
         {"util/rng.hpp", "util/rng.cpp"},
         "unseeded/non-reproducible RNG; use the seeded ga::util::Rng"},
        {"obs-wallclock-outside-obs",
         std::regex(kCall + R"(time\s*\(\s*(nullptr|NULL|0)\s*\)|system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime|\blocaltime\b|\bgmtime\b)"),
         "",
         {"obs/walltime.hpp"},
         "wall-clock read outside the obs module; route diagnostic timing "
         "through ga::obs::WallTimer (obs/walltime.hpp)"},
        {"unordered-io",
         std::regex(R"(unordered_(map|set|multimap|multiset))"),
         "/io/",
         {},
         "unordered container in the serialization layer; hash-order output "
         "breaks byte-identical results"},
        {"naked-mutex",
         std::regex(R"(std\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|condition_variable(_any)?)\b)"),
         "",
         {"util/thread_annotations.hpp"},
         "raw standard-library lock; use the annotated ga::util::Mutex / "
         "LockGuard / CondVar (util/thread_annotations.hpp)"},
    };
    return kRules;
}

void check_file(const std::string& path, const std::string& stripped,
                std::vector<Finding>& findings) {
    // A fragment such as "/io/" also matches a path that starts with its
    // directory ("io/x.cpp").
    const std::string rooted = path.starts_with('/') ? path : "/" + path;
    for (const FileRule& rule : file_rules()) {
        if (rooted.find(rule.path_fragment) == std::string::npos) continue;
        if (std::any_of(rule.builtin_exempt.begin(), rule.builtin_exempt.end(),
                        [&](const std::string& suffix) {
                            return ends_with(path, suffix);
                        })) {
            continue;
        }
        // Line by line, so findings carry line numbers.
        std::istringstream lines(stripped);
        std::string line;
        for (std::size_t lineno = 1; std::getline(lines, line); ++lineno) {
            if (std::regex_search(line, rule.pattern)) {
                findings.push_back({path, lineno, rule.name, rule.message});
            }
        }
    }
}

/// The per-file rules over `path` (a file, or every C++ file under a
/// directory); returns the number of files read.
std::size_t check_files(const fs::path& path, std::vector<Finding>& findings) {
    std::vector<fs::path> files;
    if (fs::is_directory(path)) {
        for (const auto& entry : fs::recursive_directory_iterator(path)) {
            if (entry.is_regular_file() && scannable(entry.path())) {
                files.push_back(entry.path());
            }
        }
    } else if (fs::is_regular_file(path)) {
        files.push_back(path);
    } else {
        throw std::runtime_error("ga-analyze: no such file or directory: " +
                                 path.string());
    }
    for (const fs::path& file : files) {
        check_file(file.generic_string(),
                   strip_comments_and_strings(read_file(file, "ga-analyze")),
                   findings);
    }
    return files.size();
}

// --------------------------------------------------- include-graph checks

void check_include_cycles(const std::map<std::string, SourceFile>& files,
                          std::vector<Finding>& findings) {
    // Iterative DFS, colors: 0 white, 1 grey, 2 black.
    std::map<std::string, int> color;
    std::set<std::string> reported;
    for (const auto& [rel, file] : files) color[rel] = 0;
    for (const auto& [start, sf] : files) {
        if (color[start] != 0) continue;
        std::vector<std::pair<std::string, std::size_t>> stack{{start, 0}};
        while (!stack.empty()) {
            auto& [node, next] = stack.back();
            const SourceFile& f = files.at(node);
            if (next == 0) color[node] = 1;
            if (next < f.includes.size()) {
                const auto& inc = f.includes[next++];
                if (color[inc.target] == 1) {
                    // Back edge: walk the stack to print the cycle.
                    std::string cycle = inc.target;
                    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                        cycle = it->first + " -> " + cycle;
                        if (it->first == inc.target) break;
                    }
                    if (reported.insert(cycle).second) {
                        findings.push_back({node, inc.line, "include-cycle",
                                            "include cycle: " + cycle});
                    }
                } else if (color[inc.target] == 0) {
                    stack.emplace_back(inc.target, 0);
                }
            } else {
                color[node] = 2;
                stack.pop_back();
            }
        }
    }
}

void check_layering(const std::map<std::string, SourceFile>& files,
                    const LayerTable& table, std::vector<Finding>& findings) {
    // Table self-consistency first.
    std::set<std::string> on_disk;
    for (const auto& [rel, f] : files) on_disk.insert(f.module);
    for (const LayerEntry& e : table.entries) {
        if (on_disk.count(e.name) == 0) {
            findings.push_back({table.path, e.line, "stale-module",
                                "declared module '" + e.name +
                                    "' has no files on disk"});
        }
        for (const std::string& dep : e.deps) {
            const LayerEntry* d = table.find(dep);
            if (d == nullptr) {
                findings.push_back({table.path, e.line, "undeclared-module",
                                    "dependency '" + dep +
                                        "' of module '" + e.name +
                                        "' is not declared"});
            } else if (d->layer >= e.layer) {
                findings.push_back(
                    {table.path, e.line, "layer-order",
                     "declared dependency '" + dep + "' (layer " +
                         std::to_string(d->layer) + ") is not strictly below "
                         "module '" + e.name + "' (layer " +
                         std::to_string(e.layer) + ")"});
            }
        }
    }
    std::set<std::string> missing_reported;
    for (const std::string& m : on_disk) {
        if (table.find(m) == nullptr) {
            findings.push_back({table.path, 0, "undeclared-module",
                                "module '" + m +
                                    "' on disk is not declared in the "
                                    "layer table"});
            missing_reported.insert(m);
        }
    }
    // Actual module edges (every include site, so fixes are clickable).
    std::set<std::pair<std::string, std::string>> actual;
    for (const auto& [rel, f] : files) {
        const LayerEntry* self = table.find(f.module);
        for (const auto& inc : f.includes) {
            const std::string& to = files.at(inc.target).module;
            if (to == f.module) continue;
            actual.emplace(f.module, to);
            if (self == nullptr || missing_reported.count(to) != 0) continue;
            const LayerEntry* dep = table.find(to);
            const bool declared =
                std::find(self->deps.begin(), self->deps.end(), to) !=
                self->deps.end();
            if (declared && dep != nullptr && dep->layer < self->layer) {
                continue;
            }
            if (dep != nullptr && dep->layer >= self->layer) {
                findings.push_back(
                    {rel, inc.line, "upward-include",
                     "module '" + f.module + "' (layer " +
                         std::to_string(self->layer) + ") includes '" + to +
                         "' (layer " + std::to_string(dep->layer) +
                         "): dependencies must point strictly down"});
            } else if (!declared) {
                findings.push_back(
                    {rel, inc.line, "undeclared-dep",
                     "module '" + f.module + "' includes '" + to +
                         "' but ga-layers.txt does not declare that "
                         "dependency"});
            }
        }
    }
    for (const LayerEntry& e : table.entries) {
        for (const std::string& dep : e.deps) {
            if (actual.count({e.name, dep}) == 0) {
                findings.push_back({table.path, e.line, "unused-dep",
                                    "module '" + e.name + "' declares '" +
                                        dep +
                                        "' but no include edge exists"});
            }
        }
    }
}

// -------------------------------------------------- header hygiene checks

/// Line number of the first match of `needle` in stripped text (1-based),
/// or 0 when absent.
std::size_t line_of(const std::string& text, std::size_t pos) {
    return 1 + static_cast<std::size_t>(
                   std::count(text.begin(), text.begin() + static_cast<long>(pos), '\n'));
}

void check_headers(const std::map<std::string, SourceFile>& files,
                   std::vector<Finding>& findings) {
    // std::regex '^' only anchors the whole string, so the pragma test
    // runs per line.
    static const std::regex kPragmaOnce(R"([ \t]*#[ \t]*pragma[ \t]+once[ \t]*)");
    for (const auto& [rel, f] : files) {
        if (!f.header) continue;
        bool has_pragma = false;
        std::istringstream lines(f.stripped);
        std::string line;
        while (!has_pragma && std::getline(lines, line)) {
            has_pragma = std::regex_match(line, kPragmaOnce);
        }
        if (!has_pragma) {
            findings.push_back({rel, 1, "missing-guard",
                                "header is missing #pragma once"});
        }
    }
}

// ------------------------------------------------------ lock-order graph
//
// A hand-rolled scope scanner over stripped source: tracks namespace /
// class / function scopes by brace depth, records mutex declarations,
// LockGuard acquisitions (with the guards held at that point), call sites
// made under a guard, and the declared GA_ACQUIRED_BEFORE/AFTER edges.

struct ScopeCtx {
    std::vector<std::string> namespaces;
    std::vector<std::string> classes;
    std::string fn_qualifier;  // "Ledger" in `void Ledger::charge(...)`
    std::string fn_id;         // fully qualified enclosing function
};

struct MutexRef {
    std::string text;  // as written, normalized
    ScopeCtx ctx;
};

struct GuardEvent {
    MutexRef mutex;
    std::string file;
    std::size_t line = 0;
    std::vector<std::size_t> held;  // indices into the global event list
    bool synthetic = false;         // GA_REQUIRES entry capability
};

struct CallEvent {
    std::string fn_id;
    std::string callee;
    std::string file;
    std::size_t line = 0;
    std::vector<std::size_t> held;
};

struct DeclaredEdgeText {
    MutexRef from;  // resolved-later references
    MutexRef to;
    std::string file;
    std::size_t line = 0;
};

struct LockModel {
    std::set<std::string> mutexes;  // qualified mutex ids
    std::vector<GuardEvent> guards;
    std::vector<CallEvent> calls;
    std::vector<DeclaredEdgeText> declared;
    std::map<std::string, std::set<std::size_t>> fn_guards;  // fn -> events
    std::map<std::string, std::set<std::string>> fn_calls;   // fn -> callees
    std::map<std::string, std::set<std::string>> name_to_fns;
    /// GA_REQUIRES arguments recorded at in-class declarations, keyed by
    /// qualified function name; looked up when the out-of-class definition
    /// opens (a separate file, hence a model-level map filled by a first
    /// collection pass).
    std::map<std::string, std::set<std::string>> requires_decls;
};

std::string join_scope(const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& p : parts) {
        if (p.empty()) continue;
        if (!out.empty()) out += "::";
        out += p;
    }
    return out;
}

const std::set<std::string>& call_keywords() {
    static const std::set<std::string> kKeywords = {
        "if",       "for",    "while",    "switch", "catch",   "return",
        "sizeof",   "decltype", "static", "noexcept", "alignof", "void",
        "bool",     "int",    "char",     "double", "float",   "auto",
        "unsigned", "long",   "short",    "new",    "delete",  "throw"};
    return kKeywords;
}

/// One file's contribution to the lock model. The collect-only pass just
/// records in-class GA_REQUIRES declarations; the full pass (which needs
/// them, possibly across files) builds the events.
class LockScanner {
public:
    LockScanner(const SourceFile& file, LockModel& model, bool collect_only)
        : file_(file), model_(model), collect_(collect_only) {}

    void run() {
        // Preprocessor lines have no statement terminator and would
        // pollute the head buffer (a leading `#include` block breaks the
        // `namespace ga::x {` recognition), so blank them first.
        std::string text = file_.stripped;
        for (std::size_t at = 0; at < text.size();) {
            const std::size_t eol = text.find('\n', at);
            const std::size_t end = eol == std::string::npos ? text.size() : eol;
            std::size_t first = at;
            while (first < end &&
                   std::isspace(static_cast<unsigned char>(text[first]))) {
                ++first;
            }
            if (first < end && text[first] == '#') {
                for (std::size_t i = at; i < end; ++i) text[i] = ' ';
            }
            at = end + 1;
        }
        std::string buf;
        std::size_t buf_line = 1, line = 1;
        for (std::size_t i = 0; i < text.size(); ++i) {
            const char c = text[i];
            if (c == '\n') ++line;
            if (c == '{') {
                open_scope(buf, buf_line);
                buf.clear();
                buf_line = line;
                ++depth_;
            } else if (c == '}') {
                --depth_;
                close_scopes();
                buf.clear();
                buf_line = line;
            } else if (c == ';') {
                statement(buf, buf_line);
                buf.clear();
                buf_line = line;
            } else {
                if (buf.empty() && !std::isspace(static_cast<unsigned char>(c))) {
                    buf_line = line;
                }
                buf += c;
            }
        }
    }

private:
    struct Scope {
        enum class Kind { Namespace, Class, Function, Other } kind;
        std::string name;
        int depth;
    };
    struct ActiveGuard {
        std::size_t event;  // index into model_.guards
        int depth;
    };

    ScopeCtx context() const {
        ScopeCtx ctx;
        for (const Scope& s : scopes_) {
            if (s.kind == Scope::Kind::Namespace) ctx.namespaces.push_back(s.name);
            if (s.kind == Scope::Kind::Class) ctx.classes.push_back(s.name);
        }
        ctx.fn_qualifier = fn_qualifier_;
        ctx.fn_id = fn_id_;
        return ctx;
    }

    const Scope* innermost_fn() const {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            if (it->kind == Scope::Kind::Function) return &*it;
            if (it->kind != Scope::Kind::Other) return nullptr;
        }
        return nullptr;
    }

    void open_scope(const std::string& raw_buf, std::size_t buf_line) {
        static const std::regex kNamespace(R"(^\s*(?:inline\s+)?namespace\b\s*([\w:]*)\s*$)");
        static const std::regex kClass(
            R"((?:class|struct)\s+(?:GA_\w+\s*(?:\([^)]*\)\s*)?)*(\w+)\s*(?:final\b)?\s*(?::[^;{]*)?$)");
        std::string buf = raw_buf;
        while (!buf.empty() &&
               std::isspace(static_cast<unsigned char>(buf.back()))) {
            buf.pop_back();
        }
        // A head after a stripped comment block starts with thousands of
        // blanks, which only deepen std::regex's recursion (it overflowed
        // the stack of a sanitizer build on this file's own header).
        buf.erase(0, buf.find_first_not_of(" \t\n\r\f\v"));
        std::smatch m;
        // Inside a function every brace is a plain block (or a lambda).
        if (innermost_fn() != nullptr) {
            scopes_.push_back({Scope::Kind::Other, "", depth_});
            return;
        }
        if (std::regex_search(buf, m, kNamespace)) {
            scopes_.push_back({Scope::Kind::Namespace, m[1].str(), depth_});
            return;
        }
        if (std::regex_search(buf, m, kClass) &&
            buf.find('(') == std::string::npos) {
            scopes_.push_back({Scope::Kind::Class, m[1].str(), depth_});
            return;
        }
        std::string qualifier, name;
        if (!buf.empty() && buf.back() != '=' && buf.back() != ',' &&
            function_name(buf, qualifier, name)) {
            scopes_.push_back({Scope::Kind::Function, name, depth_});
            fn_qualifier_ = qualifier;
            ScopeCtx ctx = context();
            std::vector<std::string> parts = ctx.namespaces;
            for (const std::string& cl : ctx.classes) parts.push_back(cl);
            if (!qualifier.empty()) parts.push_back(qualifier);
            parts.push_back(name);
            fn_id_ = join_scope(parts);
            if (collect_) return;
            model_.name_to_fns[name].insert(fn_id_);
            // GA_REQUIRES on the definition (or recorded from a matching
            // in-class declaration) opens entry capabilities, live for the
            // function body (depth_ + 1).
            std::set<std::string> entry = requires_args(buf);
            if (const auto it = model_.requires_decls.find(fn_id_);
                it != model_.requires_decls.end()) {
                entry.insert(it->second.begin(), it->second.end());
            }
            for (const std::string& arg : entry) {
                GuardEvent e;
                e.mutex = {arg, context()};
                e.file = file_.rel;
                e.line = buf_line;
                e.synthetic = true;
                push_guard(std::move(e), depth_ + 1);
            }
            return;
        }
        scopes_.push_back({Scope::Kind::Other, "", depth_});
    }

    void close_scopes() {
        while (!active_.empty() && active_.back().depth > depth_) {
            active_.pop_back();
        }
        while (!scopes_.empty() && scopes_.back().depth >= depth_) {
            scopes_.pop_back();
        }
        if (innermost_fn() == nullptr) {
            fn_id_.clear();
            fn_qualifier_.clear();
        }
    }

    /// Extracts the name of the function a `... name(args) quals {` head
    /// introduces; false when the head is not a function.
    static bool function_name(const std::string& buf, std::string& qualifier,
                              std::string& name) {
        static const std::regex kCandidate(R"(([A-Za-z_]\w*)\s*\()");
        auto begin = std::sregex_iterator(buf.begin(), buf.end(), kCandidate);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::string candidate = (*it)[1].str();
            if (call_keywords().count(candidate) != 0) continue;
            if (candidate.rfind("GA_", 0) == 0) continue;
            // Walk back over a `Qual::` chain.
            qualifier.clear();
            auto pos = static_cast<std::size_t>(it->position());
            while (pos >= 2 && buf.compare(pos - 2, 2, "::") == 0) {
                std::size_t j = pos - 2;
                while (j > 0 &&
                       (std::isalnum(static_cast<unsigned char>(buf[j - 1])) ||
                        buf[j - 1] == '_')) {
                    --j;
                }
                const std::string part = buf.substr(j, pos - 2 - j);
                qualifier = qualifier.empty() ? part : part + "::" + qualifier;
                pos = j;
            }
            name = candidate;
            return true;
        }
        return false;
    }

    static std::set<std::string> requires_args(const std::string& buf) {
        static const std::regex kRequires(R"(GA_REQUIRES\s*\(([^)]*)\))");
        std::set<std::string> out;
        auto begin = std::sregex_iterator(buf.begin(), buf.end(), kRequires);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            std::istringstream args((*it)[1].str());
            std::string arg;
            while (std::getline(args, arg, ',')) {
                out.insert(normalize(arg));
            }
        }
        return out;
    }

    static std::string normalize(std::string text) {
        std::string out;
        for (char c : text) {
            if (!std::isspace(static_cast<unsigned char>(c))) out += c;
        }
        if (out.rfind("this->", 0) == 0) out.erase(0, 6);
        return out;
    }

    void push_guard(GuardEvent event, int at_depth) {
        for (const ActiveGuard& g : active_) event.held.push_back(g.event);
        model_.guards.push_back(std::move(event));
        const std::size_t idx = model_.guards.size() - 1;
        if (!fn_id_.empty()) model_.fn_guards[fn_id_].insert(idx);
        active_.push_back({idx, at_depth});
    }

    void statement(const std::string& buf, std::size_t buf_line) {
        static const std::regex kMutexDecl(
            R"((?:^|[\s(,])(?:ga::util::)?Mutex\s+(\w+))");
        static const std::regex kGuardDecl(
            R"((?:ga::util::)?LockGuard\s+\w+\s*[({]\s*([^)}]*)[)}])");
        static const std::regex kOrder(
            R"(GA_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\))");
        static const std::regex kCall(R"(([A-Za-z_]\w*)\s*\()");
        static const std::regex kFnDecl(R"(([A-Za-z_]\w*)\s*\([^()]*\)[^()]*$)");
        std::smatch m;
        std::string rest = buf;

        // In-class method declarations carrying GA_REQUIRES: remember the
        // entry capability for the out-of-class definition (first pass).
        if (collect_) {
            if (innermost_fn() == nullptr && !scopes_.empty() &&
                scopes_.back().kind == Scope::Kind::Class &&
                buf.find("GA_REQUIRES") != std::string::npos) {
                const std::string head = buf.substr(0, buf.find("GA_REQUIRES"));
                std::string qualifier, name;
                if (function_name(head, qualifier, name)) {
                    ScopeCtx ctx = context();
                    std::vector<std::string> parts = ctx.namespaces;
                    for (const std::string& cl : ctx.classes) {
                        parts.push_back(cl);
                    }
                    parts.push_back(name);
                    const auto args = requires_args(buf);
                    model_.requires_decls[join_scope(parts)].insert(
                        args.begin(), args.end());
                }
            }
            return;
        }

        // Member / local mutex declarations (with optional hierarchy).
        if (std::regex_search(buf, m, kMutexDecl)) {
            const std::string name = m[1].str();
            ScopeCtx ctx = context();
            std::vector<std::string> parts = ctx.namespaces;
            if (!fn_id_.empty()) {
                parts = {fn_id_};
            } else {
                for (const std::string& cl : ctx.classes) parts.push_back(cl);
            }
            parts.push_back(name);
            model_.mutexes.insert(join_scope(parts));
            auto begin = std::sregex_iterator(buf.begin(), buf.end(), kOrder);
            for (auto it = begin; it != std::sregex_iterator(); ++it) {
                const bool before = (*it)[1].str() == "BEFORE";
                std::istringstream args((*it)[2].str());
                std::string arg;
                while (std::getline(args, arg, ',')) {
                    DeclaredEdgeText edge;
                    const MutexRef self{name, ctx};
                    const MutexRef other{normalize(arg), ctx};
                    edge.from = before ? self : other;
                    edge.to = before ? other : self;
                    edge.file = file_.rel;
                    edge.line = buf_line;
                    model_.declared.push_back(std::move(edge));
                }
            }
            return;
        }

        if (innermost_fn() == nullptr) return;

        // Guard acquisitions.
        if (std::regex_search(buf, m, kGuardDecl)) {
            GuardEvent e;
            e.mutex = {normalize(m[1].str()), context()};
            e.file = file_.rel;
            e.line = buf_line;
            push_guard(std::move(e), depth_);
            rest = m.prefix().str() + m.suffix().str();
        }

        // Call sites (for the may-acquire propagation).
        auto begin = std::sregex_iterator(rest.begin(), rest.end(), kCall);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::string callee = (*it)[1].str();
            if (call_keywords().count(callee) != 0) continue;
            if (callee.rfind("GA_", 0) == 0) continue;
            model_.fn_calls[fn_id_].insert(callee);
            if (!active_.empty()) {
                CallEvent call;
                call.fn_id = fn_id_;
                call.callee = callee;
                call.file = file_.rel;
                call.line =
                    buf_line +
                    static_cast<std::size_t>(std::count(
                        rest.begin(),
                        rest.begin() + static_cast<long>(it->position()), '\n'));
                for (const ActiveGuard& g : active_) {
                    call.held.push_back(g.event);
                }
                model_.calls.push_back(std::move(call));
            }
        }
    }

    const SourceFile& file_;
    LockModel& model_;
    bool collect_;
    std::vector<Scope> scopes_;
    std::vector<ActiveGuard> active_;
    std::string fn_id_;
    std::string fn_qualifier_;
    int depth_ = 0;
};

/// Resolves a textual mutex reference to a known mutex id. Empty when
/// unknown.
std::string resolve_mutex(const LockModel& model, const MutexRef& ref) {
    const std::string text = ref.text;
    if (text.empty()) return {};
    if (text.find("::") != std::string::npos) {
        // Qualified: unique suffix match.
        std::string match;
        for (const std::string& id : model.mutexes) {
            if (id == text || ends_with(id, "::" + text)) {
                if (!match.empty()) return {};
                match = id;
            }
        }
        return match;
    }
    // Plain identifier: enclosing function locals first.
    if (!ref.ctx.fn_id.empty()) {
        const std::string local = ref.ctx.fn_id + "::" + text;
        if (model.mutexes.count(local) != 0) return local;
    }
    // Then members of the enclosing class (explicit scope or the
    // `Class::method` qualifier of an out-of-class definition).
    std::vector<std::string> parts = ref.ctx.namespaces;
    for (const std::string& cl : ref.ctx.classes) parts.push_back(cl);
    if (!ref.ctx.fn_qualifier.empty()) parts.push_back(ref.ctx.fn_qualifier);
    while (true) {
        std::vector<std::string> candidate = parts;
        candidate.push_back(text);
        const std::string id = join_scope(candidate);
        if (model.mutexes.count(id) != 0) return id;
        if (parts.empty()) break;
        parts.pop_back();
    }
    return {};
}

struct LockEdge {
    std::string file;
    std::size_t line = 0;
    std::string via;  // non-empty when reached through a call
};

void check_locks(const std::map<std::string, SourceFile>& files,
                 std::vector<Finding>& findings) {
    LockModel model;
    for (const bool collect_only : {true, false}) {
        for (const auto& [rel, f] : files) {
            // The annotated wrapper itself implements the primitives; its
            // internal lock()/unlock() forwarding is not subject to ordering.
            if (ends_with(rel, "util/thread_annotations.hpp")) continue;
            LockScanner(f, model, collect_only).run();
        }
    }

    // Resolve guard events.
    std::vector<std::string> resolved(model.guards.size());
    for (std::size_t i = 0; i < model.guards.size(); ++i) {
        const GuardEvent& g = model.guards[i];
        resolved[i] = resolve_mutex(model, g.mutex);
        if (resolved[i].empty() && !g.synthetic) {
            findings.push_back({g.file, g.line, "lock-unresolved",
                                "LockGuard argument '" + g.mutex.text +
                                    "' names no known mutex"});
        }
    }

    // Direct (literally nested) acquisition edges.
    std::map<std::pair<std::string, std::string>, LockEdge> observed;
    for (std::size_t i = 0; i < model.guards.size(); ++i) {
        const GuardEvent& g = model.guards[i];
        if (resolved[i].empty()) continue;
        for (const std::size_t h : g.held) {
            const std::string& held = resolved[h];
            if (held.empty()) continue;
            if (held == resolved[i]) {
                findings.push_back(
                    {g.file, g.line, "lock-cycle",
                     "re-acquires '" + held +
                         "' while already holding it (self-deadlock)"});
                continue;
            }
            observed.emplace(std::make_pair(held, resolved[i]),
                             LockEdge{g.file, g.line, ""});
        }
    }

    // May-acquire fixpoint over the call graph (matched by name).
    std::map<std::string, std::set<std::string>> may_acquire;
    for (const auto& [fn, events] : model.fn_guards) {
        for (const std::size_t idx : events) {
            if (!resolved[idx].empty() && !model.guards[idx].synthetic) {
                may_acquire[fn].insert(resolved[idx]);
            }
        }
    }
    for (bool changed = true; changed;) {
        changed = false;
        for (const auto& [fn, callees] : model.fn_calls) {
            auto& mine = may_acquire[fn];
            const std::size_t before = mine.size();
            for (const std::string& callee : callees) {
                const auto targets = model.name_to_fns.find(callee);
                if (targets == model.name_to_fns.end()) continue;
                for (const std::string& target : targets->second) {
                    const auto theirs = may_acquire.find(target);
                    if (theirs == may_acquire.end()) continue;
                    mine.insert(theirs->second.begin(), theirs->second.end());
                }
            }
            if (mine.size() != before) changed = true;
        }
    }
    for (const CallEvent& call : model.calls) {
        const auto targets = model.name_to_fns.find(call.callee);
        if (targets == model.name_to_fns.end()) continue;
        std::set<std::string> acquired;
        for (const std::string& target : targets->second) {
            const auto it = may_acquire.find(target);
            if (it != may_acquire.end()) {
                acquired.insert(it->second.begin(), it->second.end());
            }
        }
        for (const std::size_t h : call.held) {
            const std::string& held = resolved[h];
            if (held.empty()) continue;
            for (const std::string& a : acquired) {
                // Name-collision guard: self-edges through calls are the
                // coarse-matching artifact, not evidence (see file header).
                if (a == held) continue;
                observed.emplace(std::make_pair(held, a),
                                 LockEdge{call.file, call.line, call.callee});
            }
        }
    }

    // Declared hierarchy.
    std::map<std::string, std::set<std::string>> declared;
    std::map<std::pair<std::string, std::string>, LockEdge> declared_sites;
    for (const DeclaredEdgeText& d : model.declared) {
        const std::string from = resolve_mutex(model, d.from);
        const std::string to = resolve_mutex(model, d.to);
        for (const auto& [ref, id] :
             {std::make_pair(&d.from, &from), std::make_pair(&d.to, &to)}) {
            if (id->empty()) {
                findings.push_back({d.file, d.line, "lock-unresolved",
                                    "hierarchy annotation '" + ref->text +
                                        "' names no known mutex"});
            }
        }
        if (from.empty() || to.empty()) continue;
        declared[from].insert(to);
        declared_sites.emplace(std::make_pair(from, to),
                               LockEdge{d.file, d.line, ""});
    }

    const auto reachable = [&declared](const std::string& from,
                                       const std::string& to) {
        std::vector<std::string> queue{from};
        std::set<std::string> seen{from};
        while (!queue.empty()) {
            const std::string cur = queue.back();
            queue.pop_back();
            if (cur == to) return true;
            const auto it = declared.find(cur);
            if (it == declared.end()) continue;
            for (const std::string& next : it->second) {
                if (seen.insert(next).second) queue.push_back(next);
            }
        }
        return false;
    };

    // Observed edges against the declared partial order.
    for (const auto& [edge, site] : observed) {
        const auto& [from, to] = edge;
        const std::string how =
            site.via.empty() ? "" : " (via call to '" + site.via + "')";
        if (reachable(to, from)) {
            findings.push_back(
                {site.file, site.line, "lock-order",
                 "acquires '" + to + "' while holding '" + from +
                     "', but the declared hierarchy orders '" + to +
                     "' before '" + from + "'" + how});
        } else if (!reachable(from, to)) {
            findings.push_back(
                {site.file, site.line, "lock-undeclared",
                 "acquires '" + to + "' while holding '" + from +
                     "'; declare the ordering with GA_ACQUIRED_BEFORE/"
                     "GA_ACQUIRED_AFTER" +
                     how});
        }
    }

    // Cycle detection over declared + observed.
    std::map<std::string, std::set<std::string>> combined = declared;
    for (const auto& [edge, site] : observed) {
        combined[edge.first].insert(edge.second);
    }
    std::map<std::string, int> color;
    std::vector<std::string> order;
    for (const auto& [node, next] : combined) order.push_back(node);
    std::set<std::string> reported;
    for (const std::string& start : order) {
        if (color[start] != 0) continue;
        std::vector<std::string> path;
        // Simple recursive-style DFS on an explicit stack.
        std::vector<std::pair<std::string, std::size_t>> dfs{{start, 0}};
        path.push_back(start);
        color[start] = 1;
        while (!dfs.empty()) {
            auto& [node, next] = dfs.back();
            std::vector<std::string> adj(combined[node].begin(),
                                         combined[node].end());
            if (next < adj.size()) {
                const std::string target = adj[next++];
                if (color[target] == 1) {
                    std::string cycle = target;
                    for (auto it = path.rbegin(); it != path.rend(); ++it) {
                        cycle = *it + " -> " + cycle;
                        if (*it == target) break;
                    }
                    if (reported.insert(cycle).second) {
                        const auto site = observed.count({node, target}) != 0
                                              ? observed.at({node, target})
                                              : declared_sites[{node, target}];
                        findings.push_back({site.file, site.line, "lock-cycle",
                                            "lock-order cycle: " + cycle});
                    }
                } else if (color[target] == 0) {
                    color[target] = 1;
                    dfs.emplace_back(target, 0);
                    path.push_back(target);
                }
            } else {
                color[node] = 2;
                dfs.pop_back();
                path.pop_back();
            }
        }
    }
}

// ------------------------------------------------------------- DOT export

std::string dot_export(const LayerTable& table) {
    std::vector<const LayerEntry*> sorted;
    for (const LayerEntry& e : table.entries) sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const LayerEntry* a, const LayerEntry* b) {
                  return std::tie(a->layer, a->name) <
                         std::tie(b->layer, b->name);
              });
    std::ostringstream out;
    out << "digraph ga_modules {\n";
    out << "  // Generated by `ga-analyze --dot -` from tools/ga-layers.txt;\n";
    out << "  // edges point from consumer to dependency, ranks are layers.\n";
    out << "  rankdir=BT;\n";
    out << "  node [shape=box, fontsize=11];\n";
    int current = -1;
    for (const LayerEntry* e : sorted) {
        if (e->layer != current) {
            if (current != -1) out << " }\n";
            out << "  { rank=same;";
            current = e->layer;
        }
        out << " \"" << e->name << "\";";
    }
    if (current != -1) out << " }\n";
    for (const LayerEntry* e : sorted) {
        std::vector<std::string> deps = e->deps;
        std::sort(deps.begin(), deps.end());
        for (const std::string& dep : deps) {
            out << "  \"" << e->name << "\" -> \"" << dep << "\";\n";
        }
    }
    out << "}\n";
    return out.str();
}

void check_doc(const fs::path& doc, const LayerTable& table,
               std::vector<Finding>& findings) {
    const std::string text = read_file(doc, "ga-analyze");
    const std::string open = "```dot\n";
    const auto at = text.find(open);
    if (at == std::string::npos) {
        findings.push_back({doc.generic_string(), 1, "doc-drift",
                            "no ```dot fence found to compare against the "
                            "regenerated module graph"});
        return;
    }
    const auto begin = at + open.size();
    const auto end = text.find("```", begin);
    if (end == std::string::npos) {
        findings.push_back({doc.generic_string(),
                            line_of(text, at), "doc-drift",
                            "unterminated ```dot fence"});
        return;
    }
    if (text.substr(begin, end - begin) != dot_export(table)) {
        findings.push_back(
            {doc.generic_string(), line_of(text, at), "doc-drift",
             "committed module diagram differs from `ga-analyze --dot -`; "
             "regenerate the fence from the tool output"});
    }
}

// ------------------------------------------------------------------ SARIF

std::string json_escape(const std::string& in) {
    std::string out;
    for (const char c : in) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char hex[8];
                    std::snprintf(hex, sizeof hex, "\\u%04x", c);
                    out += hex;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void write_sarif(const fs::path& path, const std::vector<Finding>& findings) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw std::runtime_error("ga-analyze: cannot write " + path.string());
    }
    out << "{\n"
        << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n    {\n"
        << "      \"tool\": {\n        \"driver\": {\n"
        << "          \"name\": \"ga-analyze\",\n"
        << "          \"informationUri\": "
           "\"https://github.com/\",\n"
        << "          \"rules\": [\n";
    bool first = true;
    for (const auto& [rule, description] : rule_descriptions()) {
        out << (first ? "" : ",\n") << "            {\"id\": \""
            << json_escape(rule) << "\", \"shortDescription\": {\"text\": \""
            << json_escape(description) << "\"}}";
        first = false;
    }
    out << "\n          ]\n        }\n      },\n      \"results\": [\n";
    first = true;
    for (const Finding& f : findings) {
        out << (first ? "" : ",\n") << "        {\"ruleId\": \""
            << json_escape(f.rule) << "\", \"level\": \"error\", "
            << "\"message\": {\"text\": \"" << json_escape(f.message)
            << "\"}, \"locations\": [{\"physicalLocation\": "
            << "{\"artifactLocation\": {\"uri\": \"" << json_escape(f.path)
            << "\"}, \"region\": {\"startLine\": "
            << (f.line == 0 ? 1 : f.line) << "}}}]}";
        first = false;
    }
    out << "\n      ]\n    }\n  ]\n}\n";
}

// ------------------------------------------------------------ entry points

struct AllowEntry {
    std::string rule;
    std::string path_suffix;
};

std::vector<AllowEntry> load_allowlist(const fs::path& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("ga-analyze: cannot read allowlist " +
                                 path.string());
    }
    std::vector<AllowEntry> allow;
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        std::istringstream fields(line);
        AllowEntry entry;
        if (!(fields >> entry.rule >> entry.path_suffix)) continue;
        if (rule_descriptions().count(entry.rule) == 0) {
            throw std::runtime_error(
                "ga-analyze: allowlist names unknown rule '" + entry.rule +
                "'");
        }
        allow.push_back(std::move(entry));
    }
    return allow;
}

struct Analysis {
    std::vector<Finding> findings;
    std::size_t files = 0;
};

/// A path holding src/ is a tree and gets every check; any other path gets
/// the per-file rules.
Analysis analyze(const std::vector<fs::path>& paths, const LayerTable& table) {
    Analysis a;
    for (const fs::path& path : paths) {
        if (!fs::is_directory(path / "src")) {
            a.files += check_files(path, a.findings);
            continue;
        }
        if (table.path.empty()) {
            throw std::runtime_error("ga-analyze: " + path.string() +
                                     " holds src/; its graph checks need "
                                     "--layers");
        }
        auto files = load_tree(path);
        a.files += files.size();
        for (const auto& [rel, f] : files) {
            check_file(rel, f.stripped, a.findings);
        }
        resolve_includes(files, a.findings);
        check_include_cycles(files, a.findings);
        check_layering(files, table, a.findings);
        check_headers(files, a.findings);
        check_locks(files, a.findings);
    }
    std::sort(a.findings.begin(), a.findings.end(), finding_less);
    return a;
}

int run_self_test(const fs::path& fixture_dir) {
    std::vector<fs::path> fixtures;
    if (!fs::is_directory(fixture_dir)) {
        std::cerr << "ga-analyze: no fixture directory " << fixture_dir
                  << "\n";
        return 2;
    }
    for (const auto& entry : fs::directory_iterator(fixture_dir)) {
        if (entry.is_directory()) fixtures.push_back(entry.path());
    }
    std::sort(fixtures.begin(), fixtures.end());
    if (fixtures.empty()) {
        std::cerr << "ga-analyze: no fixtures under " << fixture_dir << "\n";
        return 2;
    }
    int failures = 0;
    for (const fs::path& fixture : fixtures) {
        std::istringstream expect_in(
            read_file(fixture / "expect.txt", "ga-analyze"));
        std::multiset<std::string> expected;
        std::string rule;
        while (expect_in >> rule) {
            if (rule != "clean") expected.insert(rule);
        }
        const LayerTable table = load_layers(fixture / "layers.txt");
        const Analysis a = analyze({fixture}, table);
        std::multiset<std::string> got;
        for (const Finding& f : a.findings) got.insert(f.rule);
        const bool ok = got == expected;
        std::cout << (ok ? "PASS " : "FAIL ")
                  << fixture.filename().generic_string() << " (expect:";
        if (expected.empty()) std::cout << " clean";
        for (const std::string& r : expected) std::cout << " " << r;
        std::cout << "; got " << a.findings.size() << " finding(s))\n";
        if (!ok) {
            for (const Finding& f : a.findings) {
                std::cout << "  " << f.path << ":" << f.line << ": ["
                          << f.rule << "] " << f.message << "\n";
            }
            ++failures;
        }
    }
    std::cout << (failures == 0 ? "self-test OK" : "self-test FAILED") << " ("
              << fixtures.size() << " fixtures)\n";
    return failures == 0 ? 0 : 1;
}

int usage() {
    std::cerr
        << "usage: ga-analyze [--layers FILE] [--allowlist FILE] [--sarif FILE]\n"
           "                  [--check-doc FILE] PATH...\n"
           "       ga-analyze --layers FILE --dot (-|FILE)\n"
           "       ga-analyze --self-test FIXTURE_DIR\n"
           "A PATH holding src/ gets every check (--layers required); any\n"
           "other PATH gets the per-file rules over its C++ files.\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        fs::path layers_path, sarif_path, dot_path, doc_path;
        std::vector<fs::path> paths;
        std::vector<AllowEntry> allow;
        bool want_dot = false;
        for (int i = 1; i < argc; ++i) {
            const std::string_view arg = argv[i];
            const auto value = [&]() -> const char* {
                if (++i >= argc) throw std::runtime_error("ga-analyze: missing value for option");
                return argv[i];
            };
            if (arg == "--layers") {
                layers_path = value();
            } else if (arg == "--allowlist") {
                allow = load_allowlist(value());
            } else if (arg == "--sarif") {
                sarif_path = value();
            } else if (arg == "--dot") {
                want_dot = true;
                dot_path = value();
            } else if (arg == "--check-doc") {
                doc_path = value();
            } else if (arg == "--self-test") {
                return run_self_test(value());
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (!arg.empty() && arg[0] == '-') {
                return usage();
            } else {
                paths.emplace_back(arg);
            }
        }
        if (layers_path.empty() && (want_dot || !doc_path.empty())) {
            return usage();
        }
        const LayerTable table =
            layers_path.empty() ? LayerTable{} : load_layers(layers_path);

        if (want_dot) {
            const std::string dot = dot_export(table);
            if (dot_path == "-") {
                std::cout << dot;
            } else {
                std::ofstream out(dot_path, std::ios::binary);
                if (!out) {
                    throw std::runtime_error("ga-analyze: cannot write " +
                                             dot_path.string());
                }
                out << dot;
            }
            if (paths.empty()) return 0;
        }
        if (paths.empty()) return usage();

        Analysis a = analyze(paths, table);
        if (!doc_path.empty()) check_doc(doc_path, table, a.findings);
        std::erase_if(a.findings, [&allow](const Finding& f) {
            return std::any_of(allow.begin(), allow.end(),
                               [&f](const AllowEntry& e) {
                                   return e.rule == f.rule &&
                                          ends_with(f.path, e.path_suffix);
                               });
        });
        if (!sarif_path.empty()) write_sarif(sarif_path, a.findings);
        for (const Finding& f : a.findings) {
            std::cout << f.path << ":" << f.line << ": [" << f.rule << "] "
                      << f.message << "\n";
        }
        std::cout << "ga-analyze: " << a.files << " files, "
                  << table.entries.size() << " modules, " << a.findings.size()
                  << " finding(s)\n";
        return a.findings.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
