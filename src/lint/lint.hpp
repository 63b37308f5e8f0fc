// plos_lint: determinism-invariant static analyzer (DESIGN.md §11, §16).
//
// The determinism contract (§8: bitwise-identical models, journals, and
// byte ledgers at any thread count) and the federated privacy boundary
// (raw rows never cross the network layer) are enforced dynamically by the
// equivalence suites and golden manifests. This analyzer enforces them
// statically: a deterministic C++ token stream (lexer.hpp), a declarative
// layering DAG over every include edge (include_graph.hpp), and
// token-level semantic rule families (rules_semantic.hpp) on top of the
// original line/regex catalog — no libclang — that reject nondeterminism,
// contract-free numeric code, and undeclared module edges before they run.
//
// The rule *catalog* is built in (each RuleKind below is a matching
// strategy); the checked-in `tools/lint_rules.json` instantiates it:
// which rules run (delete a rule to switch it off), over which path
// prefixes, with which banned patterns and exemptions. The layering DAG
// lives in `tools/lint_layers.json`.
// Every in-source exception uses the visible suppression syntax
//
//     // plos-lint: allow(rule-name[, rule-name...])    same or next line
//     // plos-lint: allow-file(rule-name)               whole file
//
// so exceptions show up in diffs and code review.
//
// The engine works on in-memory file sets so tests drive it hermetically
// (tests/test_lint.cpp holds the good/bad fixture corpus); run() walks the
// real tree, and tools/plos_lint.cpp only parses the flags into its
// RunOptions. Findings print as one compiler-style text line each. All
// scanning, ordering, and reporting is
// deterministic (sorted paths, config-ordered rules, sorted findings) —
// including the threaded scan, which merges per-file results in path
// order and is byte-identical at any thread count.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lint/include_graph.hpp"
#include "lint/lexer.hpp"

namespace plos::lint {

/// One rule violation at a source location.
struct Finding {
  std::string rule;
  std::string file;  ///< repo-relative path
  int line = 0;      ///< 1-based
  std::string message;
};

/// Matching strategy a rule uses.
enum class RuleKind {
  kBannedPattern,         ///< any regex in `patterns` hit in scrubbed code
  kFloatEq,               ///< == / != against a nonzero floating literal
  kPragmaOnce,            ///< headers must contain #pragma once
  kIncludeOrder,          ///< own-header first; angle block before quoted
  kUsingNamespaceHeader,  ///< `using namespace` in a header
  kRaceSurface,           ///< unsynchronized shared write in a pool lambda
  kAccumulationOrder,     ///< loop-carried double fold outside linalg::kernels
  kLayering,              ///< include edge not declared in the layering DAG
};

struct Rule {
  std::string name;
  RuleKind kind = RuleKind::kBannedPattern;
  std::string message;
  std::vector<std::string> patterns;     ///< kBannedPattern: ECMAScript regexes
  std::vector<std::string> paths;        ///< apply only under these prefixes (empty = everywhere)
  std::vector<std::string> allow_paths;  ///< exempt these prefixes
};

struct Config {
  std::vector<std::string> roots;       ///< directories to scan, repo-relative
  std::vector<std::string> extensions;  ///< file suffixes to scan
  std::vector<Rule> rules;
  LayerGraph layers;          ///< layering DAG (tools/lint_layers.json)
  bool layers_loaded = false; ///< kLayering rules are skipped until loaded
};

/// Parses `tools/lint_rules.json` text. Returns nullopt (and sets `error`
/// when non-null) on malformed JSON, an unknown rule kind or an unknown
/// rule key.
std::optional<Config> parse_config(std::string_view json_text,
                                   std::string* error = nullptr);

/// Repo-relative path → file contents. Ordered so iteration (and therefore
/// finding order) is deterministic.
using FileSet = std::map<std::string, std::string>;

// strip_comments_and_strings / tokenize live in lint/lexer.hpp (included
// above) — the scrubber is the lexer's first stage.

/// Lints one file. Suppressions already applied; sorted by line.
std::vector<Finding> lint_source(const Config& config, const std::string& path,
                                 std::string_view source);

/// Lints every file in the set; findings sorted by (file, line, rule).
/// `threads` > 1 scans files on a parallel::ThreadPool; results are merged
/// in path order, so the output is byte-identical at any thread count.
std::vector<Finding> lint_files(const Config& config, const FileSet& files,
                                int threads = 1);

/// Reads every file matching config.extensions under config.roots (relative
/// to `root_dir`) from disk. Returns nullopt + `error` if a root is missing.
std::optional<FileSet> collect_tree(const std::string& root_dir,
                                    const Config& config, std::string* error);

/// "file:line: error: [rule] message" lines, one per finding.
std::string format_findings(const std::vector<Finding>& findings);

/// One plos_lint invocation: the CLI's flags, parsed by tools/plos_lint.cpp.
struct RunOptions {
  std::string root = ".";   ///< repository root the scan roots hang off
  std::string rules_path;   ///< empty = <root>/tools/lint_rules.json
  std::string layers_path;  ///< empty = <root>/tools/lint_layers.json
  int threads = 1;          ///< scan workers (>= 1)
  bool list_rules = false;  ///< print the rule catalog instead of scanning
  std::vector<std::string> prefixes;  ///< scan only these (empty = all)
};

/// Loads the rule catalog (and the layering DAG when a layering rule is
/// configured), then scans the tree or lists the rules. Appends the
/// report — or the configuration error — to `out`. Exit codes: 0 clean,
/// 1 findings, 2 configuration error.
int run(const RunOptions& options, std::string& out);

}  // namespace plos::lint
