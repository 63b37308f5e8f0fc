#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "lint/rules_semantic.hpp"
#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"

namespace plos::lint {

namespace {

namespace json = plos::obs::json;

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    if (end == text.size()) break;
    start = end + 1;
  }
  return lines;
}

bool read_text(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream contents;
  contents << in.rdbuf();
  text = contents.str();
  return true;
}

// ---- suppressions --------------------------------------------------------

struct Suppressions {
  std::set<std::string> file_wide;                  // allow-file(rule)
  std::map<int, std::set<std::string>> per_line;    // allow(rule) on line N
};

void parse_allow_list(std::string_view text, std::set<std::string>& out) {
  std::string name;
  for (char c : text) {
    if (c == ',' || c == ')') {
      if (!name.empty()) out.insert(name);
      name.clear();
      if (c == ')') return;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      name += c;
    }
  }
}

Suppressions parse_suppressions(const std::vector<std::string_view>& lines) {
  Suppressions sup;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    const std::size_t marker = line.find("plos-lint:");
    if (marker == std::string_view::npos) continue;
    std::string_view rest = line.substr(marker + 10);
    while (!rest.empty() &&
           std::isspace(static_cast<unsigned char>(rest.front()))) {
      rest.remove_prefix(1);
    }
    if (rest.rfind("allow-file(", 0) == 0) {
      parse_allow_list(rest.substr(11), sup.file_wide);
    } else if (rest.rfind("allow(", 0) == 0) {
      parse_allow_list(rest.substr(6), sup.per_line[static_cast<int>(i + 1)]);
    }
  }
  return sup;
}

bool suppressed(const Suppressions& sup, const std::string& rule, int line) {
  if (sup.file_wide.count(rule) != 0) return true;
  for (int l : {line, line - 1}) {
    auto it = sup.per_line.find(l);
    if (it != sup.per_line.end() && it->second.count(rule) != 0) return true;
  }
  return false;
}

// ---- path scoping --------------------------------------------------------

bool has_prefix(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool rule_applies(const Rule& rule, const std::string& path) {
  if (!rule.paths.empty() &&
      std::none_of(rule.paths.begin(), rule.paths.end(),
                   [&](const std::string& p) { return has_prefix(path, p); })) {
    return false;
  }
  return std::none_of(
      rule.allow_paths.begin(), rule.allow_paths.end(),
      [&](const std::string& p) { return has_prefix(path, p); });
}

bool is_header(const std::string& path) {
  return path.size() >= 4 && (path.rfind(".hpp") == path.size() - 4 ||
                              path.rfind(".h") == path.size() - 2);
}

// ---- rule engines --------------------------------------------------------

std::string stem_of(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

void apply_banned_patterns(const Rule& rule, const std::string& path,
                           const std::vector<std::string_view>& code_lines,
                           std::vector<Finding>& findings) {
  std::vector<std::regex> compiled;
  compiled.reserve(rule.patterns.size());
  for (const std::string& p : rule.patterns) {
    compiled.emplace_back(p, std::regex::optimize);
  }
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    for (std::size_t r = 0; r < compiled.size(); ++r) {
      if (std::regex_search(code_lines[i].begin(), code_lines[i].end(),
                            compiled[r])) {
        findings.push_back(Finding{rule.name, path, static_cast<int>(i + 1),
                                   rule.message});
        break;  // one finding per line per rule
      }
    }
  }
}

void apply_float_eq(const Rule& rule, const std::string& path,
                    const std::vector<std::string_view>& code_lines,
                    std::vector<Finding>& findings) {
  // A floating literal: 1.5 / .5 / 1. / 1e-9 / 1.5e3, optional f/F suffix.
  static const char* kFloat =
      R"((\d+\.\d*([eE][-+]?\d+)?|\.\d+([eE][-+]?\d+)?|\d+[eE][-+]?\d+)[fFlL]?)";
  static const std::regex rhs_re(std::string(R"((==|!=)\s*[-+]?)") + kFloat,
                                 std::regex::optimize);
  static const std::regex lhs_re(std::string(kFloat) + R"(\s*(==|!=))",
                                 std::regex::optimize);
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    const std::string line(code_lines[i]);
    bool flagged = false;
    for (const std::regex* re : {&rhs_re, &lhs_re}) {
      for (auto it = std::sregex_iterator(line.begin(), line.end(), *re);
           !flagged && it != std::sregex_iterator(); ++it) {
        const std::smatch& m = *it;
        // Exact comparison against zero (x == 0.0) is the explicit
        // "was this coordinate ever touched" idiom and stays legal.
        const std::string literal =
            m[1].str() == "==" || m[1].str() == "!=" ? m[2].str() : m[1].str();
        flagged = std::strtod(literal.c_str(), nullptr) != 0.0;
      }
      if (flagged) break;
    }
    if (flagged) {
      findings.push_back(
          Finding{rule.name, path, static_cast<int>(i + 1), rule.message});
    }
  }
}

void apply_pragma_once(const Rule& rule, const std::string& path,
                       std::string_view source,
                       std::vector<Finding>& findings) {
  if (!is_header(path)) return;
  if (source.find("#pragma once") == std::string_view::npos) {
    findings.push_back(Finding{rule.name, path, 1, rule.message});
  }
}

void apply_include_order(const Rule& rule, const std::string& path,
                         const std::vector<Include>& includes,
                         std::vector<Finding>& findings) {
  if (includes.empty()) return;

  // A .cpp's own header (same stem) must be the very first include.
  const bool is_source = path.rfind(".cpp") == path.size() - 4;
  if (is_source) {
    const std::string stem = stem_of(path);
    for (std::size_t i = 0; i < includes.size(); ++i) {
      if (!includes[i].angle && stem_of(includes[i].target) == stem) {
        if (i != 0) {
          findings.push_back(Finding{rule.name, path, includes[i].line,
                                     "own header must be the first include"});
        }
        break;
      }
    }
  }

  // After an optional leading quoted subject header, the angle-bracket
  // block must precede the quoted block (no interleaving back).
  std::size_t start = includes.empty() || includes[0].angle ? 0 : 1;
  bool seen_quoted = false;
  for (std::size_t i = start; i < includes.size(); ++i) {
    if (!includes[i].angle) {
      seen_quoted = true;
    } else if (seen_quoted) {
      findings.push_back(
          Finding{rule.name, path, includes[i].line,
                  "angle-bracket include after project includes"});
    }
  }
}

void apply_using_namespace(const Rule& rule, const std::string& path,
                           const std::vector<std::string_view>& code_lines,
                           std::vector<Finding>& findings) {
  if (!is_header(path)) return;
  static const std::regex re(R"(\busing\s+namespace\b)", std::regex::optimize);
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    if (std::regex_search(code_lines[i].begin(), code_lines[i].end(), re)) {
      findings.push_back(
          Finding{rule.name, path, static_cast<int>(i + 1), rule.message});
    }
  }
}

// ---- config parsing ------------------------------------------------------

std::vector<std::string> string_array(const json::Value& obj,
                                      std::string_view key) {
  std::vector<std::string> out;
  const json::Value* field = obj.find(key);
  if (field == nullptr || !field->is_array()) return out;
  for (const json::Value& v : field->as_array()) {
    if (v.is_string()) out.push_back(v.as_string());
  }
  return out;
}

constexpr std::array<std::string_view, 6> kRuleKeys = {
    "name", "kind", "message", "patterns", "paths", "allow_paths"};

std::optional<RuleKind> kind_from_string(const std::string& kind) {
  if (kind == "banned-pattern") return RuleKind::kBannedPattern;
  if (kind == "float-eq") return RuleKind::kFloatEq;
  if (kind == "pragma-once") return RuleKind::kPragmaOnce;
  if (kind == "include-order") return RuleKind::kIncludeOrder;
  if (kind == "using-namespace-header") return RuleKind::kUsingNamespaceHeader;
  if (kind == "race-surface") return RuleKind::kRaceSurface;
  if (kind == "accumulation-order") return RuleKind::kAccumulationOrder;
  if (kind == "layering") return RuleKind::kLayering;
  return std::nullopt;
}

}  // namespace

std::optional<Config> parse_config(std::string_view json_text,
                                   std::string* error) {
  std::string parse_error;
  const auto doc = json::parse(json_text, &parse_error);
  if (!doc || !doc->is_object()) {
    if (error != nullptr) {
      *error = "lint_rules.json: " +
               (parse_error.empty() ? "not a JSON object" : parse_error);
    }
    return std::nullopt;
  }

  Config config;
  config.roots = string_array(*doc, "roots");
  config.extensions = string_array(*doc, "extensions");
  if (config.extensions.empty()) config.extensions = {".cpp", ".hpp", ".h"};

  const json::Value* rules = doc->find("rules");
  if (rules == nullptr || !rules->is_array()) {
    if (error != nullptr) *error = "lint_rules.json: missing \"rules\" array";
    return std::nullopt;
  }
  for (const json::Value& entry : rules->as_array()) {
    if (!entry.is_object()) continue;
    Rule rule;
    if (const json::Value* v = entry.find("name"); v && v->is_string()) {
      rule.name = v->as_string();
    }
    std::string kind = "banned-pattern";
    if (const json::Value* v = entry.find("kind"); v && v->is_string()) {
      kind = v->as_string();
    }
    const auto parsed_kind = kind_from_string(kind);
    if (rule.name.empty() || !parsed_kind) {
      if (error != nullptr) {
        *error = "lint_rules.json: rule \"" + rule.name +
                 "\" has missing name or unknown kind \"" + kind + "\"";
      }
      return std::nullopt;
    }
    rule.kind = *parsed_kind;
    // A key nothing reads would be dropped in silence: a misspelt
    // "allow_path" would widen its rule, an "enabled": false would not
    // switch it off (delete the rule for that).
    for (const auto& member : entry.as_object()) {
      if (std::find(kRuleKeys.begin(), kRuleKeys.end(), member.first) ==
          kRuleKeys.end()) {
        if (error != nullptr) {
          *error = "lint_rules.json: rule \"" + rule.name +
                   "\" has unknown key \"" + member.first + "\"";
        }
        return std::nullopt;
      }
    }
    if (const json::Value* v = entry.find("message"); v && v->is_string()) {
      rule.message = v->as_string();
    }
    rule.patterns = string_array(entry, "patterns");
    rule.paths = string_array(entry, "paths");
    rule.allow_paths = string_array(entry, "allow_paths");
    config.rules.push_back(std::move(rule));
  }
  return config;
}

std::vector<Finding> lint_source(const Config& config, const std::string& path,
                                 std::string_view source) {
  const std::string code = strip_comments_and_strings(source);
  const std::vector<std::string_view> code_lines = split_lines(code);
  const std::vector<Include> includes = parse_includes(code);
  const Suppressions sup = parse_suppressions(split_lines(source));

  // The token stream is shared by the semantic rules and built on demand:
  // pattern-only configs never pay for tokenization.
  std::optional<std::vector<Token>> tokens;
  const auto token_stream = [&]() -> const std::vector<Token>& {
    if (!tokens) tokens = tokenize(code);
    return *tokens;
  };

  std::vector<Finding> findings;
  for (const Rule& rule : config.rules) {
    if (!rule_applies(rule, path)) continue;
    switch (rule.kind) {
      case RuleKind::kBannedPattern:
        apply_banned_patterns(rule, path, code_lines, findings);
        break;
      case RuleKind::kFloatEq:
        apply_float_eq(rule, path, code_lines, findings);
        break;
      case RuleKind::kPragmaOnce:
        apply_pragma_once(rule, path, source, findings);
        break;
      case RuleKind::kIncludeOrder:
        apply_include_order(rule, path, includes, findings);
        break;
      case RuleKind::kUsingNamespaceHeader:
        apply_using_namespace(rule, path, code_lines, findings);
        break;
      case RuleKind::kRaceSurface:
        apply_race_surface(rule, path, token_stream(), findings);
        break;
      case RuleKind::kAccumulationOrder:
        apply_accumulation_order(rule, path, token_stream(), findings);
        break;
      case RuleKind::kLayering:
        if (config.layers_loaded) {
          apply_layering(rule, path, code, config.layers, findings);
        }
        break;
    }
  }

  std::erase_if(findings, [&](const Finding& f) {
    return suppressed(sup, f.rule, f.line);
  });
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> lint_files(const Config& config, const FileSet& files,
                                int threads) {
  std::vector<const FileSet::value_type*> entries;
  entries.reserve(files.size());
  for (const auto& entry : files) entries.push_back(&entry);

  std::vector<std::vector<Finding>> per_file(entries.size());
  const auto scan_one = [&](std::size_t i) {
    per_file[i] = lint_source(config, entries[i]->first, entries[i]->second);
  };
  if (threads > 1 && entries.size() > 1) {
    parallel::ThreadPool pool(threads);
    pool.parallel_for(entries.size(), scan_one);
  } else {
    for (std::size_t i = 0; i < entries.size(); ++i) scan_one(i);
  }

  // Merge in path order: the report is byte-identical at any thread count.
  std::vector<Finding> findings;
  for (auto& file_findings : per_file) {
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::optional<FileSet> collect_tree(const std::string& root_dir,
                                    const Config& config, std::string* error) {
  namespace fs = std::filesystem;
  FileSet files;
  for (const std::string& root : config.roots) {
    const fs::path dir = fs::path(root_dir) / root;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
      if (error != nullptr) {
        *error = "scan root not found: " + dir.generic_string();
      }
      return std::nullopt;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel =
          fs::relative(entry.path(), root_dir).generic_string();
      const bool wanted = std::any_of(
          config.extensions.begin(), config.extensions.end(),
          [&](const std::string& ext) {
            return rel.size() >= ext.size() &&
                   rel.compare(rel.size() - ext.size(), ext.size(), ext) == 0;
          });
      if (!wanted) continue;
      read_text(entry.path().string(), files[rel]);
    }
  }
  return files;
}

std::string format_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": error: [" + f.rule +
           "] " + f.message + "\n";
  }
  return out;
}

// ---- run -----------------------------------------------------------------

int run(const RunOptions& options, std::string& out) {
  const std::string rules_path = options.rules_path.empty()
                                     ? options.root + "/tools/lint_rules.json"
                                     : options.rules_path;
  const std::string layers_path =
      options.layers_path.empty() ? options.root + "/tools/lint_layers.json"
                                  : options.layers_path;

  std::string text;
  if (!read_text(rules_path, text)) {
    out += "plos_lint: cannot open rules file " + rules_path + "\n";
    return 2;
  }
  std::string error;
  auto config = parse_config(text, &error);
  if (!config) {
    out += "plos_lint: " + error + "\n";
    return 2;
  }

  const bool wants_layering = std::any_of(
      config->rules.begin(), config->rules.end(),
      [](const Rule& rule) { return rule.kind == RuleKind::kLayering; });
  if (wants_layering) {
    if (!read_text(layers_path, text)) {
      out += "plos_lint: cannot open layering DAG " + layers_path + "\n";
      return 2;
    }
    const auto layers = parse_layers(text, &error);
    if (!layers) {
      out += "plos_lint: " + error + "\n";
      return 2;
    }
    config->layers = *layers;
    config->layers_loaded = true;
  }

  if (options.list_rules) {
    for (const Rule& rule : config->rules) {
      out += rule.name + ": " + rule.message + "\n";
    }
    return 0;
  }

  auto files = collect_tree(options.root, *config, &error);
  if (!files) {
    out += "plos_lint: " + error + "\n";
    return 2;
  }
  const std::vector<std::string>& prefixes = options.prefixes;
  if (!prefixes.empty()) {
    std::erase_if(*files, [&](const auto& entry) {
      return std::none_of(prefixes.begin(), prefixes.end(),
                          [&](const std::string& prefix) {
                            return has_prefix(entry.first, prefix);
                          });
    });
  }

  const auto findings = lint_files(*config, *files, options.threads);
  out += format_findings(findings);
  out += "plos_lint: " + std::to_string(findings.size()) + " finding(s) in " +
         std::to_string(files->size()) + " file(s) scanned\n";
  return findings.empty() ? 0 : 1;
}

}  // namespace plos::lint
