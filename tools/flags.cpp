#include "flags.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace plos::cli {

namespace {

// Flag names and placeholders fill the first column; help text wraps in
// the second up to kLineWidth.
constexpr std::size_t kHelpColumn = 29;
constexpr std::size_t kLineWidth = 79;

std::string format_bound(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", v);
  return buffer;
}

// A head too wide for the first column puts its text on the next line.
void append_row(std::string& out, std::string line, const std::string& text) {
  if (line.size() >= kHelpColumn) {
    out += line + '\n';
    line.clear();
  }
  line.resize(kHelpColumn, ' ');
  std::istringstream words(text);
  bool first = true;
  for (std::string word; words >> word; first = false) {
    if (!first && line.size() + 1 + word.size() > kLineWidth) {
      out += line + '\n';
      line.assign(kHelpColumn, ' ');
    } else if (!first) {
      line += ' ';
    }
    line += word;
  }
  out += line + '\n';
}

}  // namespace

std::string Range::describe() const {
  if (std::isinf(hi)) return (lo_open ? "> " : ">= ") + format_bound(lo);
  return std::string("in ") + (lo_open ? "(" : "[") + format_bound(lo) +
         ", " + format_bound(hi) + "]";
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

bool parse_count(const char* text, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return *end == '\0' && errno != ERANGE;
}

ParseResult parse(const char* tool, const std::vector<Flag>& flags, int argc,
                  char** argv, int first, std::vector<std::string>* positional) {
  const auto fail = [tool](const std::string& subject,
                           const std::string& problem) {
    std::fprintf(stderr, "%s: %s %s\nrun '%s --help' for usage\n", tool,
                 subject.c_str(), problem.c_str(), tool);
    return ParseResult::kError;
  };
  std::vector<const Flag*> given;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return ParseResult::kHelp;
    const auto row = std::find_if(flags.begin(), flags.end(),
                                  [&](const Flag& f) { return arg == f.name; });
    if (row == flags.end()) {
      const bool is_flag = !arg.empty() && arg[0] == '-' && arg != "-";
      if (is_flag || positional == nullptr) {
        return fail("unknown flag", arg);
      }
      positional->push_back(arg);
      continue;
    }
    const char* value = nullptr;
    if (row->metavar != nullptr) {
      if (i + 1 >= argc) return fail("missing value for", arg);
      value = argv[++i];
    }
    if (const std::string error = row->set(value); !error.empty()) {
      return fail(arg, error);
    }
    given.push_back(&*row);
  }
  for (const Flag* flag : given) {
    if (flag->needs.what != nullptr && !flag->needs.holds()) {
      return fail(flag->name, std::string("needs ") + flag->needs.what);
    }
  }
  return ParseResult::kOk;
}

std::string help(const std::vector<Flag>& flags) {
  std::string out;
  for (const Flag& flag : flags) {
    std::string head = std::string("  ") + flag.name;
    if (flag.metavar != nullptr) head += std::string(" ") + flag.metavar;
    std::string text = flag.help;
    if (flag.needs.what != nullptr) {
      text += std::string(" (needs ") + flag.needs.what + ")";
    }
    append_row(out, head, text);
  }
  append_row(out, "  --help", "this message");
  return out;
}

Setter choice(std::string& slot, std::vector<std::string> allowed) {
  return [&slot, allowed = std::move(allowed)](const char* text) {
    if (std::find(allowed.begin(), allowed.end(), text) == allowed.end()) {
      std::string list;
      for (const std::string& option : allowed) {
        if (!list.empty()) list += '|';
        list += option;
      }
      return "expects one of " + list + ", got '" + text + "'";
    }
    slot = text;
    return std::string();
  };
}

Setter on_off(bool& slot) {
  return [&slot](const char* text) {
    const std::string mode = text;
    if (mode != "on" && mode != "off") {
      return "expects on or off, got '" + mode + "'";
    }
    slot = mode == "on";
    return std::string();
  };
}

Setter text(std::string& slot) {
  return [&slot](const char* value) {
    slot = value;
    return std::string();
  };
}

Setter store(bool& slot, bool value) {
  return [&slot, value](const char*) {
    slot = value;
    return std::string();
  };
}

}  // namespace plos::cli
