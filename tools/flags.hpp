// Table-driven command-line flags for plos_run, plos_inspect and plos_lint.
//
// One row per flag holds its name, value placeholder and help text, a
// setter that parses, range-checks and stores the value in place, and an
// optional precondition on the other flags. The parser and the `--help`
// text both read the table, so they cannot drift apart. Every parse
// failure prints a diagnostic plus a usage hint: a typo must never fall
// back to a default mid-experiment.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace plos::cli {

/// Parses one flag value (nullptr for a switch) into its destination.
/// Returns "" on success, else the complaint printed after the flag name
/// ("expects a number, got 'x'").
using Setter = std::function<std::string(const char* value)>;

/// Precondition on the rest of the command line, checked after every flag
/// is parsed and only for flags that were given: a flag whose value would
/// be ignored is an error, not a silent no-op.
struct Needs {
  const char* what = nullptr;  ///< rendered as "(needs <what>)"; null = none
  std::function<bool()> holds;
};

struct Flag {
  const char* name;     ///< "--rate"
  const char* metavar;  ///< value placeholder; nullptr = a switch
  const char* help;
  Setter set;
  Needs needs = {};
};

enum class ParseResult { kOk, kHelp, kError };

/// Parses argv[first, argc) against `flags`. "--help" or "-h" returns
/// kHelp. Arguments that are not flags (no leading '-', or a lone "-") go
/// to `positional`; without one they are errors.
ParseResult parse(const char* tool, const std::vector<Flag>& flags, int argc,
                  char** argv, int first,
                  std::vector<std::string>* positional = nullptr);

/// One aligned, word-wrapped help row per flag in table order, then
/// "--help".
std::string help(const std::vector<Flag>& flags);

/// The whole of `text` as a finite double (strtod also takes "nan" and
/// "inf"; a non-finite bound silently disables every comparison with it).
bool parse_number(const char* text, double& out);

/// The whole of `text` as a decimal u64: digits only, no sign, no
/// overflow.
bool parse_count(const char* text, std::uint64_t& out);

/// Closed or half-open interval a number flag must fall in.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && v <= hi;
  }
  std::string describe() const;
};

inline constexpr Range kAnyNumber{};
inline constexpr Range kNonNegative{0.0};
inline constexpr Range kProbability{0.0, 1.0};
inline constexpr Range kPositiveFraction{0.0, 1.0, true};

/// Finite number in `range`, stored into a double or std::optional<double>.
template <class Slot>
Setter number(Slot& slot, Range range = kAnyNumber) {
  return [&slot, range](const char* text) -> std::string {
    double value = 0.0;
    if (!parse_number(text, value)) {
      return std::string("expects a finite number, got '") + text + "'";
    }
    if (!range.contains(value)) {
      return "must be " + range.describe() + ", got " + text;
    }
    slot = value;
    return "";
  };
}

/// Decimal integer >= min that fits `Int`.
template <class Int>
Setter count(Int& slot, std::uint64_t min = 0) {
  return [&slot, min](const char* text) -> std::string {
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<Int>::max());
    std::uint64_t value = 0;
    if (!parse_count(text, value)) {
      return std::string("expects a non-negative integer, got '") + text +
             "'";
    }
    if (value < min) {
      return "must be at least " + std::to_string(min) + ", got " + text;
    }
    if (value > kMax) {
      return "must be at most " + std::to_string(kMax) + ", got " + text;
    }
    slot = static_cast<Int>(value);
    return "";
  };
}

/// One of `allowed`, verbatim.
Setter choice(std::string& slot, std::vector<std::string> allowed);
/// "on" or "off".
Setter on_off(bool& slot);
/// Any string (paths, names).
Setter text(std::string& slot);
/// A switch that stores `value`.
Setter store(bool& slot, bool value);

}  // namespace plos::cli
