// plos_lint CLI: determinism-invariant static analyzer over the PLOS tree.
//
//   plos_lint                     lint src/ tools/ bench/ tests/ examples/
//                                 from the repo root (override with --root)
//   plos_lint src/core            lint only paths under a prefix
//   plos_lint --threads 4         scan on 4 workers (byte-identical output)
//   plos_lint --list-rules        print the active rule catalog
//
// Exit codes: 0 clean, 1 findings, 2 usage or config error. Flags go
// through the shared cli:: table; the engine lives in src/lint, so tests
// drive it in-process.
#include <cstdio>
#include <string>
#include <vector>

#include "flags.hpp"
#include "lint/lint.hpp"

namespace {

using namespace plos;

std::vector<cli::Flag> flag_table(lint::RunOptions& o) {
  return {
      {"--root", "DIR", "repository root to scan (default .)",
       cli::text(o.root)},
      {"--rules", "FILE",
       "rule catalog (default <root>/tools/lint_rules.json)",
       cli::text(o.rules_path)},
      {"--layers", "FILE",
       "layering DAG (default <root>/tools/lint_layers.json)",
       cli::text(o.layers_path)},
      {"--threads", "N",
       "scan workers (default 1); the report is byte-identical at any count",
       cli::count(o.threads, 1)},
      {"--list-rules", nullptr, "print the rule catalog instead of scanning",
       cli::store(o.list_rules, true)},
  };
}

}  // namespace

int main(int argc, char** argv) {
  lint::RunOptions options;
  const std::vector<cli::Flag> flags = flag_table(options);
  switch (cli::parse("plos_lint", flags, argc, argv, 1, &options.prefixes)) {
    case cli::ParseResult::kHelp:
      std::printf(
          "plos_lint — determinism-invariant static analyzer\n\n"
          "usage: plos_lint [options] [path-prefix...]\n\n%s",
          cli::help(flags).c_str());
      return 0;
    case cli::ParseResult::kError:
      return 2;
    case cli::ParseResult::kOk:
      break;
  }
  std::string out;
  const int code = lint::run(options, out);
  std::fwrite(out.data(), 1, out.size(), code == 0 ? stdout : stderr);
  return code;
}
