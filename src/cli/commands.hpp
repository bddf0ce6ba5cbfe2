#pragma once
// The pacds command-line tool, exposed as one function over explicit output
// streams so tests can drive it without a process. Its subcommands:
//
//   pacds cds    — compute a gateway set for a graph (file or random)
//   pacds info   — structural stats of a graph (components, cuts, ...)
//   pacds route  — route a packet through the backbone
//   pacds sim    — run the paper's lifetime simulation
//   pacds sweep  — host-count x scheme sweep (the figure harness)
//   pacds gap    — approximation ratios vs the exact minimum CDS
//   pacds faults — inspect a fault plan's resolved schedule
//   pacds fuzz   — differential fuzzing against the invariant oracles
//   pacds serve  — resident multi-tenant server over JSONL requests
//
// run returns the process exit code: 0 on success, 2 for a bad flag or
// config, 1 for a failure while running. Every error leaves through run:
// it prints "error: <what>" for whatever a command throws.

#include <iosfwd>
#include <string>
#include <vector>

namespace pacds::cli {

/// Dispatches to a subcommand; tokens[0] is the subcommand name.
int run(const std::vector<std::string>& tokens, std::ostream& out,
        std::ostream& err);

/// Top-level usage text.
[[nodiscard]] std::string main_usage();

}  // namespace pacds::cli
