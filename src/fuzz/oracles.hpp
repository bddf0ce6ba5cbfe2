#pragma once
// The invariant-oracle suite the fuzzer runs against every scenario. Each
// oracle checks one equivalence or conservation law the test suite pins on
// hand-picked topologies, here exercised on random instances:
//
//   cds-validity        — on the scenario's own key kind and rules (custom
//                         key, Rule 2 form, Rule k; see snapshot_cds):
//                         internal count consistency, rules ⊆ marking,
//                         marking output passes check_cds, and the final
//                         set passes check_cds for the sequential and
//                         verified strategies and for Rule k. The pairwise
//                         rules' simultaneous strategy is *documented
//                         unsafe* (it violates connectivity on a sizable
//                         fraction of dense random instances — see
//                         tests/cds_property_test SimultaneousSafetyTest),
//                         so its final set is deliberately NOT asserted.
//   engine-identity     — full-rebuild vs incremental trials bit-identical
//                         (modulo wall-clock fields) wherever the
//                         incremental engine is eligible.
//   threads-identity    — serial vs threaded trials bit-identical for the
//                         scenario's thread count.
//   dist-agreement      — distributed protocol == centralized simultaneous
//                         compute_cds under the scheme (the protocol runs
//                         only the schemes' pairwise rules); zero-fault
//                         ARQ == reliable run; a complete faulty-channel
//                         ARQ run == reliable run.
//   energy-conservation — per-interval battery accounting: energy only
//                         leaves the system, and on intervals without a
//                         death the exact drain/theft ledger balances.
//   fault-stats         — TrialResult::faults tallies agree with the
//                         trace's fault records (incl. the -1
//                         first_death_interval sentinel).
//   jsonl-schema        — the run's metrics stream passes
//                         obs::validate_metrics_stream.
//   empty-plan-identity — a trial with an event-free plan is bit-identical
//                         to the fault-free twin.
//   gap-bound           — the branch-and-bound exact optimum is a true
//                         lower bound: it matches the exhaustive bitmask
//                         optimum where that is computable (n <= 20), every
//                         valid heuristic CDS (greedy/MIS/tree/(2,2)/the
//                         marking process) is at least as large, and the
//                         greedy (2,2) backbone passes its own validity
//                         predicate — including single-member-loss survival
//                         when the full (2,2) property holds.
//   serve-identity      — the `pacds serve` tick path (create + ticks in
//                         the scenario's serve_ticks granularity) emits a
//                         canonically identical metrics stream to a
//                         standalone run_lifetime_trials call: same records
//                         byte for byte once the serve envelope, tenant
//                         tags and wall-clock fields are stripped.
//
// Oracles that need preconditions (a connected snapshot, engine
// eligibility, threads > 1, ...) skip silently when the scenario is outside
// their domain; the generator keeps every domain populated.

#include <optional>
#include <string>
#include <vector>

#include "core/cds.hpp"
#include "core/graph.hpp"
#include "fuzz/scenario.hpp"

namespace pacds::fuzz {

/// Connected network snapshot for the structural oracles (CDS validity and
/// the distributed protocol agree with the pinned properties only on
/// connected graphs), with small integer energies so EL-key ties occur.
struct Snapshot {
  Graph graph;
  std::vector<double> energy;
};

/// The scenario's snapshot, drawn from its trial seed. Empty when no
/// connected placement exists in its (n, radius) regime — the structural
/// oracles then skip.
[[nodiscard]] std::optional<Snapshot> make_snapshot(const FuzzScenario& s);

/// The backbone cds-validity and gap-bound check on a snapshot: the
/// scenario's key kind and rules as the lifetime engines run them
/// (key_kind_of / rules_of), with the snapshot energies as levels.
[[nodiscard]] CdsResult snapshot_cds(const FuzzScenario& s,
                                     const Snapshot& snap);

/// One oracle violation. `oracle` is the stable name from the list above
/// (shrinking preserves it); `detail` is a human-readable diagnosis.
struct OracleFailure {
  std::string oracle;
  std::string detail;
};

// Mutation-testing hooks: each constant makes run_oracles deliberately
// perturb the named oracle's observed data, so tests can prove a real
// defect would be caught, shrunk and written as a reproducer. 0 = off.
// Values are stable, so 9 stays unused.
inline constexpr int kMutateNone = 0;
inline constexpr int kMutateCdsValidity = 1;
inline constexpr int kMutateEngineIdentity = 2;
inline constexpr int kMutateThreadsIdentity = 3;
inline constexpr int kMutateDistAgreement = 4;
inline constexpr int kMutateEnergyAccounting = 5;
inline constexpr int kMutateFaultStats = 6;
inline constexpr int kMutateJsonl = 7;
inline constexpr int kMutateEmptyPlanIdentity = 8;
inline constexpr int kMutateServeIdentity = 10;
inline constexpr int kMutateGapBound = 11;

struct OracleOptions {
  int mutation = kMutateNone;
};

/// Runs every applicable oracle against the scenario; returns all
/// violations (empty = clean). Deterministic in (scenario, options).
[[nodiscard]] std::vector<OracleFailure> run_oracles(
    const FuzzScenario& scenario, const OracleOptions& options = {});

}  // namespace pacds::fuzz
