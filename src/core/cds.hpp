#pragma once
// Top-level API: compute a (power-aware) connected dominating set of a
// network snapshot with one of the paper's five schemes, or a fully custom
// configuration. This is the entry point the simulator, examples and
// benchmarks use.

#include <cstdint>
#include <string>
#include <vector>

#include "core/bitset.hpp"
#include "core/enum_names.hpp"
#include "core/graph.hpp"
#include "core/keys.hpp"
#include "core/marking.hpp"
#include "core/rules.hpp"
#include "core/workspace.hpp"

namespace pacds {

/// The five schemes compared in the paper's evaluation (Figures 10-13),
/// plus the scenario pack's stability-aware extension.
enum class RuleSet : std::uint8_t {
  kNR,   ///< marking process only, no reduction rules
  kID,   ///< Rules 1 + 2 (node-id keys) — Wu & Li
  kND,   ///< Rules 1a + 2a (degree keys)
  kEL1,  ///< Rules 1b + 2b (energy keys, id tie-break) — paper's proposal
  kEL2,  ///< Rules 1b' + 2b' (energy keys, degree then id tie-break)
  kSEL,  ///< refined rules with (stability, energy, id) keys — see KeyKind
};

/// The paper's five schemes in paper order, for sweeps ("--scheme all").
/// kSEL is deliberately not in here: the ablation harness opts into it by
/// name so paper-reproduction sweeps stay exactly the paper's five.
inline constexpr RuleSet kAllRuleSets[] = {RuleSet::kNR, RuleSet::kID,
                                           RuleSet::kND, RuleSet::kEL1,
                                           RuleSet::kEL2};

constexpr auto enum_names(RuleSet) {
  return std::to_array<EnumName<RuleSet>>({{RuleSet::kNR, "NR"},
                                           {RuleSet::kID, "ID"},
                                           {RuleSet::kND, "ND"},
                                           {RuleSet::kEL1, "EL1"},
                                           {RuleSet::kEL2, "EL2"},
                                           {RuleSet::kSEL, "SEL"}});
}

/// True iff the scheme's priority key reads node energy levels.
[[nodiscard]] bool uses_energy(RuleSet rs);

/// True iff the scheme's priority key reads the per-node stability estimate.
[[nodiscard]] bool uses_stability(RuleSet rs);

/// Key kind used by a scheme (meaningless for kNR, which applies no rules;
/// returns kId there so clique election still has a total order).
[[nodiscard]] KeyKind key_kind_of(RuleSet rs);

/// Rule 2 formulation used by a scheme: kSimple for the original ID rules,
/// kRefined for the a/b/b' families.
[[nodiscard]] Rule2Form rule2_form_of(RuleSet rs);

/// The rule configuration a scheme runs under `strategy` (kNR applies no
/// rules): compute_cds(g, rs, ...) is compute_cds_custom(g, key_kind_of(rs),
/// rule_config_of(rs, strategy), ...).
[[nodiscard]] RuleConfig rule_config_of(RuleSet rs, Strategy strategy);

/// Options for compute_cds beyond the scheme itself.
struct CdsOptions {
  /// kSequential is the safe default (see Strategy docs); kSimultaneous is
  /// the paper's synchronous semantics, which can violate connectivity.
  Strategy strategy = Strategy::kSequential;
  CliquePolicy clique_policy = CliquePolicy::kNone;
};

/// Result of a CDS computation.
struct CdsResult {
  DynBitset gateways;        ///< final marked set
  DynBitset marked_only;     ///< marking-process output before rules
  std::size_t marked_count = 0;   ///< |marking output|
  std::size_t gateway_count = 0;  ///< |final set|
};

/// Computes the gateway set of `g` under scheme `rs`.
///
/// `energy` must have one level per node for the energy-based schemes
/// (kEL1/kEL2); it is ignored otherwise and may be empty. With all-equal
/// levels kEL1 behaves like id-keyed refined rules and kEL2 like kND.
///
/// `ctx` selects the execution mode: with an executor, the marking process
/// and (under the simultaneous strategy) the rule passes are sharded across
/// its workers — the gateway set is bit-identical to the serial computation
/// for every thread count. A workspace makes repeated calls reuse scratch.
///
/// `stability` feeds the kSEL key (one churn estimate per node); an empty
/// vector means "all equally stable" and is the only accepted shape for the
/// other schemes.
[[nodiscard]] CdsResult compute_cds(const Graph& g, RuleSet rs,
                                    const std::vector<double>& energy = {},
                                    const CdsOptions& options = {},
                                    const ExecContext& ctx = {},
                                    const std::vector<double>& stability = {});

/// Fully custom variant: any key kind + rule configuration, the pairwise
/// rules or Rule k (RuleConfig::use_rule_k). compute_cds is this call with
/// the scheme's key and rules: one from-scratch pipeline of marking,
/// apply_rules and the clique policy.
[[nodiscard]] CdsResult compute_cds_custom(
    const Graph& g, KeyKind kind, const RuleConfig& config,
    const std::vector<double>& energy = {},
    CliquePolicy clique_policy = CliquePolicy::kNone,
    const ExecContext& ctx = {}, const std::vector<double>& stability = {});

/// As compute_cds_custom, writing into `out`: a warm result's bitsets are
/// reused, so with a warm workspace in `ctx` the call allocates nothing.
void compute_cds_custom_into(const Graph& g, KeyKind kind,
                             const RuleConfig& config,
                             const std::vector<double>& energy,
                             CliquePolicy clique_policy,
                             const ExecContext& ctx,
                             const std::vector<double>& stability,
                             CdsResult& out);

}  // namespace pacds
