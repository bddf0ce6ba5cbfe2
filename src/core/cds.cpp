#include "core/cds.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace pacds {

bool uses_energy(RuleSet rs) { return uses_energy(key_kind_of(rs)); }

bool uses_stability(RuleSet rs) { return uses_stability(key_kind_of(rs)); }

KeyKind key_kind_of(RuleSet rs) {
  switch (rs) {
    case RuleSet::kNR:
    case RuleSet::kID:
      return KeyKind::kId;
    case RuleSet::kND:
      return KeyKind::kDegreeId;
    case RuleSet::kEL1:
      return KeyKind::kEnergyId;
    case RuleSet::kEL2:
      return KeyKind::kEnergyDegreeId;
    case RuleSet::kSEL:
      return KeyKind::kStabilityEnergyId;
  }
  return KeyKind::kId;
}

Rule2Form rule2_form_of(RuleSet rs) {
  // The original ID rules use the min-of-three Rule 2; the extensions
  // (Sections 3.1-3.2) all use the coverage-symmetry case analysis.
  return rs == RuleSet::kID ? Rule2Form::kSimple : Rule2Form::kRefined;
}

RuleConfig rule_config_of(RuleSet rs, Strategy strategy) {
  RuleConfig config;
  config.use_rule1 = rs != RuleSet::kNR;
  config.use_rule2 = rs != RuleSet::kNR;
  config.rule2_form = rule2_form_of(rs);
  config.strategy = strategy;
  return config;
}

void compute_cds_custom_into(const Graph& g, KeyKind kind,
                             const RuleConfig& config,
                             const std::vector<double>& energy,
                             CliquePolicy clique_policy,
                             const ExecContext& ctx,
                             const std::vector<double>& stability,
                             CdsResult& out) {
  const bool needs_energy = uses_energy(kind);
  if (needs_energy &&
      energy.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument(
        "compute_cds: energy-based scheme needs one level per node");
  }
  if (!stability.empty() && !uses_stability(kind)) {
    throw std::invalid_argument(
        "compute_cds: stability vector given but the key ignores it");
  }
  if (!stability.empty() &&
      stability.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument(
        "compute_cds: stability vector needs one estimate per node");
  }
  const PriorityKey key(kind, g, needs_energy ? &energy : nullptr,
                        stability.empty() ? nullptr : &stability);

  // Give the whole pipeline one workspace even when the caller didn't pass
  // any, so marking and both rule passes share a single dense-row sync.
  CdsWorkspace local_ws;
  ExecContext run_ctx = ctx;
  if (run_ctx.workspace == nullptr) run_ctx.workspace = &local_ws;

  {
    const obs::PhaseTimer timer(ctx.metrics, obs::Phase::kMarking);
    marking_process_into(g, run_ctx, out.marked_only);
  }
  out.marked_count = out.marked_only.count();
  out.gateways = out.marked_only;
  {
    const obs::PhaseTimer timer(ctx.metrics, obs::Phase::kRules);
    apply_rules(g, key, config, run_ctx, out.gateways);
    apply_clique_policy(g, key, clique_policy, out.gateways);
  }
  out.gateway_count = out.gateways.count();
  if (ctx.metrics != nullptr) {
    ctx.metrics->add(obs::Counter::kFullRefreshes);
    ctx.metrics->add(obs::Counter::kNodesTouched,
                     static_cast<std::uint64_t>(g.num_nodes()));
  }
}

CdsResult compute_cds_custom(const Graph& g, KeyKind kind,
                             const RuleConfig& config,
                             const std::vector<double>& energy,
                             CliquePolicy clique_policy, const ExecContext& ctx,
                             const std::vector<double>& stability) {
  CdsResult result;
  compute_cds_custom_into(g, kind, config, energy, clique_policy, ctx,
                          stability, result);
  return result;
}

CdsResult compute_cds(const Graph& g, RuleSet rs,
                      const std::vector<double>& energy,
                      const CdsOptions& options, const ExecContext& ctx,
                      const std::vector<double>& stability) {
  return compute_cds_custom(g, key_kind_of(rs),
                            rule_config_of(rs, options.strategy), energy,
                            options.clique_policy, ctx, stability);
}

}  // namespace pacds
