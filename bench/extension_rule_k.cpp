// Extension experiment: the generalized Rule k (Dai-Wu) with power-aware
// keys. Three questions:
//   1. Size: how does Rule k compare to the paper's pairwise rules?
//   2. Safety: is its SYNCHRONOUS application really violation-free where
//      the pairwise refined rules fail ~30% of the time?
//   3. Lifetime: does plugging energy keys into Rule k keep the rotation
//      benefit?

#include <iostream>
#include <vector>

#include "core/cds.hpp"
#include "core/verify.hpp"
#include "io/table.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "sim/experiment.hpp"
#include "sim/stats.hpp"

int main() {
  using namespace pacds;
  const std::size_t trials = env_size_t("PACDS_TRIALS", 50);

  std::cout << "== Extension: generalized Rule k (Dai-Wu) ==\n"
            << trials << " random connected networks per point\n\n"
            << "(a) size and synchronous-safety vs the pairwise rules "
               "(degree keys):\n";
  TextTable size_table({"n", "pairwise seq", "pairwise sync", "viol%",
                        "rule-k seq", "rule-k sync", "viol%"});
  for (const int n : {20, 40, 60, 80}) {
    Welford pw_seq, pw_sync, rk_seq, rk_sync;
    std::size_t pw_viol = 0;
    std::size_t rk_viol = 0;
    std::size_t cases = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      Xoshiro256 rng(derive_seed(0x47a1e, trial * 211 +
                                             static_cast<std::uint64_t>(n)));
      const auto placed = random_connected_placement(
          n, Field::paper_field(), kPaperRadius, rng, 2000);
      if (!placed) continue;
      const Graph& g = placed->graph;
      ++cases;
      CdsOptions seq;
      seq.strategy = Strategy::kSequential;
      CdsOptions sync;
      sync.strategy = Strategy::kSimultaneous;
      const CdsResult a = compute_cds(g, RuleSet::kND, {}, seq);
      const CdsResult b = compute_cds(g, RuleSet::kND, {}, sync);
      const CdsResult c = compute_cds_custom(
          g, KeyKind::kDegreeId,
          RuleConfig{.use_rule_k = true, .strategy = Strategy::kSequential});
      const CdsResult d = compute_cds_custom(
          g, KeyKind::kDegreeId,
          RuleConfig{.use_rule_k = true, .strategy = Strategy::kSimultaneous});
      pw_seq.add(static_cast<double>(a.gateway_count));
      pw_sync.add(static_cast<double>(b.gateway_count));
      rk_seq.add(static_cast<double>(c.gateway_count));
      rk_sync.add(static_cast<double>(d.gateway_count));
      if (!check_cds(g, b.gateways).ok()) ++pw_viol;
      if (!check_cds(g, d.gateways).ok()) ++rk_viol;
    }
    const auto pct = [cases](std::size_t v) {
      return TextTable::fmt(
          cases == 0 ? 0.0
                     : 100.0 * static_cast<double>(v) /
                           static_cast<double>(cases),
          1);
    };
    size_table.add_row({TextTable::fmt(n), TextTable::fmt(pw_seq.mean()),
                        TextTable::fmt(pw_sync.mean()), pct(pw_viol),
                        TextTable::fmt(rk_seq.mean()),
                        TextTable::fmt(rk_sync.mean()), pct(rk_viol)});
  }
  size_table.print(std::cout);

  std::cout << "\n(b) lifetime with energy-keyed Rule k (d = N/|G'|), vs "
               "the paper's EL1:\n";
  TextTable life_table({"n", "EL1 (pairwise)", "rule-k EL", "rule-k ND"});
  const std::size_t life_trials = trials / 2 + 1;
  for (const int n : {30, 50, 80}) {
    Welford el1, rk_el, rk_nd;
    for (std::size_t trial = 0; trial < life_trials; ++trial) {
      const std::uint64_t seed = derive_seed(
          0x11fe, trial * 733 + static_cast<std::uint64_t>(n));
      SimConfig config;
      config.n_hosts = n;
      config.drain_model = DrainModel::kLinearTotal;
      config.rule_set = RuleSet::kEL1;
      el1.add(static_cast<double>(run_lifetime_trial(config, seed).intervals));
      config.use_rule_k = true;
      config.custom_key = KeyKind::kEnergyId;
      rk_el.add(static_cast<double>(run_lifetime_trial(config, seed).intervals));
      config.custom_key = KeyKind::kDegreeId;
      rk_nd.add(static_cast<double>(run_lifetime_trial(config, seed).intervals));
    }
    life_table.add_row({TextTable::fmt(n), TextTable::fmt(el1.mean()),
                        TextTable::fmt(rk_el.mean()),
                        TextTable::fmt(rk_nd.mean())});
  }
  life_table.print(std::cout);
  return 0;
}
