#pragma once
// The paper's three gateway energy-consumption models (Section 4). Per
// update interval a non-gateway host pays a unit d', while each gateway
// pays d = (total bypass traffic) / |G'|, with the total depending on the
// network size N:
//
//   Model 1 (constant):  total = 2            -> d = 2 / |G'|
//   Model 2 (linear):    total = N            -> d = N / |G'|
//   Model 3 (quadratic): total = N(N-1)/2/10  -> d = N(N-1)/(20 |G'|)
//
// Larger dominating sets spread the bypass traffic across more gateways —
// the trade-off that makes the energy-aware rules win on lifetime.

#include <cstdint>
#include <string>

#include "core/enum_names.hpp"

namespace pacds {

/// Gateway drain model selector.
enum class DrainModel : std::uint8_t {
  kConstantTotal,   ///< Model 1: d = base / |G'|
  kLinearTotal,     ///< Model 2: d = N / |G'|
  kQuadraticTotal,  ///< Model 3: d = N(N-1)/2 / (divisor * |G'|)
};

/// Wire and CLI names (the config format's "drain_model").
constexpr auto enum_names(DrainModel) {
  return std::to_array<EnumName<DrainModel>>(
      {{DrainModel::kConstantTotal, "constant"},
       {DrainModel::kLinearTotal, "linear"},
       {DrainModel::kQuadraticTotal, "quadratic"}});
}

/// Display label ("d=N/|G'|") that tables and run manifests print. It
/// overrides the generic to_string, so the wire name is enum_name(model).
[[nodiscard]] std::string to_string(DrainModel model);

/// Tunable constants of the drain models (paper defaults).
struct DrainParams {
  double nongateway_drain = 1.0;  ///< d' — unit value per the paper
  double constant_base = 2.0;     ///< Model 1 numerator
  double quadratic_divisor = 10.0;  ///< Model 3's "10" in N(N-1)/2/(10 |G'|)
};

/// Per-gateway drain d for one update interval.
///
/// `n_hosts` is the network size N; `cds_size` is |G'| and must be >= 1
/// whenever any gateway exists. If the gateway set is empty (cds_size == 0)
/// there is nobody to charge, and the function returns 0.
[[nodiscard]] double gateway_drain(DrainModel model, std::size_t n_hosts,
                                   std::size_t cds_size,
                                   const DrainParams& params = {});

/// Total bypass traffic the model distributes over the gateway set.
[[nodiscard]] double total_bypass_traffic(DrainModel model,
                                          std::size_t n_hosts,
                                          const DrainParams& params = {});

}  // namespace pacds
