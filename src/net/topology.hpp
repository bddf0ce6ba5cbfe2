#pragma once
// Network snapshot generation: uniform random host placement and the
// "retry until the unit-disk graph is connected" convention the paper's
// simulation implies (the marking process assumes a connected graph).

#include <optional>
#include <vector>

#include "core/graph.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/udg.hpp"
#include "net/vec2.hpp"

namespace pacds {

/// Uniform random positions inside the field.
[[nodiscard]] std::vector<Vec2> random_placement(int n, const Field& field,
                                                 Xoshiro256& rng);

/// Repeatedly samples placements until the resulting unit-disk graph is
/// connected, up to `max_retries` attempts; nullopt if none was connected
/// (callers decide whether to accept a disconnected fallback). Attempts
/// share one position buffer, link builder, graph and connectivity scratch,
/// so a retry allocates nothing.
struct ConnectedPlacement {
  std::vector<Vec2> positions;
  Graph graph;
  int attempts = 0;  ///< how many placements were sampled (>= 1)
};

[[nodiscard]] std::optional<ConnectedPlacement> random_connected_placement(
    int n, const Field& field, double radius, Xoshiro256& rng,
    int max_retries = 1000);

/// The paper's transmission radius.
inline constexpr double kPaperRadius = 25.0;

}  // namespace pacds
