#include "net/topology.hpp"

#include <stdexcept>

namespace pacds {

namespace {

/// Fills `out` with n uniform positions. The z draw happens after x and y
/// and only for a 3-D field, so planar runs consume exactly the RNG stream
/// they always did.
void place_uniform(int n, const Field& field, Xoshiro256& rng,
                   std::vector<Vec2>& out) {
  if (n < 0) throw std::invalid_argument("random_placement: negative n");
  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, field.width());
    const double y = rng.uniform(0.0, field.height());
    const double z = field.is_3d() ? rng.uniform(0.0, field.depth()) : 0.0;
    out.push_back({x, y, z});
  }
}

}  // namespace

std::vector<Vec2> random_placement(int n, const Field& field,
                                   Xoshiro256& rng) {
  std::vector<Vec2> positions;
  place_uniform(n, field, rng, positions);
  return positions;
}

std::optional<ConnectedPlacement> random_connected_placement(
    int n, const Field& field, double radius, Xoshiro256& rng,
    int max_retries) {
  if (max_retries < 1) {
    throw std::invalid_argument("random_connected_placement: max_retries < 1");
  }
  // One set of buffers for every attempt; the draws are those of
  // random_placement, so attempts and positions do not depend on them.
  std::vector<Vec2> positions;
  LinkBuilder builder;
  Graph g;
  std::vector<NodeId> stack;
  std::vector<char> seen;
  for (int attempt = 1; attempt <= max_retries; ++attempt) {
    place_uniform(n, field, rng, positions);
    builder.build(positions, radius, g);
    if (g.is_connected(stack, seen)) {
      return ConnectedPlacement{std::move(positions), std::move(g), attempt};
    }
  }
  return std::nullopt;
}

}  // namespace pacds
