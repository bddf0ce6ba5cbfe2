#include "net/geometric.hpp"

#include <stdexcept>

namespace pacds {

namespace {

/// Gabriel test for the unit-disk pair (u, v): no third point strictly
/// inside the disk with diameter uv.
bool gabriel_keeps(const std::vector<Vec2>& positions, NodeId u, NodeId v) {
  const Vec2 pu = positions[static_cast<std::size_t>(u)];
  const Vec2 pv = positions[static_cast<std::size_t>(v)];
  const Vec2 mid = (pu + pv) * 0.5;
  const double r2 = distance2(pu, pv) / 4.0;  // (|uv|/2)^2
  for (std::size_t w = 0; w < positions.size(); ++w) {
    if (w == static_cast<std::size_t>(u) || w == static_cast<std::size_t>(v)) {
      continue;
    }
    if (distance2(positions[w], mid) < r2) return false;
  }
  return true;
}

/// RNG test for the unit-disk pair (u, v): the lune is empty.
bool rng_keeps(const std::vector<Vec2>& positions, NodeId u, NodeId v) {
  const Vec2 pu = positions[static_cast<std::size_t>(u)];
  const Vec2 pv = positions[static_cast<std::size_t>(v)];
  const double d2 = distance2(pu, pv);
  for (std::size_t w = 0; w < positions.size(); ++w) {
    if (w == static_cast<std::size_t>(u) || w == static_cast<std::size_t>(v)) {
      continue;
    }
    if (distance2(positions[w], pu) < d2 && distance2(positions[w], pv) < d2) {
      return false;  // w sits in the lune
    }
  }
  return true;
}

}  // namespace

Graph build_gabriel(const std::vector<Vec2>& positions, double radius) {
  if (radius < 0.0) {
    throw std::invalid_argument("build_gabriel: negative radius");
  }
  return build_links(positions, radius, LinkModel::kGabriel);
}

Graph build_rng_graph(const std::vector<Vec2>& positions, double radius) {
  if (radius < 0.0) {
    throw std::invalid_argument("build_rng_graph: negative radius");
  }
  return build_links(positions, radius, LinkModel::kRng);
}

void build_links_into(const std::vector<Vec2>& positions, double radius,
                      LinkModel model, LinkBuilder& builder, Graph& out) {
  switch (model) {
    case LinkModel::kUnitDisk:
      builder.build(positions, radius, out);
      return;
    case LinkModel::kGabriel:
      builder.build(positions, radius, out, [&positions](NodeId u, NodeId v) {
        return gabriel_keeps(positions, u, v);
      });
      return;
    case LinkModel::kRng:
      builder.build(positions, radius, out, [&positions](NodeId u, NodeId v) {
        return rng_keeps(positions, u, v);
      });
      return;
  }
  throw std::invalid_argument("build_links: unknown model");
}

Graph build_links(const std::vector<Vec2>& positions, double radius,
                  LinkModel model) {
  Graph g;
  LinkBuilder builder;
  build_links_into(positions, radius, model, builder, g);
  return g;
}

}  // namespace pacds
