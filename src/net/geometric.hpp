#pragma once
// Geometric proximity graphs beyond the unit disk: the Gabriel graph and
// the relative neighborhood graph (RNG), both classic sparser link models
// in ad hoc networking (planar, connected subgraphs of the UDG on the same
// point set). Used for "different settings" sensitivity studies: the
// marking process and rules operate on any undirected graph.

#include <cstdint>
#include <string>
#include <vector>

#include "core/enum_names.hpp"
#include "core/graph.hpp"
#include "net/udg.hpp"
#include "net/vec2.hpp"

namespace pacds {

/// Proximity-graph selector for simulation configs.
enum class LinkModel : std::uint8_t { kUnitDisk, kGabriel, kRng };

constexpr auto enum_names(LinkModel) {
  return std::to_array<EnumName<LinkModel>>(
      {{LinkModel::kUnitDisk, "unit-disk"},
       {LinkModel::kGabriel, "gabriel"},
       {LinkModel::kRng, "rng"}});
}

/// Builds the selected proximity graph over `positions`.
[[nodiscard]] Graph build_links(const std::vector<Vec2>& positions,
                                double radius, LinkModel model);

/// As build_links, rebuilding `out` in place through `builder`: the
/// Gabriel and RNG tests filter the unit-disk pairs inside the bulk build.
/// Allocation-free once the builder and `out` are warm.
void build_links_into(const std::vector<Vec2>& positions, double radius,
                      LinkModel model, LinkBuilder& builder, Graph& out);

/// Gabriel graph restricted to `radius`: u-v linked iff |uv| <= radius and
/// no third point lies strictly inside the disk with diameter uv.
[[nodiscard]] Graph build_gabriel(const std::vector<Vec2>& positions,
                                  double radius);

/// Relative neighborhood graph restricted to `radius`: u-v linked iff
/// |uv| <= radius and no third point w has max(|uw|, |vw|) < |uv|
/// (the "lune" is empty). RNG ⊆ Gabriel ⊆ UDG.
[[nodiscard]] Graph build_rng_graph(const std::vector<Vec2>& positions,
                                    double radius);

}  // namespace pacds
