#pragma once
// Radio/propagation models generalizing the paper's pure unit disk. The
// model decides, per host pair, (a) whether a link exists at all and (b) an
// extra ARQ-visible delivery drop probability for the dist layer's faulty
// channel. All randomness is a deterministic hash of (fading_seed, u, v):
// the same pair fades the same way in every engine, every interval and every
// process, so trials stay pure functions of (config, seed) and the
// incremental engines can re-evaluate any single pair in isolation.
//
// Shadowing is *downward-truncated*: a pair's effective radius is
// r * min(1, 10^(fade_db / (10 * path_loss_exp))), i.e. fading can only
// shrink range below the nominal radius, never extend it. That keeps the
// nominal radius a hard upper bound on link length — the contract the
// SpatialGrid cell ring and the tile dirt radii are built on. (Physically:
// the nominal radius is the best-case range and the log-normal shadow only
// attenuates; upward fades are clipped.)

#include <cstdint>
#include <string>

#include "core/enum_names.hpp"
#include "core/graph.hpp"
#include "net/udg.hpp"
#include "net/vec2.hpp"

namespace pacds {

/// Which propagation model gates candidate links.
enum class RadioKind : std::uint8_t {
  kUnitDisk,       ///< link iff distance <= radius (the paper's model)
  kShadowing,      ///< per-pair log-normal fade shrinks the effective radius
  kProbabilistic,  ///< link iff distance <= radius and a per-pair coin lands
};

constexpr auto enum_names(RadioKind) {
  return std::to_array<EnumName<RadioKind>>(
      {{RadioKind::kUnitDisk, "unit-disk"},
       {RadioKind::kShadowing, "shadowing"},
       {RadioKind::kProbabilistic, "probabilistic"}});
}

struct RadioParams {
  double sigma_db = 4.0;       ///< shadowing: fade stddev in dB
  double path_loss_exp = 3.0;  ///< shadowing: path-loss exponent (eta)
  double link_prob = 0.85;     ///< probabilistic: per-pair link probability
  std::uint64_t fading_seed = 1;  ///< per-pair hash seed (all kinds)

  bool operator==(const RadioParams&) const = default;
};

/// Deterministic per-pair link/drop decisions. Copyable value type; cheap
/// enough to evaluate per candidate pair inside the engines' hot loops.
class RadioModel {
 public:
  RadioModel(RadioKind kind, const RadioParams& params, double radius);

  [[nodiscard]] RadioKind kind() const noexcept { return kind_; }

  /// True iff the pair (u, v) is linked at squared distance `d2`. Symmetric
  /// in (u, v). Requires d2 <= radius^2 candidates only in the unit-disk
  /// sense — callers pre-filter by the nominal radius (grid query / UDG),
  /// and this predicate can only veto, never add.
  [[nodiscard]] bool link(NodeId u, NodeId v, double d2) const;

  /// Extra delivery-drop probability the pair's channel suffers, for the
  /// dist ARQ layer: 0 for unit disk; for shadowing/probabilistic a
  /// deterministic per-pair value in [0, drop cap] that worsens with the
  /// pair's fade. Independent of current distance (the dist layer has no
  /// geometry), symmetric in (u, v).
  [[nodiscard]] double arq_drop(NodeId u, NodeId v) const;

 private:
  /// Uniform in [0, 1), deterministic in (fading_seed, {u, v}).
  [[nodiscard]] double pair_uniform(NodeId u, NodeId v) const;
  /// Standard normal via Box-Muller on two decorrelated pair hashes.
  [[nodiscard]] double pair_normal(NodeId u, NodeId v) const;

  RadioKind kind_;
  RadioParams params_;
  double radius_;
};

/// Builds the proximity graph gated by `radio` on top of the nominal
/// unit-disk candidates: every UDG edge survives iff radio.link says so.
/// With RadioKind::kUnitDisk this is exactly build_udg.
[[nodiscard]] Graph build_radio_links(const std::vector<Vec2>& positions,
                                      double radius, const RadioModel& radio);

/// As build_radio_links, rebuilding `out` in place through `builder`: the
/// radio decides each unit-disk pair once, inside the bulk build.
void build_radio_links_into(const std::vector<Vec2>& positions, double radius,
                            const RadioModel& radio, LinkBuilder& builder,
                            Graph& out);

}  // namespace pacds
