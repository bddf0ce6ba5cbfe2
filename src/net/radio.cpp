#include "net/radio.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>


namespace pacds {

namespace {

// SplitMix64 finalizer — the same mixer rng.hpp uses for seed derivation.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Hash of (seed, unordered pair, stream index) -> uniform [0, 1).
double hash_uniform(std::uint64_t seed, NodeId u, NodeId v,
                    std::uint64_t stream) {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  std::uint64_t h = mix64(seed ^ (stream * 0xd6e8feb86659fd93ULL));
  h = mix64(h ^ lo);
  h = mix64(h ^ hi);
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// The largest extra per-delivery drop a degraded pair can add in the dist
// ARQ layer. Keeps faded channels lossy but usable, so complete protocol
// runs stay reachable (the dist oracles rely on eventual delivery).
constexpr double kArqDropCap = 0.5;

}  // namespace

RadioModel::RadioModel(RadioKind kind, const RadioParams& params,
                       double radius)
    : kind_(kind), params_(params), radius_(radius) {
  if (!(radius >= 0.0)) {
    throw std::invalid_argument("RadioModel: radius must be non-negative");
  }
  if (!(params.sigma_db >= 0.0) || !std::isfinite(params.sigma_db)) {
    throw std::invalid_argument("RadioModel: sigma_db must be >= 0");
  }
  if (!(params.path_loss_exp > 0.0)) {
    throw std::invalid_argument("RadioModel: path_loss_exp must be > 0");
  }
  if (!(params.link_prob >= 0.0) || !(params.link_prob <= 1.0)) {
    throw std::invalid_argument("RadioModel: link_prob must be in [0, 1]");
  }
}

double RadioModel::pair_uniform(NodeId u, NodeId v) const {
  return hash_uniform(params_.fading_seed, u, v, 1);
}

double RadioModel::pair_normal(NodeId u, NodeId v) const {
  // Box-Muller over two decorrelated hash streams of the same pair.
  const double u1 = 1.0 - hash_uniform(params_.fading_seed, u, v, 2);
  const double u2 = hash_uniform(params_.fading_seed, u, v, 3);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

bool RadioModel::link(NodeId u, NodeId v, double d2) const {
  if (d2 > radius_ * radius_) return false;
  switch (kind_) {
    case RadioKind::kUnitDisk:
      return true;
    case RadioKind::kShadowing: {
      // Log-normal shadow on the link budget: a fade of X dB scales the
      // achievable range by 10^(X / (10 * eta)). Clipped at 1 so range
      // never exceeds the nominal radius (see header).
      const double fade_db = params_.sigma_db * pair_normal(u, v);
      const double scale = std::min(
          1.0, std::pow(10.0, fade_db / (10.0 * params_.path_loss_exp)));
      const double r_eff = radius_ * scale;
      return d2 <= r_eff * r_eff;
    }
    case RadioKind::kProbabilistic:
      return pair_uniform(u, v) < params_.link_prob;
  }
  return false;
}

double RadioModel::arq_drop(NodeId u, NodeId v) const {
  switch (kind_) {
    case RadioKind::kUnitDisk:
      return 0.0;
    case RadioKind::kShadowing: {
      // The deeper the pair's fade, the lossier its channel: reuse the link
      // fade so the geometry veto and the ARQ degradation tell one story.
      const double fade_db = params_.sigma_db * pair_normal(u, v);
      const double scale = std::clamp(
          std::pow(10.0, fade_db / (10.0 * params_.path_loss_exp)), 0.0, 1.0);
      return kArqDropCap * (1.0 - scale);
    }
    case RadioKind::kProbabilistic:
      // Per-pair residual loss proportional to how unreliable the radio is
      // overall, varied deterministically across pairs.
      return kArqDropCap * (1.0 - params_.link_prob) * pair_uniform(u, v);
  }
  return 0.0;
}

void build_radio_links_into(const std::vector<Vec2>& positions, double radius,
                            const RadioModel& radio, LinkBuilder& builder,
                            Graph& out) {
  if (radio.kind() == RadioKind::kUnitDisk) {
    builder.build(positions, radius, out);
    return;
  }
  builder.build(positions, radius, out, [&](NodeId u, NodeId v) {
    return radio.link(u, v,
                      distance2(positions[static_cast<std::size_t>(u)],
                                positions[static_cast<std::size_t>(v)]));
  });
}

Graph build_radio_links(const std::vector<Vec2>& positions, double radius,
                        const RadioModel& radio) {
  Graph g;
  LinkBuilder builder;
  build_radio_links_into(positions, radius, radio, builder, g);
  return g;
}

}  // namespace pacds
