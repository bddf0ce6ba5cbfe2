#include "net/mobility.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace pacds {

PaperJumpMobility::PaperJumpMobility(double stay_probability, int jump_min,
                                     int jump_max)
    : stay_probability_(stay_probability),
      jump_min_(jump_min),
      jump_max_(jump_max) {
  if (stay_probability < 0.0 || stay_probability > 1.0) {
    throw std::invalid_argument("PaperJumpMobility: bad stay probability");
  }
  if (jump_min < 0 || jump_max < jump_min) {
    throw std::invalid_argument("PaperJumpMobility: bad jump range");
  }
}

Vec2 PaperJumpMobility::direction(int code) {
  constexpr double d = std::numbers::sqrt2 / 2.0;  // normalized diagonal
  switch (code) {
    case 1: return {1.0, 0.0};    // E
    case 2: return {0.0, -1.0};   // S
    case 3: return {-1.0, 0.0};   // W
    case 4: return {0.0, 1.0};    // N
    case 5: return {d, -d};       // SE
    case 6: return {d, d};        // NE
    case 7: return {-d, -d};      // SW
    case 8: return {-d, d};       // NW
    default:
      throw std::invalid_argument("PaperJumpMobility: direction code " +
                                  std::to_string(code) + " not in [1..8]");
  }
}

void PaperJumpMobility::step(std::vector<Vec2>& positions, const Field& field,
                             Xoshiro256& rng) {
  constexpr double kDiag = std::numbers::sqrt2 / 2.0;
  for (auto& pos : positions) {
    // rand(0,1) < c means the host remains stable this interval.
    if (rng.uniform01() < stay_probability_) continue;
    const auto code = static_cast<int>(rng.uniform_int(1, 8));
    const auto len = static_cast<double>(
        rng.uniform_int(jump_min_, jump_max_));
    Vec3 dir = direction(code);
    if (field.is_3d()) {
      // 3-D lift: an extra pitch draw (0 = level, 1 = up 45°, 2 = down 45°)
      // after the planar draws, so the planar RNG stream is untouched when
      // the field has no depth. Diagonal pitch is normalized like the
      // compass diagonals: |displacement| == len either way.
      const auto pitch = static_cast<int>(rng.uniform_int(0, 2));
      if (pitch != 0) {
        dir = {dir.x * kDiag, dir.y * kDiag, pitch == 1 ? kDiag : -kDiag};
      }
    }
    pos = field.move(pos, dir * len);
  }
}

RandomWalkMobility::RandomWalkMobility(double step_min, double step_max)
    : step_min_(step_min), step_max_(step_max) {
  if (step_min < 0.0 || step_max < step_min) {
    throw std::invalid_argument("RandomWalkMobility: bad step range");
  }
}

void RandomWalkMobility::step(std::vector<Vec2>& positions, const Field& field,
                              Xoshiro256& rng) {
  for (auto& pos : positions) {
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double len = rng.uniform(step_min_, step_max_);
    Vec3 dir{std::cos(angle), std::sin(angle)};
    if (field.is_3d()) {
      // Uniform direction on the sphere: cos(polar) ~ U(-1, 1), drawn after
      // the planar draws so 2-D streams are bit-identical to before.
      const double cz = rng.uniform(-1.0, 1.0);
      const double sz = std::sqrt(std::max(0.0, 1.0 - cz * cz));
      dir = {dir.x * sz, dir.y * sz, cz};
    }
    pos = field.move(pos, dir * len);
  }
}

GaussMarkovMobility::GaussMarkovMobility(double mean_speed, double alpha,
                                         double speed_stddev,
                                         double heading_stddev)
    : mean_speed_(mean_speed),
      alpha_(alpha),
      speed_stddev_(speed_stddev),
      heading_stddev_(heading_stddev) {
  if (mean_speed < 0.0 || alpha < 0.0 || alpha > 1.0 || speed_stddev < 0.0 ||
      heading_stddev < 0.0) {
    throw std::invalid_argument("GaussMarkovMobility: bad parameters");
  }
}

void GaussMarkovMobility::step(std::vector<Vec2>& positions,
                               const Field& field, Xoshiro256& rng) {
  states_.resize(positions.size());
  // Box-Muller normal draw from two uniforms.
  const auto normal = [&rng]() {
    const double u1 = 1.0 - rng.uniform01();  // (0, 1]
    const double u2 = rng.uniform01();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  };
  const double memory = std::sqrt(1.0 - alpha_ * alpha_);
  // Angles are folded into [0, 2π) every step. The AR recurrence only ever
  // adds increments, so an unfolded angle grows without bound over a long
  // lifetime and sin/cos progressively lose precision; folding keeps the
  // argument small while the 2π-periodicity keeps the trajectory the same.
  constexpr double kTau = 2.0 * std::numbers::pi;
  const auto fold_angle = [](double a) {
    double m = std::fmod(a, kTau);
    if (m < 0.0) m += kTau;
    return m;
  };
  for (std::size_t i = 0; i < positions.size(); ++i) {
    auto& st = states_[i];
    if (!st.initialized) {
      st.speed = mean_speed_;
      st.heading = rng.uniform(0.0, kTau);
      st.pitch = 0.0;  // level start; only evolves in a 3-D field
      st.initialized = true;
    }
    st.speed = alpha_ * st.speed + (1.0 - alpha_) * mean_speed_ +
               memory * speed_stddev_ * normal();
    st.speed = std::max(0.0, st.speed);
    // Mean heading drifts toward the current heading (no global bias).
    st.heading = fold_angle(st.heading + memory * heading_stddev_ * normal());
    Vec3 dir{std::cos(st.heading), std::sin(st.heading)};
    if (field.is_3d()) {
      // Pitch follows the same zero-mean AR recurrence as heading (the
      // extra normal draw comes after the planar ones, so planar streams
      // are unchanged by the 3-D lift).
      st.pitch = fold_angle(st.pitch + memory * heading_stddev_ * normal());
      const double cp = std::cos(st.pitch);
      dir = {cp * dir.x, cp * dir.y, std::sin(st.pitch)};
    }
    positions[i] = field.move(positions[i], dir * st.speed);
  }
}

std::unique_ptr<MobilityModel> make_mobility(MobilityKind kind,
                                             const MobilityParams& params) {
  switch (kind) {
    case MobilityKind::kPaperJump:
      return std::make_unique<PaperJumpMobility>(
          params.stay_probability, params.jump_min, params.jump_max);
    case MobilityKind::kRandomWalk:
      return std::make_unique<RandomWalkMobility>(params.step_min,
                                                  params.step_max);
    case MobilityKind::kRandomWaypoint:
      return std::make_unique<RandomWaypointMobility>(
          params.speed_min, params.speed_max, params.pause_intervals);
    case MobilityKind::kGaussMarkov:
      return std::make_unique<GaussMarkovMobility>(
          params.mean_speed, params.alpha, params.speed_stddev,
          params.heading_stddev);
    case MobilityKind::kStatic:
      return std::make_unique<StaticMobility>();
  }
  throw std::invalid_argument("make_mobility: unknown kind");
}

RandomWaypointMobility::RandomWaypointMobility(double speed_min,
                                               double speed_max,
                                               int pause_intervals)
    : speed_min_(speed_min),
      speed_max_(speed_max),
      pause_intervals_(pause_intervals) {
  if (speed_min < 0.0 || speed_max < speed_min || pause_intervals < 0) {
    throw std::invalid_argument("RandomWaypointMobility: bad parameters");
  }
}

void RandomWaypointMobility::step(std::vector<Vec2>& positions,
                                  const Field& field, Xoshiro256& rng) {
  states_.resize(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    auto& st = states_[i];
    auto& pos = positions[i];
    if (st.pause_left > 0) {
      --st.pause_left;
      continue;
    }
    if (!st.has_target) {
      st.target = {rng.uniform(0.0, field.width()),
                   rng.uniform(0.0, field.height())};
      // Waypoints in a 3-D field are drawn in the full box; the z draw sits
      // between the planar target and the speed so planar streams keep
      // their historical order.
      if (field.is_3d()) st.target.z = rng.uniform(0.0, field.depth());
      st.speed = rng.uniform(speed_min_, speed_max_);
      st.has_target = true;
    }
    const Vec2 to_target = st.target - pos;
    const double dist = to_target.norm();
    if (dist <= st.speed || dist == 0.0) {
      pos = st.target;
      st.has_target = false;
      st.pause_left = pause_intervals_;
    } else {
      pos = field.move(pos, to_target * (st.speed / dist));
    }
  }
}

}  // namespace pacds
