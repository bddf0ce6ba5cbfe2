#pragma once
// Host mobility models. The paper's model (Section 4): in each update
// interval a host stays put with probability c, otherwise jumps l ∈ [1..6]
// units in one of the eight compass directions. Random-walk, random-waypoint
// and Gauss-Markov models are provided as extensions for sensitivity
// studies. Every model lifts to 3-D when the field has depth: the extra
// vertical draws happen strictly after the planar ones, so a planar field
// consumes exactly the RNG stream it always did.

#include <memory>
#include <vector>

#include "core/enum_names.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/vec2.hpp"

namespace pacds {

/// Advances all host positions by one update interval.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  virtual void step(std::vector<Vec2>& positions, const Field& field,
                    Xoshiro256& rng) = 0;
};

/// The paper's movement model: with probability `1 - stay_probability` the
/// host moves `rand[jump_min..jump_max]` units in direction `rand[1..8]`
/// (E, S, W, N, SE, NE, SW, NW). Diagonal jumps are normalized so the
/// displacement magnitude equals the drawn length.
class PaperJumpMobility final : public MobilityModel {
 public:
  explicit PaperJumpMobility(double stay_probability = 0.5, int jump_min = 1,
                             int jump_max = 6);

  void step(std::vector<Vec2>& positions, const Field& field,
            Xoshiro256& rng) override;

  /// Unit vector of paper direction code 1..8.
  [[nodiscard]] static Vec2 direction(int code);

 private:
  double stay_probability_;
  int jump_min_;
  int jump_max_;
};

/// Isotropic random walk: every host moves a uniform [step_min, step_max]
/// distance at a uniform angle each interval.
class RandomWalkMobility final : public MobilityModel {
 public:
  RandomWalkMobility(double step_min, double step_max);

  void step(std::vector<Vec2>& positions, const Field& field,
            Xoshiro256& rng) override;

 private:
  double step_min_;
  double step_max_;
};

/// Random waypoint: each host walks toward a uniformly chosen target at a
/// per-leg uniform speed, pausing `pause_intervals` when it arrives.
class RandomWaypointMobility final : public MobilityModel {
 public:
  RandomWaypointMobility(double speed_min, double speed_max,
                         int pause_intervals = 0);

  void step(std::vector<Vec2>& positions, const Field& field,
            Xoshiro256& rng) override;

 private:
  struct HostState {
    Vec2 target;
    double speed = 0.0;
    int pause_left = 0;
    bool has_target = false;
  };

  double speed_min_;
  double speed_max_;
  int pause_intervals_;
  std::vector<HostState> states_;
};

/// Gauss-Markov mobility: speed and heading evolve as first-order
/// autoregressive processes, giving temporally-correlated, smooth motion —
/// the standard contrast to memoryless jump models in ad hoc network
/// evaluation. `alpha` in [0, 1] tunes memory: 1 = straight-line cruise,
/// 0 = fully random each interval.
class GaussMarkovMobility final : public MobilityModel {
 public:
  GaussMarkovMobility(double mean_speed, double alpha,
                      double speed_stddev = 1.0, double heading_stddev = 0.5);

  void step(std::vector<Vec2>& positions, const Field& field,
            Xoshiro256& rng) override;

 private:
  struct HostState {
    double speed = 0.0;
    double heading = 0.0;
    double pitch = 0.0;  ///< vertical angle; stays 0 in a planar field
    bool initialized = false;
  };

  double mean_speed_;
  double alpha_;
  double speed_stddev_;
  double heading_stddev_;
  std::vector<HostState> states_;
};

/// Hosts never move (baseline / debugging).
class StaticMobility final : public MobilityModel {
 public:
  void step(std::vector<Vec2>&, const Field&, Xoshiro256&) override {}
};

/// Mobility model selector for configuration structs.
enum class MobilityKind : std::uint8_t {
  kPaperJump,
  kRandomWalk,
  kRandomWaypoint,
  kGaussMarkov,
  kStatic,
};

constexpr auto enum_names(MobilityKind) {
  return std::to_array<EnumName<MobilityKind>>(
      {{MobilityKind::kPaperJump, "paper-jump"},
       {MobilityKind::kRandomWalk, "random-walk"},
       {MobilityKind::kRandomWaypoint, "random-waypoint"},
       {MobilityKind::kGaussMarkov, "gauss-markov"},
       {MobilityKind::kStatic, "static"}});
}

/// Parameter superset for the factory; each model reads its own fields.
struct MobilityParams {
  // paper jump
  double stay_probability = 0.5;
  int jump_min = 1;
  int jump_max = 6;
  // random walk
  double step_min = 1.0;
  double step_max = 6.0;
  // random waypoint
  double speed_min = 1.0;
  double speed_max = 6.0;
  int pause_intervals = 0;
  // Gauss-Markov
  double mean_speed = 3.0;
  double alpha = 0.75;
  double speed_stddev = 1.0;
  double heading_stddev = 0.5;
};

/// Builds the selected mobility model.
[[nodiscard]] std::unique_ptr<MobilityModel> make_mobility(
    MobilityKind kind, const MobilityParams& params = {});

}  // namespace pacds
