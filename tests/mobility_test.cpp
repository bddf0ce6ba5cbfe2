// Tests for the mobility models, especially the paper's 8-direction jump
// model (stay probability, jump lengths, direction vectors).

#include "net/mobility.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace pacds {
namespace {

TEST(PaperJumpTest, DirectionVectorsAreUnit) {
  for (int code = 1; code <= 8; ++code) {
    EXPECT_NEAR(PaperJumpMobility::direction(code).norm(), 1.0, 1e-12)
        << "code " << code;
  }
}

TEST(PaperJumpTest, DirectionCodesMatchPaperOrder) {
  // E, S, W, N, SE, NE, SW, NW.
  EXPECT_EQ(PaperJumpMobility::direction(1), Vec2(1.0, 0.0));
  EXPECT_EQ(PaperJumpMobility::direction(2), Vec2(0.0, -1.0));
  EXPECT_EQ(PaperJumpMobility::direction(3), Vec2(-1.0, 0.0));
  EXPECT_EQ(PaperJumpMobility::direction(4), Vec2(0.0, 1.0));
  EXPECT_GT(PaperJumpMobility::direction(5).x, 0.0);  // SE
  EXPECT_LT(PaperJumpMobility::direction(5).y, 0.0);
  EXPECT_GT(PaperJumpMobility::direction(6).x, 0.0);  // NE
  EXPECT_GT(PaperJumpMobility::direction(6).y, 0.0);
  EXPECT_LT(PaperJumpMobility::direction(7).x, 0.0);  // SW
  EXPECT_LT(PaperJumpMobility::direction(7).y, 0.0);
  EXPECT_LT(PaperJumpMobility::direction(8).x, 0.0);  // NW
  EXPECT_GT(PaperJumpMobility::direction(8).y, 0.0);
}

TEST(PaperJumpTest, BadDirectionThrows) {
  EXPECT_THROW((void)PaperJumpMobility::direction(0), std::invalid_argument);
  EXPECT_THROW((void)PaperJumpMobility::direction(9), std::invalid_argument);
}

TEST(PaperJumpTest, BadParamsThrow) {
  EXPECT_THROW(PaperJumpMobility(-0.1), std::invalid_argument);
  EXPECT_THROW(PaperJumpMobility(1.1), std::invalid_argument);
  EXPECT_THROW(PaperJumpMobility(0.5, 5, 2), std::invalid_argument);
  EXPECT_THROW(PaperJumpMobility(0.5, -1, 2), std::invalid_argument);
}

TEST(PaperJumpTest, StayProbabilityOneFreezesEverything) {
  PaperJumpMobility mobility(1.0);
  Xoshiro256 rng(1);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts{{10.0, 10.0}, {50.0, 50.0}};
  const auto before = pts;
  for (int i = 0; i < 20; ++i) mobility.step(pts, field, rng);
  EXPECT_EQ(pts[0], before[0]);
  EXPECT_EQ(pts[1], before[1]);
}

TEST(PaperJumpTest, StayProbabilityZeroMovesEveryone) {
  PaperJumpMobility mobility(0.0);
  Xoshiro256 rng(2);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts{{50.0, 50.0}};
  const Vec2 before = pts[0];
  mobility.step(pts, field, rng);
  EXPECT_NE(pts[0], before);
}

TEST(PaperJumpTest, JumpLengthWithinRange) {
  PaperJumpMobility mobility(0.0, 1, 6);
  Xoshiro256 rng(3);
  const Field field(1000.0, 1000.0);  // huge field: no boundary folding
  std::vector<Vec2> pts{{500.0, 500.0}};
  for (int i = 0; i < 500; ++i) {
    const Vec2 before = pts[0];
    mobility.step(pts, field, rng);
    const double len = distance(before, pts[0]);
    EXPECT_GE(len, 1.0 - 1e-9);
    EXPECT_LE(len, 6.0 + 1e-9);
  }
}

TEST(PaperJumpTest, StaysInsideField) {
  PaperJumpMobility mobility(0.5);
  Xoshiro256 rng(4);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts{{0.0, 0.0}, {99.9, 99.9}, {50.0, 0.1}};
  for (int i = 0; i < 200; ++i) {
    mobility.step(pts, field, rng);
    for (const Vec2 p : pts) EXPECT_TRUE(field.contains(p));
  }
}

TEST(PaperJumpTest, ApproximatelyHalfStay) {
  PaperJumpMobility mobility(0.5);
  Xoshiro256 rng(5);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts(1000, Vec2{50.0, 50.0});
  mobility.step(pts, field, rng);
  int stayed = 0;
  for (const Vec2 p : pts) {
    if (p == Vec2{50.0, 50.0}) ++stayed;
  }
  EXPECT_NEAR(stayed, 500, 60);
}

TEST(RandomWalkTest, StepLengthInRange) {
  RandomWalkMobility mobility(2.0, 3.0);
  Xoshiro256 rng(6);
  const Field field(1000.0, 1000.0);
  std::vector<Vec2> pts{{500.0, 500.0}};
  for (int i = 0; i < 200; ++i) {
    const Vec2 before = pts[0];
    mobility.step(pts, field, rng);
    const double len = distance(before, pts[0]);
    EXPECT_GE(len, 2.0 - 1e-9);
    EXPECT_LE(len, 3.0 + 1e-9);
  }
}

TEST(RandomWalkTest, BadRangeThrows) {
  EXPECT_THROW(RandomWalkMobility(3.0, 2.0), std::invalid_argument);
  EXPECT_THROW(RandomWalkMobility(-1.0, 2.0), std::invalid_argument);
}

TEST(RandomWaypointTest, ConvergesToTargets) {
  RandomWaypointMobility mobility(5.0, 5.0, 0);
  Xoshiro256 rng(7);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts{{0.0, 0.0}};
  Vec2 prev = pts[0];
  double traveled = 0.0;
  for (int i = 0; i < 100; ++i) {
    mobility.step(pts, field, rng);
    traveled += distance(prev, pts[0]);
    prev = pts[0];
    EXPECT_TRUE(field.contains(pts[0]));
  }
  EXPECT_GT(traveled, 100.0);  // keeps moving leg after leg
}

TEST(RandomWaypointTest, PauseHolds) {
  RandomWaypointMobility mobility(200.0, 200.0, 3);  // reach target in 1 step
  Xoshiro256 rng(8);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts{{0.0, 0.0}};
  mobility.step(pts, field, rng);  // arrives at waypoint
  const Vec2 at_target = pts[0];
  for (int i = 0; i < 3; ++i) {
    mobility.step(pts, field, rng);
    EXPECT_EQ(pts[0], at_target) << "pause step " << i;
  }
  mobility.step(pts, field, rng);
  EXPECT_NE(pts[0], at_target);
}

TEST(RandomWaypointTest, BadParamsThrow) {
  EXPECT_THROW(RandomWaypointMobility(3.0, 2.0), std::invalid_argument);
  EXPECT_THROW(RandomWaypointMobility(1.0, 2.0, -1), std::invalid_argument);
}

TEST(StaticMobilityTest, NeverMoves) {
  StaticMobility mobility;
  Xoshiro256 rng(9);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts{{10.0, 20.0}};
  mobility.step(pts, field, rng);
  EXPECT_EQ(pts[0], Vec2(10.0, 20.0));
}

TEST(GaussMarkovTest, BadParamsThrow) {
  EXPECT_THROW(GaussMarkovMobility(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(GaussMarkovMobility(3.0, -0.1), std::invalid_argument);
  EXPECT_THROW(GaussMarkovMobility(3.0, 1.1), std::invalid_argument);
  EXPECT_THROW(GaussMarkovMobility(3.0, 0.5, -1.0), std::invalid_argument);
  EXPECT_THROW(GaussMarkovMobility(3.0, 0.5, 1.0, -0.5),
               std::invalid_argument);
}

TEST(GaussMarkovTest, StaysInField) {
  GaussMarkovMobility mobility(4.0, 0.8);
  Xoshiro256 rng(21);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts{{1.0, 1.0}, {99.0, 99.0}, {50.0, 50.0}};
  for (int i = 0; i < 300; ++i) {
    mobility.step(pts, field, rng);
    for (const Vec2 p : pts) EXPECT_TRUE(field.contains(p));
  }
}

TEST(GaussMarkovTest, AlphaOneCruisesStraight) {
  // With alpha = 1 the process keeps its initial speed and heading exactly
  // (the innovation term has weight sqrt(1 - alpha^2) = 0).
  GaussMarkovMobility mobility(2.0, 1.0);
  Xoshiro256 rng(22);
  const Field field(10000.0, 10000.0);
  std::vector<Vec2> pts{{5000.0, 5000.0}};
  mobility.step(pts, field, rng);
  const Vec2 first_delta = pts[0] - Vec2{5000.0, 5000.0};
  const Vec2 before = pts[0];
  mobility.step(pts, field, rng);
  const Vec2 second_delta = pts[0] - before;
  EXPECT_NEAR(first_delta.x, second_delta.x, 1e-9);
  EXPECT_NEAR(first_delta.y, second_delta.y, 1e-9);
  EXPECT_NEAR(first_delta.norm(), 2.0, 1e-9);
}

TEST(GaussMarkovTest, SmootherThanRandomWalk) {
  // Temporal correlation: consecutive displacement vectors of Gauss-Markov
  // motion (high alpha) should align far more than a memoryless walk's.
  const auto mean_cosine = [](MobilityModel& model, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const Field field(100000.0, 100000.0);
    std::vector<Vec2> pts{{50000.0, 50000.0}};
    Vec2 prev_delta{0.0, 0.0};
    Vec2 prev_pos = pts[0];
    double sum = 0.0;
    int count = 0;
    for (int i = 0; i < 400; ++i) {
      model.step(pts, field, rng);
      const Vec2 delta = pts[0] - prev_pos;
      prev_pos = pts[0];
      if (i > 0 && prev_delta.norm() > 1e-12 && delta.norm() > 1e-12) {
        sum += prev_delta.dot(delta) / (prev_delta.norm() * delta.norm());
        ++count;
      }
      prev_delta = delta;
    }
    return sum / count;
  };
  GaussMarkovMobility smooth(3.0, 0.9);
  RandomWalkMobility jumpy(1.0, 6.0);
  EXPECT_GT(mean_cosine(smooth, 23), mean_cosine(jumpy, 23) + 0.3);
}

template <typename Model>
bool builds(MobilityKind kind) {
  return dynamic_cast<const Model*>(make_mobility(kind).get()) != nullptr;
}

TEST(MobilityFactoryTest, BuildsEveryKind) {
  EXPECT_TRUE(builds<PaperJumpMobility>(MobilityKind::kPaperJump));
  EXPECT_TRUE(builds<RandomWalkMobility>(MobilityKind::kRandomWalk));
  EXPECT_TRUE(builds<RandomWaypointMobility>(MobilityKind::kRandomWaypoint));
  EXPECT_TRUE(builds<GaussMarkovMobility>(MobilityKind::kGaussMarkov));
  EXPECT_TRUE(builds<StaticMobility>(MobilityKind::kStatic));
}

TEST(MobilityFactoryTest, ParamsForwarded) {
  MobilityParams params;
  params.stay_probability = 1.0;  // frozen paper-jump
  const auto model = make_mobility(MobilityKind::kPaperJump, params);
  Xoshiro256 rng(24);
  const Field field = Field::paper_field();
  std::vector<Vec2> pts{{10.0, 10.0}};
  model->step(pts, field, rng);
  EXPECT_EQ(pts[0], Vec2(10.0, 10.0));
}

// The model folds its heading into [0, 2π) each step so long runs never
// feed sin/cos a huge argument. Folding is pure 2π-periodicity, so the
// trajectory must match an unfolded reference recurrence draw for draw.
// (The heading fold once collapsed the *mean* term too, which bent every
// long trajectory — this reference comparison pins the fix.)
TEST(GaussMarkovTest, FoldedHeadingMatchesUnfoldedReferenceTrajectory) {
  constexpr double kMeanSpeed = 3.0;
  constexpr double kAlpha = 0.8;
  constexpr double kSpeedStddev = 1.0;
  constexpr double kHeadingStddev = 0.5;
  constexpr int kIntervals = 500;
  constexpr double kTau = 2.0 * std::numbers::pi;

  // Huge clamped field so no boundary folding perturbs either trajectory.
  const Field field(1e6, 1e6, BoundaryPolicy::kClamp);
  const auto model = make_mobility(
      MobilityKind::kGaussMarkov,
      {.mean_speed = kMeanSpeed, .alpha = kAlpha,
       .speed_stddev = kSpeedStddev, .heading_stddev = kHeadingStddev});
  std::vector<Vec2> pts{{5e5, 5e5}};

  // Unfolded reference: the same AR(1) recurrences on the same RNG stream,
  // with the heading accumulating without bound.
  Xoshiro256 rng(2024);
  Xoshiro256 ref_rng(2024);
  const auto normal = [&ref_rng]() {
    const double u1 = 1.0 - ref_rng.uniform01();
    const double u2 = ref_rng.uniform01();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTau * u2);
  };
  const double memory = std::sqrt(1.0 - kAlpha * kAlpha);
  Vec2 ref_pos{5e5, 5e5};
  double speed = kMeanSpeed;
  double heading = 0.0;
  bool initialized = false;
  for (int t = 0; t < kIntervals; ++t) {
    model->step(pts, field, rng);
    if (!initialized) {
      heading = ref_rng.uniform(0.0, kTau);
      initialized = true;
    }
    speed = std::max(0.0, kAlpha * speed + (1.0 - kAlpha) * kMeanSpeed +
                              memory * kSpeedStddev * normal());
    heading += memory * kHeadingStddev * normal();  // never folded
    ref_pos = ref_pos +
              Vec2{std::cos(heading), std::sin(heading)} * speed;
    ASSERT_NEAR(pts[0].x, ref_pos.x, 1e-6) << "interval " << t;
    ASSERT_NEAR(pts[0].y, ref_pos.y, 1e-6) << "interval " << t;
  }
}

}  // namespace
}  // namespace pacds
