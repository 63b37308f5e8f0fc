// Tests for the 3-D rotation utility, the body-sensor-network simulator,
// and the HAR-like generator.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "core/cutting_plane.hpp"
#include "sensing/body_sensor.hpp"
#include "sensing/har.hpp"
#include "sensing/rotation3d.hpp"

namespace plos::sensing {
namespace {

int predict(const core::SvmFit& fit, std::span<const double> x) {
  return linalg::dot(fit.weights, x) >= 0.0 ? 1 : -1;
}

TEST(Rotation3, IdentityLeavesVectorsAlone) {
  const Rotation3 r;
  const Vec3 v{1.0, 2.0, 3.0};
  const Vec3 out = r.apply(v);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_DOUBLE_EQ(out[2], 3.0);
}

TEST(Rotation3, QuarterTurnAboutZ) {
  const Rotation3 r =
      Rotation3::axis_angle({0.0, 0.0, 1.0}, std::numbers::pi / 2.0);
  const Vec3 out = r.apply({1.0, 0.0, 0.0});
  EXPECT_NEAR(out[0], 0.0, 1e-12);
  EXPECT_NEAR(out[1], 1.0, 1e-12);
  EXPECT_NEAR(out[2], 0.0, 1e-12);
}

TEST(Rotation3, PreservesNorm) {
  rng::Engine engine(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Rotation3 r = Rotation3::random(engine, std::numbers::pi);
    const Vec3 v{engine.gaussian(), engine.gaussian(), engine.gaussian()};
    EXPECT_NEAR(norm3(r.apply(v)), norm3(v), 1e-12);
  }
}

TEST(Rotation3, ComposeMatchesSequentialApplication) {
  rng::Engine engine(2);
  const Rotation3 a = Rotation3::random(engine, 2.0);
  const Rotation3 b = Rotation3::random(engine, 2.0);
  const Vec3 v{1.0, -2.0, 0.5};
  const Vec3 lhs = a.compose(b).apply(v);
  const Vec3 rhs = a.apply(b.apply(v));
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-12);
}

TEST(Rotation3, ZeroAxisThrows) {
  EXPECT_THROW(Rotation3::axis_angle({0.0, 0.0, 0.0}, 1.0), PreconditionError);
}

TEST(BodySensor, DatasetShape) {
  BodySensorSpec spec;
  spec.num_users = 4;
  rng::Engine engine(3);
  const auto d = generate_body_sensor_dataset(spec, engine);
  EXPECT_EQ(d.num_users(), 4u);
  EXPECT_EQ(d.dim(), 121u);  // 120 features + bias
  for (const auto& u : d.users) {
    // 2260 samples per activity -> 69 windows per activity, two activities.
    EXPECT_EQ(u.num_samples(), 138u);
    std::size_t standing = 0;
    for (int y : u.true_labels) {
      if (y == kStandingLabel) ++standing;
    }
    EXPECT_EQ(standing, 69u);
  }
}

TEST(BodySensor, NoBiasNoStandardizeOption) {
  BodySensorSpec spec;
  spec.num_users = 2;
  spec.seconds_per_activity = 10.0;
  spec.standardize = false;
  spec.add_bias_dimension = false;
  rng::Engine engine(4);
  const auto d = generate_body_sensor_dataset(spec, engine);
  EXPECT_EQ(d.dim(), 120u);
}

TEST(BodySensor, DeterministicGivenSeed) {
  BodySensorSpec spec;
  spec.num_users = 2;
  spec.seconds_per_activity = 10.0;
  rng::Engine e1(5), e2(5);
  const auto d1 = generate_body_sensor_dataset(spec, e1);
  const auto d2 = generate_body_sensor_dataset(spec, e2);
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t i = 0; i < d1.users[t].num_samples(); ++i) {
      EXPECT_TRUE(linalg::approx_equal(d1.users[t].samples[i],
                                       d2.users[t].samples[i], 0.0));
    }
  }
}

TEST(BodySensor, SignalLayerShape) {
  BodySensorSpec spec;
  spec.seconds_per_activity = 5.0;
  rng::Engine engine(6);
  const auto archetypes = sample_placement_archetypes(spec, engine);
  EXPECT_EQ(archetypes.styles.size(), spec.num_wearing_styles);
  const UserTraits traits = sample_user_traits(spec, archetypes, engine);
  const auto nodes =
      simulate_user_activity(spec, traits, Activity::kStandingRest, engine);
  ASSERT_EQ(nodes.size(), kNumBodyNodes);
  for (const auto& node : nodes) {
    EXPECT_EQ(node.num_samples(), 100u);  // 5 s at 20 Hz
  }
}

TEST(BodySensor, ActivitiesAreLinearlySeparablePerUser) {
  // A personalized linear classifier on a user's own labeled windows should
  // get high training accuracy — the two postures differ in shin gravity.
  BodySensorSpec spec;
  spec.num_users = 3;
  rng::Engine engine(7);
  const auto d = generate_body_sensor_dataset(spec, engine);
  for (const auto& user : d.users) {
    const auto model = core::fit_svm(user.samples, user.true_labels, 1.0);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < user.num_samples(); ++i) {
      if (predict(model, user.samples[i]) == user.true_labels[i]) ++correct;
    }
    EXPECT_GT(static_cast<double>(correct) /
                  static_cast<double>(user.num_samples()),
              0.95);
  }
}

TEST(BodySensor, UsersDifferMoreThanActivitiesOverlap) {
  // The per-user mounting rotation must create real inter-user variation:
  // a classifier trained on user 0's labels should transfer imperfectly to
  // other users (this is exactly the effect PLOS exploits).
  BodySensorSpec spec;
  spec.num_users = 6;
  rng::Engine engine(8);
  const auto d = generate_body_sensor_dataset(spec, engine);
  const auto model =
      core::fit_svm(d.users[0].samples, d.users[0].true_labels, 1.0);
  double worst_transfer = 1.0;
  for (std::size_t t = 1; t < d.num_users(); ++t) {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < d.users[t].num_samples(); ++i) {
      if (predict(model, d.users[t].samples[i]) == d.users[t].true_labels[i]) {
        ++correct;
      }
    }
    worst_transfer = std::min(
        worst_transfer, static_cast<double>(correct) /
                            static_cast<double>(d.users[t].num_samples()));
  }
  EXPECT_LT(worst_transfer, 0.9);
}

TEST(Har, DatasetShape) {
  HarSpec spec;
  spec.num_users = 5;
  spec.dim = 50;
  spec.samples_per_class = 20;
  rng::Engine engine(9);
  const auto d = generate_har_dataset(spec, engine);
  EXPECT_EQ(d.num_users(), 5u);
  EXPECT_EQ(d.dim(), 51u);  // + bias
  for (const auto& u : d.users) EXPECT_EQ(u.num_samples(), 40u);
}

TEST(Har, DefaultSpecMatchesPaperDimensions) {
  HarSpec spec;
  spec.num_users = 2;  // keep the test fast; dim stays 561
  rng::Engine engine(10);
  const auto d = generate_har_dataset(spec, engine);
  EXPECT_EQ(d.dim(), 562u);
  EXPECT_EQ(d.users[0].num_samples(), 100u);
}

TEST(Har, ClassesLearnablePerUser) {
  HarSpec spec;
  spec.num_users = 3;
  spec.dim = 100;
  spec.samples_per_class = 40;
  rng::Engine engine(11);
  const auto d = generate_har_dataset(spec, engine);
  for (const auto& user : d.users) {
    const auto model = core::fit_svm(user.samples, user.true_labels, 1.0);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < user.num_samples(); ++i) {
      if (predict(model, user.samples[i]) == user.true_labels[i]) ++correct;
    }
    EXPECT_GT(static_cast<double>(correct) /
                  static_cast<double>(user.num_samples()),
              0.9);
  }
}

TEST(Har, TraitStrengthKnobIncreasesUserVariation) {
  // With zero trait scales all users share one distribution; with large
  // scales a classifier from user 0 transfers worse.
  const auto transfer_accuracy = [](double direction_scale,
                                    double offset_scale) {
    HarSpec spec;
    spec.num_users = 4;
    spec.dim = 80;
    spec.samples_per_class = 40;
    spec.trait_direction_scale = direction_scale;
    spec.trait_offset_scale = offset_scale;
    rng::Engine engine(12);
    const auto d = generate_har_dataset(spec, engine);
    const auto model =
        core::fit_svm(d.users[0].samples, d.users[0].true_labels, 1.0);
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t t = 1; t < d.num_users(); ++t) {
      for (std::size_t i = 0; i < d.users[t].num_samples(); ++i) {
        total += predict(model, d.users[t].samples[i]) ==
                         d.users[t].true_labels[i]
                     ? 1.0
                     : 0.0;
        ++count;
      }
    }
    return total / static_cast<double>(count);
  };
  EXPECT_GT(transfer_accuracy(0.0, 0.0), transfer_accuracy(1.5, 3.0) + 0.05);
}

TEST(Har, InvalidSpecThrows) {
  HarSpec spec;
  spec.trait_rank = 0;
  rng::Engine engine(13);
  EXPECT_THROW(generate_har_dataset(spec, engine), PreconditionError);
}

}  // namespace
}  // namespace plos::sensing
