#include "core/objective.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "util/random.h"

namespace ses::core {
namespace {

/// The worked example used throughout:
///   users u0, u1; intervals t0, t1; sigma = 1;
///   e0: mu(u0)=0.8, mu(u1)=0.4; e1: mu(u0)=0.6;
///   competing c0 at t0 with mu(u0)=0.5.
SesInstance MakeWorkedExample(double sigma = 1.0) {
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(2).SetTheta(100.0).SetSigma(
      std::make_shared<ConstSigma>(sigma));
  builder.AddEvent(/*location=*/0, /*xi=*/1.0, {{0, 0.8f}, {1, 0.4f}});
  builder.AddEvent(/*location=*/1, /*xi=*/1.0, {{0, 0.6f}});
  builder.AddCompetingEvent(0, {{0, 0.5f}});
  auto instance = builder.Build();
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

constexpr double kTol = 2e-7;

TEST(ObjectiveTest, SingleEventWithCompetition) {
  const SesInstance instance = MakeWorkedExample();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());

  // u0: denominator = 0.5 (competing) + 0.8 (e0) = 1.3.
  EXPECT_NEAR(AttendanceProbability(instance, schedule, 0, 0), 0.8 / 1.3,
              kTol);
  // u1: no competing interest; denominator = 0.4 -> probability 1.
  EXPECT_NEAR(AttendanceProbability(instance, schedule, 1, 0), 1.0, kTol);
  EXPECT_NEAR(ExpectedAttendance(instance, schedule, 0), 0.8 / 1.3 + 1.0,
              kTol);
  EXPECT_NEAR(TotalUtility(instance, schedule), 0.8 / 1.3 + 1.0, kTol);
}

TEST(ObjectiveTest, TwoEventsShareOneInterval) {
  const SesInstance instance = MakeWorkedExample();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());
  ASSERT_TRUE(schedule.Assign(1, 0).ok());

  // u0's denominator at t0: 0.5 + 0.8 + 0.6 = 1.9.
  EXPECT_NEAR(AttendanceProbability(instance, schedule, 0, 0), 0.8 / 1.9,
              kTol);
  EXPECT_NEAR(AttendanceProbability(instance, schedule, 0, 1), 0.6 / 1.9,
              kTol);
  EXPECT_NEAR(ExpectedAttendance(instance, schedule, 0), 0.8 / 1.9 + 1.0,
              kTol);
  EXPECT_NEAR(ExpectedAttendance(instance, schedule, 1), 0.6 / 1.9, kTol);
  EXPECT_NEAR(TotalUtility(instance, schedule),
              0.8 / 1.9 + 1.0 + 0.6 / 1.9, kTol);
}

TEST(ObjectiveTest, NoCompetitionMeansProbabilityOne) {
  const SesInstance instance = MakeWorkedExample();
  Schedule schedule(instance);
  // t1 has no competing events; e1 alone there -> u0 attends surely.
  ASSERT_TRUE(schedule.Assign(1, 1).ok());
  EXPECT_NEAR(AttendanceProbability(instance, schedule, 0, 1), 1.0, kTol);
  EXPECT_NEAR(TotalUtility(instance, schedule), 1.0, kTol);
}

TEST(ObjectiveTest, SigmaScalesEverything) {
  const SesInstance half = MakeWorkedExample(0.5);
  Schedule schedule(half);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());
  EXPECT_NEAR(TotalUtility(half, schedule), 0.5 * (0.8 / 1.3 + 1.0), kTol);
}

TEST(ObjectiveTest, UninterestedUserHasZeroProbability) {
  const SesInstance instance = MakeWorkedExample();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(1, 0).ok());
  // u1 has no interest in e1.
  EXPECT_DOUBLE_EQ(AttendanceProbability(instance, schedule, 1, 1), 0.0);
}

TEST(ObjectiveTest, EmptyScheduleHasZeroUtility) {
  const SesInstance instance = MakeWorkedExample();
  Schedule schedule(instance);
  EXPECT_DOUBLE_EQ(TotalUtility(instance, schedule), 0.0);
}

TEST(AssignmentScoreTest, FirstAssignmentScoreEqualsItsUtility) {
  const SesInstance instance = MakeWorkedExample();
  Schedule empty(instance);
  const double score = AssignmentScore(instance, empty, 0, 0);
  Schedule with(instance);
  ASSERT_TRUE(with.Assign(0, 0).ok());
  EXPECT_NEAR(score, TotalUtility(instance, with), kTol);
}

TEST(AssignmentScoreTest, SecondAssignmentScoreIsUtilityDelta) {
  const SesInstance instance = MakeWorkedExample();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());
  const double before = TotalUtility(instance, schedule);
  const double score = AssignmentScore(instance, schedule, 1, 0);

  Schedule with = schedule;
  ASSERT_TRUE(with.Assign(1, 0).ok());
  EXPECT_NEAR(score, TotalUtility(instance, with) - before, kTol);
  // Hand value: (0.8/1.9 + 1 + 0.6/1.9) - (0.8/1.3 + 1).
  EXPECT_NEAR(score, (1.4 / 1.9) - (0.8 / 1.3), kTol);
}

TEST(AssignmentScoreTest, EmptyIntervalBeatsCrowdedInterval) {
  const SesInstance instance = MakeWorkedExample();
  Schedule schedule(instance);
  ASSERT_TRUE(schedule.Assign(0, 0).ok());
  // Placing e1 at the empty, competition-free t1 dominates t0.
  EXPECT_GT(AssignmentScore(instance, schedule, 1, 1),
            AssignmentScore(instance, schedule, 1, 0));
}

/// TotalUtility as it was before its denominators moved into a dense
/// array: one hash map per interval, filled and read in the same order.
double HashMapTotalUtility(const SesInstance& instance,
                           const Schedule& schedule) {
  double total = 0.0;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    const auto& events = schedule.EventsAt(t);
    if (events.empty()) continue;
    std::unordered_map<UserIndex, double> denom;
    for (CompetingIndex c : instance.CompetingAt(t)) {
      auto users = instance.CompetingUsers(c);
      auto values = instance.CompetingValues(c);
      for (size_t i = 0; i < users.size(); ++i) {
        denom[users[i]] += values[i];
      }
    }
    for (EventIndex p : events) {
      auto users = instance.EventUsers(p);
      auto values = instance.EventValues(p);
      for (size_t i = 0; i < users.size(); ++i) {
        denom[users[i]] += values[i];
      }
    }
    for (EventIndex e : events) {
      auto users = instance.EventUsers(e);
      auto values = instance.EventValues(e);
      for (size_t i = 0; i < users.size(); ++i) {
        const double d = denom.at(users[i]);
        if (d <= 0.0) continue;
        total += instance.sigma().At(users[i], t) *
                 static_cast<double>(values[i]) / d;
      }
    }
  }
  return total;
}

// The dense denominators only change where the sums live: every
// per-user sum and the running total keep their order, so the result is
// the same double, for every sigma provider and on partial schedules
// that reuse the array across many intervals.
TEST(ObjectiveTest, TotalUtilityBitIdenticalToHashMapReference) {
  for (const test::SigmaKind kind :
       {test::SigmaKind::kConst, test::SigmaKind::kDense,
        test::SigmaKind::kHashUniform}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      test::RandomInstanceConfig config = test::MediumInstanceConfig(seed);
      config.num_events = 40;
      const SesInstance instance = test::MakeRandomInstance(config, kind);
      util::Rng rng(seed);
      Schedule schedule(instance);
      for (EventIndex e = 0; e < instance.num_events(); ++e) {
        const IntervalIndex t = static_cast<IntervalIndex>(
            rng.NextBounded(instance.num_intervals()));
        if (schedule.CanAssign(e, t)) {
          ASSERT_TRUE(schedule.Assign(e, t).ok());
        }
        const double dense = TotalUtility(instance, schedule);
        const double hashed = HashMapTotalUtility(instance, schedule);
        EXPECT_EQ(std::bit_cast<uint64_t>(dense),
                  std::bit_cast<uint64_t>(hashed))
            << test::SigmaKindName(kind) << " seed " << seed << " after e="
            << e << ": " << dense << " vs " << hashed;
      }
    }
  }
}

}  // namespace
}  // namespace ses::core
