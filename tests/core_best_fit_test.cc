#include "core/best_fit.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/attendance.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/top_k.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

class BestFitTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SesInstance MakeInstance() const {
    test::RandomInstanceConfig config;
    config.seed = GetParam();
    config.num_users = 35;
    config.num_events = 12;
    config.num_intervals = 5;
    return test::MakeRandomInstance(config);
  }
};

TEST_P(BestFitTest, ProducesFeasibleKSchedule) {
  const SesInstance instance = MakeInstance();
  SolverOptions options;
  options.k = 5;
  BestFitSolver bestfit;
  auto result = bestfit.Solve(instance, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ValidateAssignments(instance, result->assignments, 5).ok());
  EXPECT_EQ(result->solver, "bestfit");
}

TEST_P(BestFitTest, Deterministic) {
  const SesInstance instance = MakeInstance();
  SolverOptions options;
  options.k = 4;
  BestFitSolver bestfit;
  auto a = bestfit.Solve(instance, options);
  auto b = bestfit.Solve(instance, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
}

TEST_P(BestFitTest, NeverBeatsGreedyByMuchAndBeatsNothingInvalid) {
  const SesInstance instance = MakeInstance();
  SolverOptions options;
  options.k = 5;
  BestFitSolver bestfit;
  GreedySolver grd;
  auto bf = bestfit.Solve(instance, options);
  auto g = grd.Solve(instance, options);
  ASSERT_TRUE(bf.ok());
  ASSERT_TRUE(g.ok());
  // Event-major order is a heuristic restriction of GRD; it can win
  // occasionally (greedy is not optimal) but should stay in the same
  // ballpark. The point of this assertion is catching gross regressions.
  EXPECT_GE(bf->utility, 0.5 * g->utility);
  EXPECT_LE(bf->utility, 1.5 * g->utility);
}

TEST_P(BestFitTest, DoesFewerEvaluationsThanGreedy) {
  const SesInstance instance = MakeInstance();
  SolverOptions options;
  options.k = 6;
  BestFitSolver bestfit;
  GreedySolver grd;
  auto bf = bestfit.Solve(instance, options);
  auto g = grd.Solve(instance, options);
  ASSERT_TRUE(bf.ok());
  ASSERT_TRUE(g.ok());
  // Both cost C·|T| + one row refresh per placement but the last, over
  // the classes with a member still feasible there. The chosen intervals
  // differ, so on tiny instances the two can be within one interval's
  // worth of each other.
  EXPECT_LE(bf->stats.gain_evaluations,
            g->stats.gain_evaluations + instance.num_intervals());
}

/// What the reference run produced, in SolverResult terms.
struct ReferenceOutcome {
  std::vector<Assignment> assignments;
  double utility = 0.0;
  uint64_t pops = 0;
};

/// Test-local reference: bestfit as it ran before it kept the score grid.
/// Priorities are a running max over the warm-start-only scores, and
/// pass 2 probes every interval of each event with a fresh MarginalGain.
ReferenceOutcome ReferenceBestFit(const SesInstance& instance,
                                  const SolverOptions& options) {
  AttendanceModel model(instance);
  EXPECT_TRUE(ApplyWarmStart(model, options.warm_start).ok());
  std::vector<double> priority(instance.num_events(), 0.0);
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      if (model.schedule().IsAssigned(e)) continue;
      priority[e] = std::max(priority[e], model.MarginalGain(e, t));
    }
  }
  std::vector<EventIndex> order(instance.num_events());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&priority](EventIndex a, EventIndex b) {
              return priority[a] > priority[b];
            });
  ReferenceOutcome out;
  for (EventIndex e : order) {
    if (model.schedule().size() >= static_cast<size_t>(options.k)) break;
    if (model.schedule().IsAssigned(e)) continue;
    double best_gain = -1.0;
    IntervalIndex best_interval = kInvalidIndex;
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      if (!model.CanAssign(e, t)) continue;
      const double gain = model.MarginalGain(e, t);
      if (gain > best_gain) {
        best_gain = gain;
        best_interval = t;
      }
    }
    if (best_interval == kInvalidIndex) continue;
    model.Apply(e, best_interval);
    ++out.pops;
  }
  out.assignments = model.schedule().Assignments();
  out.utility = TotalUtility(instance, model.schedule());
  return out;
}

void ExpectMatchesReference(const SesInstance& instance) {

  std::vector<Assignment> warm;
  Schedule probe(instance);
  for (EventIndex e = 0; e < instance.num_events() && warm.size() < 3;
       e += 5) {
    const IntervalIndex t = e % instance.num_intervals();
    if (probe.CanAssign(e, t) && probe.Assign(e, t).ok()) {
      warm.push_back({e, t});
    }
  }
  ASSERT_FALSE(warm.empty());

  for (const bool warm_started : {false, true}) {
    for (const int64_t threads : {1, 4}) {
      SolverOptions options;
      options.k = 12;
      options.threads = threads;
      if (warm_started) options.warm_start = warm;
      const ReferenceOutcome ref = ReferenceBestFit(instance, options);
      BestFitSolver bestfit;
      auto result = bestfit.Solve(instance, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::string label = "warm=" + std::to_string(warm_started) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(result->assignments, ref.assignments) << label;
      EXPECT_EQ(result->utility, ref.utility) << label;  // bit-identical
      EXPECT_EQ(result->stats.pops, ref.pops) << label;
    }
  }
}

/// Tighter than MakeInstance: few locations and little room per
/// interval, so placements make pairs infeasible and rows go stale.
test::RandomInstanceConfig TightConfig(uint64_t seed) {
  test::RandomInstanceConfig config;
  config.seed = seed;
  config.num_users = 60;
  config.num_events = 24;
  config.num_intervals = 6;
  config.num_locations = 3;
  config.theta = 8.0;
  return config;
}

TEST_P(BestFitTest, MatchesProbeEveryIntervalReference) {
  ExpectMatchesReference(test::MakeRandomInstance(TightConfig(GetParam())));
}

// Events drawn from 6 rows share their class's grid column, but each
// reads it gated by its own location and resources.
TEST_P(BestFitTest, SharedRowsMatchProbeEveryIntervalReference) {
  test::RandomInstanceConfig config = TightConfig(GetParam());
  config.distinct_rows = 6;
  const SesInstance instance = test::MakeRandomInstance(config);
  ASSERT_LE(instance.num_event_classes(), 6u);
  ExpectMatchesReference(instance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BestFitTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(BestFitSingleTest, AvoidsTheCompetitionLoadedInterval) {
  // Two user-disjoint events and a competing event at interval 0 only.
  // The events never interact (no shared users, distinct locations), so
  // both belong at the competition-free interval 1 for the optimum 2.0.
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(2).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(1.0));
  builder.AddEvent(0, 1.0, {{0, 0.9f}});
  builder.AddEvent(1, 1.0, {{1, 0.9f}});
  builder.AddCompetingEvent(0, {{0, 0.9f}, {1, 0.9f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  SolverOptions options;
  options.k = 2;
  BestFitSolver bestfit;
  auto result = bestfit.Solve(*instance, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignments.size(), 2u);
  for (const Assignment& a : result->assignments) {
    EXPECT_EQ(a.interval, 1u);
  }
  EXPECT_NEAR(result->utility, 2.0, 1e-6);
}

TEST(BestFitSingleTest, FreshGainSeesEarlierPlacements) {
  // One shared fan: if both events pile onto interval 1, the fan splits
  // (utility 1.0 total from them); the second event should instead take
  // interval 0 and keep the fan's full attention twice (0.5/1.4 loss vs
  // fresh gain comparison). Competing event at interval 0 with interest
  // 0.5 makes interval 1 more attractive for the *first* pick only.
  InstanceBuilder builder;
  builder.SetNumUsers(1).SetNumIntervals(2).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(1.0));
  builder.AddEvent(/*location=*/0, 1.0, {{0, 0.9f}});
  builder.AddEvent(/*location=*/1, 1.0, {{0, 0.9f}});
  builder.AddCompetingEvent(0, {{0, 0.5f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  SolverOptions options;
  options.k = 2;
  BestFitSolver bestfit;
  auto result = bestfit.Solve(*instance, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignments.size(), 2u);
  // One event per interval: 1.0 (alone at t1) + 0.9/1.4 (vs competing
  // at t0) beats sharing t1 (0.5 + 0.5).
  EXPECT_NE(result->assignments[0].interval,
            result->assignments[1].interval);
  EXPECT_NEAR(result->utility, 1.0 + 0.9 / 1.4, 1e-6);
}

}  // namespace
}  // namespace ses::core
