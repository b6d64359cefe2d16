#include <limits>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/objective.h"
#include "core/random_schedule.h"
#include "core/registry.h"
#include "core/top_k.h"
#include "core/validate.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

SolverOptions OptionsWithK(int64_t k, uint64_t seed = 1) {
  SolverOptions options;
  options.k = k;
  options.seed = seed;
  return options;
}

/// Seed-parameterized battery: the catalog-wide properties run over every
/// registered solver, the rest over the paper's methods and lazy greedy.
class SolverPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SesInstance MakeInstance() const {
    test::RandomInstanceConfig config;
    config.seed = GetParam();
    config.num_users = 40;
    config.num_events = 10;
    config.num_intervals = 5;
    config.theta = 12.0;
    return test::MakeRandomInstance(config);
  }
};

TEST_P(SolverPropertyTest, AllSolversProduceFeasibleKSchedules) {
  const SesInstance instance = MakeInstance();
  const SolverOptions options = OptionsWithK(4, GetParam());

  for (const std::string& name : ListSolvers()) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok()) << name;
    auto result = solver.value()->Solve(instance, options);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_EQ(result->assignments.size(), 4u) << name;
    EXPECT_TRUE(
        ValidateAssignments(instance, result->assignments, 4).ok())
        << name;
    EXPECT_GE(result->utility, 0.0) << name;
    EXPECT_EQ(result->solver, name);
    EXPECT_TRUE(result->termination.ok()) << name;
  }
}

TEST_P(SolverPropertyTest, ReportedUtilityMatchesReferenceObjective) {
  const SesInstance instance = MakeInstance();
  const SolverOptions options = OptionsWithK(3, GetParam());
  for (const std::string& name : ListSolvers()) {
    auto solver = MakeSolver(name);
    ASSERT_TRUE(solver.ok()) << name;
    auto result = solver.value()->Solve(instance, options);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();

    Schedule schedule(instance);
    for (const Assignment& a : result->assignments) {
      ASSERT_TRUE(schedule.Assign(a.event, a.interval).ok()) << name;
    }
    EXPECT_NEAR(result->utility, TotalUtility(instance, schedule), 1e-9)
        << name;
  }
}

TEST_P(SolverPropertyTest, GreedyIsDeterministic) {
  const SesInstance instance = MakeInstance();
  const SolverOptions options = OptionsWithK(4, GetParam());
  GreedySolver grd;
  auto a = grd.Solve(instance, options);
  auto b = grd.Solve(instance, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_DOUBLE_EQ(a->utility, b->utility);
}

TEST_P(SolverPropertyTest, LazyGreedyMatchesGreedyUtility) {
  const SesInstance instance = MakeInstance();
  const SolverOptions options = OptionsWithK(5, GetParam());
  GreedySolver grd;
  LazyGreedySolver lazy;
  auto a = grd.Solve(instance, options);
  auto b = lazy.Solve(instance, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Identical selections up to score ties; utilities agree tightly.
  EXPECT_NEAR(a->utility, b->utility, 1e-6 + 1e-6 * a->utility);
}

TEST_P(SolverPropertyTest, LazyGreedyDoesFewerEvaluationsThanGreedy) {
  const SesInstance instance = MakeInstance();
  const SolverOptions options = OptionsWithK(5, GetParam());
  GreedySolver grd;
  LazyGreedySolver lazy;
  auto a = grd.Solve(instance, options);
  auto b = lazy.Solve(instance, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->stats.gain_evaluations, a->stats.gain_evaluations);
}

TEST_P(SolverPropertyTest, GreedyBeatsOrTiesRandomAndTop) {
  const SesInstance instance = MakeInstance();
  const SolverOptions options = OptionsWithK(5, GetParam());
  GreedySolver grd;
  TopKSolver top;
  RandomSolver rand;
  auto g = grd.Solve(instance, options);
  auto t = top.Solve(instance, options);
  auto r = rand.Solve(instance, options);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(r.ok());
  // Greedy is not a guaranteed upper bound per-instance for TOP/RAND,
  // but with its one-step-optimal selections it must win on these small
  // random instances by a comfortable margin in aggregate; check at
  // least no catastrophic loss per seed...
  EXPECT_GE(g->utility, t->utility * 0.95);
  EXPECT_GE(g->utility, r->utility * 0.95);
}

TEST_P(SolverPropertyTest, RandomSolverDeterministicPerSeed) {
  const SesInstance instance = MakeInstance();
  RandomSolver rand;
  auto a = rand.Solve(instance, OptionsWithK(4, 77));
  auto b = rand.Solve(instance, OptionsWithK(4, 77));
  auto c = rand.Solve(instance, OptionsWithK(4, 78));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  // A different seed should usually give a different schedule.
  // (Not guaranteed; tolerated as a soft expectation across the suite.)
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverPropertyTest,
                         ::testing::Values(2, 3, 5, 7, 11, 13, 17, 19));

// Budgets past the steady clock's ~292-year range used to overflow the
// nanosecond cast (undefined behaviour that in practice expired at once);
// they saturate now, and NaN joins the non-positive budgets as expired.
TEST(DeadlineTest, HugeBudgetsSaturateInsteadOfExpiring) {
  for (double seconds : {3600.0, 1e10, 1e300,
                         std::numeric_limits<double>::infinity()}) {
    const Deadline deadline = Deadline::After(seconds);
    EXPECT_FALSE(deadline.unlimited()) << seconds;
    EXPECT_FALSE(deadline.Expired()) << seconds;
  }
}

TEST(DeadlineTest, NonPositiveAndNanBudgetsAreExpired) {
  for (double seconds : {0.0, -1.0, -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(Deadline::After(seconds).Expired()) << seconds;
  }
  EXPECT_FALSE(Deadline::Unlimited().Expired());
}

TEST(SolverOptionsTest, RejectsNonPositiveK) {
  test::RandomInstanceConfig config;
  const SesInstance instance = test::MakeRandomInstance(config);
  GreedySolver grd;
  EXPECT_FALSE(grd.Solve(instance, OptionsWithK(0)).ok());
  EXPECT_FALSE(grd.Solve(instance, OptionsWithK(-3)).ok());
}

TEST(SolverOptionsTest, RejectsKAboveEventCount) {
  test::RandomInstanceConfig config;
  config.num_events = 4;
  const SesInstance instance = test::MakeRandomInstance(config);
  GreedySolver grd;
  EXPECT_FALSE(grd.Solve(instance, OptionsWithK(5)).ok());
}

TEST(GreedySolverTest, FirstPickIsGloballyBestAssignment) {
  test::RandomInstanceConfig config;
  config.seed = 123;
  const SesInstance instance = test::MakeRandomInstance(config);
  GreedySolver grd;
  auto result = grd.Solve(instance, OptionsWithK(1));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignments.size(), 1u);

  // Brute-force the best single assignment.
  Schedule empty(instance);
  double best = -1.0;
  for (EventIndex e = 0; e < instance.num_events(); ++e) {
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      if (!empty.CanAssign(e, t)) continue;
      best = std::max(best, AssignmentScore(instance, empty, e, t));
    }
  }
  EXPECT_NEAR(result->utility, best, 1e-9);
}

TEST(GreedySolverTest, StatsArepopulated) {
  test::RandomInstanceConfig config;
  const SesInstance instance = test::MakeRandomInstance(config);
  GreedySolver grd;
  auto result = grd.Solve(instance, OptionsWithK(3));
  ASSERT_TRUE(result.ok());
  // Initial generation = |E| * |T| evaluations at minimum.
  EXPECT_GE(result->stats.gain_evaluations,
            static_cast<uint64_t>(instance.num_events()) *
                instance.num_intervals());
  EXPECT_GE(result->stats.pops, 3u);
  EXPECT_GT(result->wall_seconds, 0.0);
}

TEST(TopKSolverTest, NeverUpdatesScores) {
  test::RandomInstanceConfig config;
  const SesInstance instance = test::MakeRandomInstance(config);
  TopKSolver top;
  auto result = top.Solve(instance, OptionsWithK(3));
  ASSERT_TRUE(result.ok());
  // TOP performs exactly the initial |E| x |T| evaluations.
  EXPECT_EQ(result->stats.gain_evaluations,
            static_cast<uint64_t>(instance.num_events()) *
                instance.num_intervals());
  EXPECT_EQ(result->stats.updates, 0u);
}

TEST(RandomSolverTest, FillsKEvenWhenPairSpaceTight) {
  // 3 events, 1 interval, distinct locations, ample resources: the only
  // feasible 3-schedule packs all events into the single interval.
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(1).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(1.0));
  builder.AddEvent(0, 1.0, {{0, 0.5f}});
  builder.AddEvent(1, 1.0, {{1, 0.5f}});
  builder.AddEvent(2, 1.0, {});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());
  RandomSolver rand;
  auto result = rand.Solve(*instance, OptionsWithK(3));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->assignments.size(), 3u);
}

}  // namespace
}  // namespace ses::core
