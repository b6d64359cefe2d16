/// Algorithm 1 conformance: GRD must pick, at every step, a valid
/// assignment whose Eq. 4 score (under the current schedule) is maximal
/// among all remaining valid assignments — verified against a slow
/// oracle that rescans the full pair space with the reference scorer.

#include <gtest/gtest.h>

#include <memory>

#include "core/greedy.h"
#include "core/objective.h"
#include "core/schedule.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

class GreedyOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyOracleTest, EverySelectionIsAMaxScoreValidAssignment) {
  test::RandomInstanceConfig config;
  config.seed = GetParam();
  config.num_users = 25;
  config.num_events = 9;
  config.num_intervals = 4;
  const SesInstance instance = test::MakeRandomInstance(config);

  GreedySolver grd;
  SolverOptions options;
  options.k = 5;
  auto result = grd.Solve(instance, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignments.size(), 5u);

  // GRD reports assignments sorted by (interval, event), not in
  // selection order; recover the selection order by replaying greedy
  // decisions: at each step the chosen one must be the argmax among the
  // result's remaining assignments AND no unchosen valid pair may beat
  // it.
  Schedule schedule(instance);
  std::vector<Assignment> remaining = result->assignments;
  while (!remaining.empty()) {
    // Oracle: global max score over all valid assignments.
    double best_score = -1.0;
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
        if (!schedule.CanAssign(e, t)) continue;
        best_score =
            std::max(best_score, AssignmentScore(instance, schedule, e, t));
      }
    }
    // One of the remaining chosen assignments must achieve it.
    size_t chosen = remaining.size();
    for (size_t i = 0; i < remaining.size(); ++i) {
      const Assignment& a = remaining[i];
      if (!schedule.CanAssign(a.event, a.interval)) continue;
      const double score =
          AssignmentScore(instance, schedule, a.event, a.interval);
      if (score >= best_score - 1e-7) {
        chosen = i;
        break;
      }
    }
    ASSERT_LT(chosen, remaining.size())
        << "no remaining greedy pick achieves the oracle max "
        << best_score;
    ASSERT_TRUE(
        schedule.Assign(remaining[chosen].event, remaining[chosen].interval)
            .ok());
    remaining.erase(remaining.begin() + static_cast<long>(chosen));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyOracleTest,
                         ::testing::Values(3, 14, 15, 92, 65, 35));

// popTopAssgn's tie rule: among exactly equal scores GRD takes the
// lowest (interval, event), interval first. Events 0 and 1 have the
// same interest row. Every row is one user at interest 0.5, so with no
// competition and a constant sigma every valid pair scores exactly 1.0.
TEST(GreedyTieBreakTest, TiesGoToTheLowestIntervalThenEvent) {
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(2).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(1.0));
  builder.AddEvent(/*location=*/0, 1.0, {{0, 0.5f}});
  builder.AddEvent(/*location=*/1, 1.0, {{0, 0.5f}});
  // Disjoint from events 0 and 1 and at event 0's location: warm-started
  // at interval 0, it only makes (event 0, interval 0) infeasible.
  builder.AddEvent(/*location=*/0, 1.0, {{1, 0.5f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  GreedySolver grd;
  SolverOptions options;
  options.k = 1;
  auto first = grd.Solve(*instance, options);
  ASSERT_TRUE(first.ok());
  // All six pairs tie; (interval 0, event 0) is the lowest.
  EXPECT_EQ(first->assignments, (std::vector<Assignment>{{0, 0}}));

  // With (event 0, interval 0) gone, the tie is between (interval 0,
  // event 1) and (interval 1, event 0): the lower interval wins even
  // though its event is the higher one.
  options.k = 2;
  options.warm_start = {{2, 0}};
  auto second = grd.Solve(*instance, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->assignments, (std::vector<Assignment>{{1, 0}, {2, 0}}));
}

}  // namespace
}  // namespace ses::core
