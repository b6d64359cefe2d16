/// Event classes: candidate events that share one interest row are
/// scored once per class (core/score_gen.h). Eq. 4 reads only the row,
/// so this must not change a single bit of any solver's output. Each
/// test runs a solver against a test-local reference that scores every
/// (event, interval) pair on its own with MarginalGain, the way the
/// solvers scored before classes, on instances whose events share rows
/// (members differing in location and resources), on a tie-heavy
/// family where distinct rows score exactly alike, and on instances
/// with no shared rows at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "core/attendance.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/objective.h"
#include "core/score_gen.h"
#include "core/top_k.h"
#include "tests/test_util.h"

namespace ses::core {
namespace {

struct Outcome {
  std::vector<Assignment> assignments;
  double utility = 0.0;
  uint64_t pops = 0;
};

Outcome Finish(const AttendanceModel& model, uint64_t pops) {
  return {model.schedule().Assignments(),
          TotalUtility(model.schedule().instance(), model.schedule()), pops};
}

AttendanceModel& WarmModel(AttendanceModel& model,
                           const SolverOptions& options) {
  EXPECT_TRUE(ApplyWarmStart(model, options.warm_start).ok());
  return model;
}

/// GRD on a per-event grid: a full t-major argmax scan with a strict >,
/// then the placed event's column and the chosen row re-scored.
Outcome ReferenceGreedy(const SesInstance& instance,
                        const SolverOptions& options) {
  AttendanceModel model(instance);
  WarmModel(model, options);
  const size_t num_events = instance.num_events();
  std::vector<double> grid(instance.num_intervals() * num_events);
  auto score = [&](EventIndex e, IntervalIndex t) {
    grid[t * num_events + e] =
        model.CanAssign(e, t) ? model.MarginalGain(e, t) : kDeadScore;
  };
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < num_events; ++e) score(e, t);
  }
  uint64_t pops = 0;
  while (model.schedule().size() < static_cast<size_t>(options.k)) {
    size_t best = grid.size();
    double best_score = kDeadScore;
    for (size_t cell = 0; cell < grid.size(); ++cell) {
      if (grid[cell] > best_score) {
        best_score = grid[cell];
        best = cell;
      }
    }
    if (best == grid.size()) break;
    ++pops;
    const auto t = static_cast<IntervalIndex>(best / num_events);
    const auto event = static_cast<EventIndex>(best % num_events);
    model.Apply(event, t);
    for (EventIndex e = 0; e < num_events; ++e) score(e, t);
    for (IntervalIndex u = 0; u < instance.num_intervals(); ++u) {
      grid[u * num_events + event] = kDeadScore;
    }
  }
  return Finish(model, pops);
}

/// The per-event scored pairs under the warm start, t-major, e-minor.
struct Scored {
  EventIndex event;
  IntervalIndex interval;
  double score;
};
std::vector<Scored> ReferenceScores(AttendanceModel& model) {
  const SesInstance& instance = model.schedule().instance();
  std::vector<Scored> scored;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      if (model.schedule().IsAssigned(e)) continue;
      scored.push_back({e, t, model.MarginalGain(e, t)});
    }
  }
  return scored;
}

/// TOP: the scored pairs sorted once by score, taken while valid.
Outcome ReferenceTop(const SesInstance& instance,
                     const SolverOptions& options) {
  AttendanceModel model(instance);
  std::vector<Scored> entries = ReferenceScores(WarmModel(model, options));
  std::sort(entries.begin(), entries.end(),
            [](const Scored& a, const Scored& b) { return a.score > b.score; });
  uint64_t pops = 0;
  for (const Scored& entry : entries) {
    if (model.schedule().size() >= static_cast<size_t>(options.k)) break;
    ++pops;
    if (model.CanAssign(entry.event, entry.interval)) {
      model.Apply(entry.event, entry.interval);
    }
  }
  return Finish(model, pops);
}

/// Lazy greedy: a max-heap of the scored pairs with per-interval
/// versions; a stale top is re-scored and re-queued.
Outcome ReferenceLazy(const SesInstance& instance,
                      const SolverOptions& options) {
  struct Entry {
    double score;
    EventIndex event;
    IntervalIndex interval;
    uint32_t version;
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.score < b.score;
    }
  };
  AttendanceModel model(instance);
  std::vector<Entry> init;
  for (const Scored& s : ReferenceScores(WarmModel(model, options))) {
    init.push_back({s.score, s.event, s.interval, 0});
  }
  std::priority_queue<Entry, std::vector<Entry>, Less> heap(Less{},
                                                            std::move(init));
  std::vector<uint32_t> version(instance.num_intervals(), 0);
  uint64_t pops = 0;
  while (model.schedule().size() < static_cast<size_t>(options.k) &&
         !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    ++pops;
    if (!model.CanAssign(top.event, top.interval)) continue;
    if (top.version != version[top.interval]) {
      top.score = model.MarginalGain(top.event, top.interval);
      top.version = version[top.interval];
      heap.push(top);
      continue;
    }
    model.Apply(top.event, top.interval);
    ++version[top.interval];
  }
  return Finish(model, pops);
}

/// Shared rows: 30 events drawn from 7 rows, so most classes have
/// several members at different locations and resource needs.
SesInstance SharedRowInstance(uint64_t seed) {
  test::RandomInstanceConfig config;
  config.seed = seed;
  config.num_users = 40;
  config.num_events = 30;
  config.num_intervals = 6;
  config.num_locations = 4;
  config.theta = 9.0;
  config.distinct_rows = 7;
  return test::MakeRandomInstance(config);
}

/// Tie-heavy: rows of about one user, constant sigma and little
/// competition, so different classes score exactly the same double at
/// many cells and GRD's tie rule decides most picks.
SesInstance TieHeavyInstance(uint64_t seed) {
  test::RandomInstanceConfig config;
  config.seed = seed;
  config.num_users = 5;
  config.num_events = 16;
  config.num_intervals = 5;
  config.num_locations = 5;
  config.theta = 7.0;
  config.interest_density = 0.25;
  config.competing_per_interval = 0.4;
  config.distinct_rows = 6;
  return test::MakeRandomInstance(config, test::SigmaKind::kConst);
}

/// No shared rows: one class per event.
SesInstance DistinctRowInstance(uint64_t seed) {
  test::RandomInstanceConfig config;
  config.seed = seed;
  config.num_users = 30;
  config.num_events = 14;
  config.num_intervals = 5;
  return test::MakeRandomInstance(config);
}

/// A few feasible warm-start assignments, from events spread over the
/// instance (so some classes are warm-started in part).
std::vector<Assignment> WarmStart(const SesInstance& instance) {
  std::vector<Assignment> warm;
  Schedule probe(instance);
  for (EventIndex e = 1; e < instance.num_events() && warm.size() < 3;
       e += 4) {
    const IntervalIndex t = e % instance.num_intervals();
    if (probe.Assign(e, t).ok()) warm.push_back({e, t});
  }
  return warm;
}

void ExpectSame(const SolverResult& result, const Outcome& ref,
                const std::string& label) {
  EXPECT_EQ(result.assignments, ref.assignments) << label;
  EXPECT_EQ(result.utility, ref.utility) << label;  // bit-identical
  EXPECT_EQ(result.stats.pops, ref.pops) << label;
}

void ExpectSolversMatchReference(const SesInstance& instance,
                                 const std::string& name) {
  for (const bool warm_started : {false, true}) {
    for (const int64_t threads : {1, 4}) {
      SolverOptions options;
      options.k = static_cast<int64_t>(instance.num_events() / 2);
      options.threads = threads;
      if (warm_started) options.warm_start = WarmStart(instance);
      const std::string label = name + " warm=" +
                                std::to_string(warm_started) +
                                " threads=" + std::to_string(threads);
      GreedySolver grd;
      TopKSolver top;
      LazyGreedySolver lazy;
      auto g = grd.Solve(instance, options);
      auto t = top.Solve(instance, options);
      auto l = lazy.Solve(instance, options);
      ASSERT_TRUE(g.ok() && t.ok() && l.ok()) << label;
      ExpectSame(*g, ReferenceGreedy(instance, options), "grd " + label);
      ExpectSame(*t, ReferenceTop(instance, options), "top " + label);
      ExpectSame(*l, ReferenceLazy(instance, options), "lazy " + label);
    }
  }
}

class EventClassTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventClassTest, SharedRowsMatchPerEventReference) {
  const SesInstance instance = SharedRowInstance(GetParam());
  ASSERT_LE(instance.num_event_classes(), 7u);
  ExpectSolversMatchReference(instance, "shared");
}

TEST_P(EventClassTest, TieHeavyRowsMatchPerEventReference) {
  const SesInstance instance = TieHeavyInstance(GetParam());
  ASSERT_LT(instance.num_event_classes(), instance.num_events());
  ExpectSolversMatchReference(instance, "ties");
}

TEST_P(EventClassTest, DistinctRowsMatchPerEventReference) {
  const SesInstance instance = DistinctRowInstance(GetParam());
  ASSERT_EQ(instance.num_event_classes(), instance.num_events());
  ExpectSolversMatchReference(instance, "distinct");
}

TEST_P(EventClassTest, EventGridBroadcastsClassCells) {
  const SesInstance instance = SharedRowInstance(GetParam());
  for (const bool warm_started : {false, true}) {
    SolverOptions options;
    options.k = 5;
    if (warm_started) options.warm_start = WarmStart(instance);
    AttendanceModel model(instance);
    const std::vector<Scored> ref =
        ReferenceScores(WarmModel(model, options));

    const size_t num_events = instance.num_events();
    std::vector<double> grid(instance.num_intervals() * num_events, -1.0);
    const ScoreGenResult gen =
        GenerateAssignmentScores(instance, options, SolveContext(), grid);
    ASSERT_TRUE(gen.termination.ok());
    for (const Scored& s : ref) {
      EXPECT_EQ(grid[s.interval * num_events + s.event], s.score)
          << "e=" << s.event << " t=" << s.interval;
    }
    for (const Assignment& a : options.warm_start) {
      EXPECT_EQ(grid[a.interval * num_events + a.event], -1.0)
          << "warm-started cells stay untouched";
    }
    // One evaluation per interval and class with an unplaced member.
    std::vector<bool> unplaced(instance.num_event_classes(), false);
    for (const Scored& s : ref) unplaced[instance.EventClass(s.event)] = true;
    EXPECT_EQ(gen.gain_evaluations,
              static_cast<uint64_t>(std::count(unplaced.begin(),
                                               unplaced.end(), true)) *
                  instance.num_intervals());
  }
}

TEST_P(EventClassTest, TopEvaluatesEachClassOncePerInterval) {
  const SesInstance instance = SharedRowInstance(GetParam());
  TopKSolver top;
  SolverOptions options;
  options.k = 4;
  auto result = top.Solve(instance, options);
  ASSERT_TRUE(result.ok());
  // The |E| x |T| of per-event scoring, restated for classes.
  EXPECT_EQ(result->stats.gain_evaluations,
            static_cast<uint64_t>(instance.num_event_classes()) *
                instance.num_intervals());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventClassTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ses::core
