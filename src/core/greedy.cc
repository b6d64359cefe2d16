#include "core/greedy.h"

#include <algorithm>

#include "core/attendance.h"
#include "core/score_gen.h"

namespace ses::core {

namespace {

/// One entry of the assignment list L.
struct ScoredAssignment {
  EventIndex event;
  IntervalIndex interval;
  double score;
};

}  // namespace

util::Result<SolveOutcome> GreedySolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  AttendanceModel model(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(model, options.warm_start));
  SolverStats stats;
  util::Status termination;

  // Algorithm 1, lines 2-4: generate all assignments with their scores.
  // GenerateScoredAssignments emits in serial t-major order at every
  // SolverOptions::threads value, so L is byte-identical across thread
  // counts (tests/core_parallel_solve_test.cc pins this).
  std::vector<ScoredAssignment> list;
  list.reserve(static_cast<size_t>(instance.num_events()) *
               instance.num_intervals());
  const ScoreGenResult generated = GenerateScoredAssignments(
      instance, options, context, model.schedule(),
      [&list](EventIndex e, IntervalIndex t, double score) {
        list.push_back({e, t, score});
      });
  termination = generated.termination;

  const size_t k = static_cast<size_t>(options.k);
  // Algorithm 1, lines 5-13. Skipped entirely when generation was cut
  // short: selecting from a partial list would bias toward low intervals.
  while (termination.ok() && model.schedule().size() < k && !list.empty()) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    // popTopAssgn: find and remove the largest-score assignment.
    size_t best = 0;
    for (size_t i = 1; i < list.size(); ++i) {
      if (list[i].score > list[best].score) best = i;
    }
    ++stats.pops;
    const ScoredAssignment top = list[best];
    list[best] = list.back();
    list.pop_back();

    if (!model.CanAssign(top.event, top.interval)) continue;
    model.Apply(top.event, top.interval);

    if (model.schedule().size() >= k) break;

    // Update pass: recompute scores of valid assignments referring to the
    // chosen interval; remove invalid assignments from L.
    size_t write = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      ScoredAssignment a = list[i];
      if (!model.CanAssign(a.event, a.interval)) continue;  // drop
      if (a.interval == top.interval) {
        a.score = model.MarginalGain(a.event, a.interval);
        ++stats.updates;
      }
      list[write++] = a;
    }
    list.resize(write);
  }

  // Generation ran on shard-private engines; fold their evaluation
  // count into the main model's update-pass count.
  stats.gain_evaluations =
      model.gain_evaluations() + generated.gain_evaluations;

  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
