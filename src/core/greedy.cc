#include "core/greedy.h"

#include <numeric>

#include "core/attendance.h"
#include "core/score_gen.h"

namespace ses::core {

util::Result<SolveOutcome> GreedySolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  AttendanceModel model(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(model, options.warm_start));
  SolverStats stats;

  // Algorithm 1, lines 2-4: L is the score grid scores[t * |E| + e],
  // bit-identical at every SolverOptions::threads value
  // (tests/core_parallel_solve_test.cc pins this).
  const size_t num_events = instance.num_events();
  std::vector<double> scores(instance.num_intervals() * num_events);
  ScoreShards shards(options);
  const ScoreGenResult generated =
      GenerateAssignmentScores(instance, options, shards, context, scores);
  util::Status termination = generated.termination;
  // Drop the pairs that are invalid from the start (warm-started events,
  // pairs an interval cannot host). From here on every live cell is a
  // valid assignment holding its current score.
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < num_events; ++e) {
      if (!model.CanAssign(e, t)) scores[t * num_events + e] = kDeadScore;
    }
  }
  std::vector<EventIndex> events(num_events);
  std::iota(events.begin(), events.end(), 0u);

  const size_t k = static_cast<size_t>(options.k);
  // Algorithm 1, lines 5-13. Skipped entirely when generation was cut
  // short: selecting from a partial grid would bias toward low intervals.
  while (termination.ok() && model.schedule().size() < k) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    // popTopAssgn: the grid's argmax. The t-major scan with a strict >
    // gives ties to the lowest (interval, event).
    size_t best = scores.size();
    double best_score = kDeadScore;
    for (size_t cell = 0; cell < scores.size(); ++cell) {
      if (scores[cell] > best_score) {
        best_score = scores[cell];
        best = cell;
      }
    }
    if (best == scores.size()) break;  // L is empty
    ++stats.pops;
    const auto chosen = static_cast<IntervalIndex>(best / num_events);
    const auto event = static_cast<EventIndex>(best % num_events);
    model.Apply(event, chosen);

    if (model.schedule().size() >= k) break;

    // Update pass: the event leaves L, and the chosen interval's row is
    // re-scored, dropping the pairs that interval can no longer host.
    for (size_t cell = event; cell < scores.size(); cell += num_events) {
      scores[cell] = kDeadScore;
    }
    stats.updates +=
        RefreshIntervalScores(model, chosen, events, shards, scores);
  }

  stats.gain_evaluations = generated.gain_evaluations + stats.updates;
  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
