#include "core/greedy.h"

#include "core/attendance.h"
#include "core/score_gen.h"

namespace ses::core {

util::Result<SolveOutcome> GreedySolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  AttendanceModel model(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(model, options.warm_start));
  SolverStats stats;

  // Algorithm 1, lines 2-4: L is the class grid scores[t * C + c],
  // bit-identical at every SolverOptions::threads value
  // (tests/core_parallel_solve_test.cc pins this). Pair (e, t) of L is
  // live when model.CanAssign(e, t); its score is its class's cell.
  const size_t num_classes = instance.num_event_classes();
  std::vector<double> scores(instance.num_intervals() * num_classes);
  ScoreShards shards(options);
  const ScoreGenResult generated =
      GenerateClassScores(instance, options, shards, context, scores);
  util::Status termination = generated.termination;

  // popTopAssgn's tie rule is the lowest (interval, event). Each row
  // keeps its best live pair: the highest score, and among classes tied
  // at it the lowest live member. `unique` records that no other class
  // of the row holds that score, so the pick can move to the next member
  // of its class without a rescan.
  struct RowBest {
    double score = kDeadScore;
    EventIndex event = kInvalidIndex;
    bool unique = true;
  };
  // Rescans row t; a cell found to have no live member is marked dead,
  // and stays dead since feasibility only shrinks.
  auto best_in_row = [&](IntervalIndex t) {
    RowBest best;
    double* row = scores.data() + static_cast<size_t>(t) * num_classes;
    for (ClassIndex c = 0; c < num_classes; ++c) {
      if (row[c] == kDeadScore || row[c] < best.score) continue;
      const EventIndex e = LowestLiveMember(model.schedule(), c, t);
      if (e == kInvalidIndex) {
        row[c] = kDeadScore;
      } else if (row[c] > best.score) {
        best = {row[c], e, true};
      } else {
        best.unique = false;
        if (e < best.event) best.event = e;
      }
    }
    return best;
  };
  std::vector<RowBest> row_best(instance.num_intervals());
  // Skipped when generation was cut short: the selection below does not
  // run on a partial grid either.
  if (termination.ok()) {
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      row_best[t] = best_in_row(t);
    }
  }

  const size_t k = static_cast<size_t>(options.k);
  // Algorithm 1, lines 5-13. Skipped entirely when generation was cut
  // short: selecting from a partial grid would bias toward low intervals.
  while (termination.ok() && model.schedule().size() < k) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    // popTopAssgn: the best row maximum; the strict > gives ties to the
    // lowest interval.
    IntervalIndex chosen = kInvalidIndex;
    double best_score = kDeadScore;
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      if (row_best[t].score > best_score) {
        best_score = row_best[t].score;
        chosen = t;
      }
    }
    if (chosen == kInvalidIndex) break;  // L is empty
    ++stats.pops;
    const EventIndex event = row_best[chosen].event;
    model.Apply(event, chosen);

    if (model.schedule().size() >= k) break;

    // Update pass: the chosen interval's row is re-scored, dropping the
    // classes that interval can no longer host. Elsewhere only the rows
    // whose pick was the placed event change.
    stats.updates +=
        RefreshIntervalScores(model, chosen, shards, scores);
    row_best[chosen] = best_in_row(chosen);
    const ClassIndex placed = instance.EventClass(event);
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      if (t == chosen || row_best[t].event != event) continue;
      const EventIndex next = LowestLiveMember(model.schedule(), placed, t);
      if (next != kInvalidIndex && row_best[t].unique) {
        row_best[t].event = next;
      } else {
        row_best[t] = best_in_row(t);
      }
    }
  }

  stats.gain_evaluations = generated.gain_evaluations + stats.updates;
  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
