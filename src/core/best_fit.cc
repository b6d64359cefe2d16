#include "core/best_fit.h"

#include <algorithm>
#include <numeric>

#include "core/attendance.h"
#include "core/score_gen.h"

namespace ses::core {

util::Result<SolveOutcome> BestFitSolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  AttendanceModel model(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(model, options.warm_start));
  SolverStats stats;

  // Pass 1: optimistic per-event priority = best empty-schedule score,
  // a running max over the event's emitted scores.
  std::vector<double> priority(instance.num_events(), 0.0);
  const ScoreGenResult generated = GenerateScoredAssignments(
      instance, options, context, model.schedule(),
      [&priority](EventIndex e, IntervalIndex, double score) {
        priority[e] = std::max(priority[e], score);
      });
  util::Status termination = generated.termination;
  std::vector<EventIndex> order(instance.num_events());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&priority](EventIndex a, EventIndex b) {
              return priority[a] > priority[b];
            });

  // Pass 2: each event takes its currently-best feasible interval.
  // Skipped when pass 1 was cut short (priorities would be truncated).
  const size_t k = static_cast<size_t>(options.k);
  for (EventIndex e : order) {
    if (!termination.ok() || context.CheckStop(&termination)) break;
    context.CountWork(1);
    if (model.schedule().size() >= k) break;
    if (model.schedule().IsAssigned(e)) continue;  // warm-started
    double best_gain = -1.0;
    IntervalIndex best_interval = kInvalidIndex;
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      if (!model.CanAssign(e, t)) continue;
      const double gain = model.MarginalGain(e, t);
      ++stats.updates;
      if (gain > best_gain) {
        best_gain = gain;
        best_interval = t;
      }
    }
    if (best_interval == kInvalidIndex) continue;  // nowhere to place it
    model.Apply(e, best_interval);
    ++stats.pops;
  }

  stats.gain_evaluations =
      model.gain_evaluations() + generated.gain_evaluations;
  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
