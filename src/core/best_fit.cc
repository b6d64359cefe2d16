#include "core/best_fit.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "core/attendance.h"
#include "core/score_gen.h"

namespace ses::core {

util::Result<SolveOutcome> BestFitSolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  AttendanceModel model(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(model, options.warm_start));
  SolverStats stats;

  const size_t num_events = instance.num_events();
  std::vector<double> scores(instance.num_intervals() * num_events);
  ScoreShards shards(options);
  const ScoreGenResult generated =
      GenerateAssignmentScores(instance, options, shards, context, scores);
  util::Status termination = generated.termination;

  // Pass 1: optimistic per-event priority = best empty-schedule score.
  std::vector<double> priority(num_events, 0.0);
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < num_events; ++e) {
      if (model.schedule().IsAssigned(e)) continue;  // warm-started
      priority[e] = std::max(priority[e], scores[t * num_events + e]);
    }
  }
  std::vector<EventIndex> order(num_events);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&priority](EventIndex a, EventIndex b) {
              return priority[a] > priority[b];
            });

  // Pass 2: each event takes its best feasible interval, read from its
  // grid column. The column is current: every placement re-scores the
  // chosen interval's row for the events still to be visited.
  // Skipped when pass 1 was cut short (the grid would be partial).
  const size_t k = static_cast<size_t>(options.k);
  for (size_t i = 0; i < order.size(); ++i) {
    if (!termination.ok() || context.CheckStop(&termination)) break;
    context.CountWork(1);
    if (model.schedule().size() >= k) break;
    const EventIndex e = order[i];
    if (model.schedule().IsAssigned(e)) continue;  // warm-started
    double best_gain = -1.0;
    IntervalIndex best_interval = kInvalidIndex;
    for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
      if (!model.CanAssign(e, t)) continue;
      const double gain = scores[static_cast<size_t>(t) * num_events + e];
      if (gain > best_gain) {
        best_gain = gain;
        best_interval = t;
      }
    }
    if (best_interval == kInvalidIndex) continue;  // nowhere to place it
    model.Apply(e, best_interval);
    ++stats.pops;
    if (model.schedule().size() < k) {
      stats.updates += RefreshIntervalScores(
          model, best_interval, std::span(order).subspan(i + 1), shards,
          scores);
    }
  }

  stats.gain_evaluations = generated.gain_evaluations + stats.updates;
  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
