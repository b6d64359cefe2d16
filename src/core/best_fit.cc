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

  // The class grid of score_gen.h; event e reads its column through
  // its class, gated by its own feasibility.
  const size_t num_events = instance.num_events();
  const size_t num_classes = instance.num_event_classes();
  std::vector<double> scores(instance.num_intervals() * num_classes);
  ScoreShards shards(options);
  const ScoreGenResult generated =
      GenerateClassScores(instance, options, shards, context, scores);
  util::Status termination = generated.termination;

  // Pass 1: optimistic per-event priority = best empty-schedule score.
  std::vector<double> class_priority(num_classes, 0.0);
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (ClassIndex c = 0; c < num_classes; ++c) {
      class_priority[c] =
          std::max(class_priority[c], scores[t * num_classes + c]);
    }
  }
  std::vector<double> priority(num_events, 0.0);
  for (EventIndex e = 0; e < num_events; ++e) {
    if (model.schedule().IsAssigned(e)) continue;  // warm-started
    priority[e] = class_priority[instance.EventClass(e)];
  }
  std::vector<EventIndex> order(num_events);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&priority](EventIndex a, EventIndex b) {
              return priority[a] > priority[b];
            });

  // Pass 2: each event takes its best feasible interval, read from its
  // class's grid column. The cells it reads are current: every
  // placement re-scores the chosen interval's row for every class with
  // a member still feasible there.
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
      const double gain = scores[static_cast<size_t>(t) * num_classes +
                                 instance.EventClass(e)];
      if (gain > best_gain) {
        best_gain = gain;
        best_interval = t;
      }
    }
    if (best_interval == kInvalidIndex) continue;  // nowhere to place it
    model.Apply(e, best_interval);
    ++stats.pops;
    if (model.schedule().size() < k) {
      stats.updates +=
          RefreshIntervalScores(model, best_interval, shards, scores);
    }
  }

  stats.gain_evaluations = generated.gain_evaluations + stats.updates;
  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
