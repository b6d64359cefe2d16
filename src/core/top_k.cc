#include "core/top_k.h"

#include <algorithm>

#include "core/attendance.h"
#include "core/score_gen.h"

namespace ses::core {

util::Result<SolveOutcome> TopKSolver::DoSolve(const SesInstance& instance,
                                               const SolverOptions& options,
                                               const SolveContext& context) {
  AttendanceModel model(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(model, options.warm_start));
  SolverStats stats;

  struct Entry {
    EventIndex event;
    IntervalIndex interval;
    double score;
  };
  std::vector<Entry> entries;
  entries.reserve(static_cast<size_t>(instance.num_events()) *
                  instance.num_intervals());
  const ScoreGenResult generated = GenerateScoredAssignments(
      instance, options, context, model.schedule(),
      [&entries](EventIndex e, IntervalIndex t, double score) {
        entries.push_back({e, t, score});
      });
  util::Status termination = generated.termination;
  // A stopped generation pass emits nothing, so a truncated ranking is
  // never sorted or walked.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.score > b.score; });

  // Entries are cheap to skip, so the context is polled on a stride.
  const size_t k = static_cast<size_t>(options.k);
  uint64_t polls = 0;
  for (const Entry& entry : entries) {
    if ((polls++ & 63) == 0 && context.CheckStop(&termination)) break;
    context.CountWork(1);
    if (model.schedule().size() >= k) break;
    ++stats.pops;
    if (!model.CanAssign(entry.event, entry.interval)) continue;
    model.Apply(entry.event, entry.interval);
  }

  stats.gain_evaluations =
      model.gain_evaluations() + generated.gain_evaluations;
  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
