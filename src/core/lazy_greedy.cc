#include "core/lazy_greedy.h"

#include <queue>

#include "core/attendance.h"
#include "core/score_gen.h"

namespace ses::core {

namespace {

struct HeapEntry {
  double score;
  EventIndex event;
  IntervalIndex interval;
  /// Version of the interval when the score was computed.
  uint32_t version;
};

struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.score < b.score;
  }
};

}  // namespace

util::Result<SolveOutcome> LazyGreedySolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  AttendanceModel model(instance);
  SES_RETURN_IF_ERROR(ApplyWarmStart(model, options.warm_start));
  SolverStats stats;
  util::Status termination;

  // Initial scores via the stage shared with GRD (score_gen.h): emitted
  // in serial t-major order at every SolverOptions::threads value, so
  // heap construction — and every pop after it — is identical across
  // thread counts.
  std::vector<uint32_t> interval_version(instance.num_intervals(), 0);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess> heap;
  ScoreGenResult generated;
  {
    std::vector<HeapEntry> init;
    init.reserve(static_cast<size_t>(instance.num_events()) *
                 instance.num_intervals());
    generated = GenerateScoredAssignments(
        instance, options, context, model.schedule(),
        [&init](EventIndex e, IntervalIndex t, double score) {
          init.push_back({score, e, t, 0});
        });
    termination = generated.termination;
    heap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess>(
        HeapLess{}, std::move(init));
  }

  const size_t k = static_cast<size_t>(options.k);
  // A partially generated heap would miss high intervals, so selection
  // only runs when generation completed.
  while (termination.ok() && model.schedule().size() < k && !heap.empty()) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    HeapEntry top = heap.top();
    heap.pop();
    ++stats.pops;

    if (!model.CanAssign(top.event, top.interval)) continue;  // drop

    if (top.version != interval_version[top.interval]) {
      // Stale: the interval changed since this score was computed. The
      // stale score upper-bounds the fresh one, so recompute and re-queue.
      top.score = model.MarginalGain(top.event, top.interval);
      top.version = interval_version[top.interval];
      ++stats.updates;
      heap.push(top);
      continue;
    }

    model.Apply(top.event, top.interval);
    ++interval_version[top.interval];
  }

  // Shard-private generation engines + the selection-phase model.
  stats.gain_evaluations =
      model.gain_evaluations() + generated.gain_evaluations;

  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
