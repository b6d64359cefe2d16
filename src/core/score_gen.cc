#include "core/score_gen.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "core/attendance.h"
#include "util/hot_annotations.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ses::core {

namespace {

/// Scores intervals [lo, hi) on \p model, writing into the dense grid.
/// Returns the number of evaluations; sets \p termination and stops at
/// an interval boundary when the context says so.
///
/// SES_HOT: this is the per-shard fill of the O(|E|·|T|) generation
/// pass — every cell funnels through MarginalGain with no per-cell
/// allocation, locking, or IO.
SES_HOT uint64_t ScoreRange(const SesInstance& instance,
                            AttendanceModel& model,
                            const SolveContext& context, size_t lo, size_t hi,
                            std::vector<double>& scores,
                            util::Status* termination) {
  const size_t num_events = instance.num_events();
  uint64_t evaluations = 0;
  for (size_t t = lo; t < hi; ++t) {
    // Deliberate boundary poll: one deadline/cancellation check per
    // interval row (a clock read), amortized over |E| gain evaluations.
    if (context.CheckStop(termination)) break;  // ses-lint: allow(hot-path) boundary poll, once per |E|-cell row
    // Hoisted restrict row pointer: shards own disjoint [lo, hi) rows,
    // so nothing else aliases this row while we fill it, and the
    // compiler may keep the base address in a register across the row.
    double* SES_RESTRICT row = scores.data() + t * num_events;
    for (EventIndex e = 0; e < num_events; ++e) {
      if (model.schedule().IsAssigned(e)) continue;  // warm-started
      row[e] = model.MarginalGain(e, static_cast<IntervalIndex>(t));
      ++evaluations;
    }
  }
  return evaluations;
}

/// Re-scores candidates [lo, hi) of one row against \p model's loaded
/// interval \p t: a feasible candidate's cell gets its gain, any other
/// candidate's cell kDeadScore. Returns the number of gains evaluated.
///
/// SES_HOT: the per-shard body of every GRD/bestfit row refresh. It
/// only reads the model (LoadedGain is const), so shards of one row run
/// concurrently on one model and write disjoint cells.
SES_HOT uint64_t RefreshRange(const AttendanceModel& model, IntervalIndex t,
                              const EventIndex* candidates, size_t lo,
                              size_t hi, double* row) {
  uint64_t evaluations = 0;
  for (size_t i = lo; i < hi; ++i) {
    const EventIndex e = candidates[i];
    if (!model.CanAssign(e, t)) {
      row[e] = kDeadScore;
      continue;
    }
    row[e] = model.LoadedGain(e);
    ++evaluations;
  }
  return evaluations;
}

}  // namespace

ScoreShards::ScoreShards(const SolverOptions& options)
    // The shard budget; 0 = every available lane (ParallelForShards:
    // workers + caller). ValidateSolverOptions rejects negative values.
    : max_shards_(static_cast<size_t>(options.threads)) {
  if (max_shards_ == 1) return;  // one shard: inline, no pool
  pool_ = options.pool;
  if (pool_ != nullptr) return;
  // Transient pool for direct Solver::Solve callers without one; the
  // caller participates in shard execution, hence the -1 (also for
  // threads == 0, where "all lanes" means hardware_concurrency lanes
  // total, not hardware_concurrency workers plus the caller). Lanes are
  // capped at the core count: more shards than cores only adds
  // thread-spawn cost, never speed, and an absurd threads value must not
  // translate into that many OS threads.
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  const size_t lanes =
      max_shards_ == 0 ? hw : std::min<size_t>(max_shards_, hw);
  local_pool_ =
      std::make_unique<util::ThreadPool>(std::max<size_t>(1, lanes - 1));
  pool_ = local_pool_.get();
}

ScoreGenResult GenerateAssignmentScores(const SesInstance& instance,
                                        const SolverOptions& options,
                                        ScoreShards& shards,
                                        const SolveContext& context,
                                        std::vector<double>& scores) {
  const size_t num_intervals = instance.num_intervals();
  SES_CHECK_EQ(scores.size(),
               num_intervals * static_cast<size_t>(instance.num_events()));

  ScoreGenResult result;
  std::atomic<uint64_t> evaluations{0};
  /// Cross-shard stop aggregation; a named struct so the guarded-by
  /// relation is annotation-checkable (locals cannot carry
  /// SES_GUARDED_BY on their own).
  struct StopState {
    util::Mutex mutex;
    util::Status first_stop SES_GUARDED_BY(mutex);
  } stop;
  shards.ForEachShard(num_intervals, [&](size_t lo, size_t hi) {
    // One private model per shard: AttendanceModel keeps per-interval
    // scratch and is not shareable across threads. Replaying the
    // validated warm start puts every model in the exact schedule
    // state the caller scores under.
    AttendanceModel model(instance);
    SES_CHECK(ApplyWarmStart(model, options.warm_start).ok())
        << "warm start must be validated before score generation";
    util::Status termination;
    evaluations.fetch_add(ScoreRange(instance, model, context, lo, hi,
                                     scores, &termination),
                          std::memory_order_relaxed);
    if (!termination.ok()) {
      util::MutexLock lock(stop.mutex);
      if (stop.first_stop.ok()) stop.first_stop = std::move(termination);
    }
  });

  result.gain_evaluations = evaluations.load();
  {
    // ForEachShard is a barrier, but take the lock for the fan-in read
    // anyway: it is what lets the analysis prove the access, and an
    // uncontended lock here is free next to the sharded loop above.
    util::MutexLock lock(stop.mutex);
    result.termination = std::move(stop.first_stop);
  }
  return result;
}

ScoreGenResult GenerateAssignmentScores(const SesInstance& instance,
                                        const SolverOptions& options,
                                        const SolveContext& context,
                                        std::vector<double>& scores) {
  ScoreShards shards(options);
  return GenerateAssignmentScores(instance, options, shards, context,
                                  scores);
}

uint64_t RefreshIntervalScores(AttendanceModel& model, IntervalIndex t,
                               std::span<const EventIndex> candidates,
                               ScoreShards& shards,
                               std::vector<double>& scores) {
  const size_t num_events = model.schedule().instance().num_events();
  SES_CHECK_LE((static_cast<size_t>(t) + 1) * num_events, scores.size());
  model.LoadInterval(t);
  double* row = scores.data() + static_cast<size_t>(t) * num_events;
  std::atomic<uint64_t> evaluations{0};
  shards.ForEachShard(candidates.size(), [&](size_t lo, size_t hi) {
    evaluations.fetch_add(
        RefreshRange(model, t, candidates.data(), lo, hi, row),
        std::memory_order_relaxed);
  });
  return evaluations.load();
}

ScoreGenResult GenerateScoredAssignments(const SesInstance& instance,
                                         const SolverOptions& options,
                                         const SolveContext& context,
                                         const Schedule& schedule,
                                         const ScoreEmit& emit) {
  const size_t num_events = instance.num_events();
  std::vector<double> scores(
      static_cast<size_t>(instance.num_intervals()) * num_events);
  ScoreGenResult result =
      GenerateAssignmentScores(instance, options, context, scores);
  // A stopped pass covers only a prefix of the grid; emit nothing.
  if (!result.termination.ok()) return result;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < num_events; ++e) {
      if (schedule.IsAssigned(e)) continue;  // warm-started
      emit(e, t, scores[static_cast<size_t>(t) * num_events + e]);
    }
  }
  return result;
}

}  // namespace ses::core
