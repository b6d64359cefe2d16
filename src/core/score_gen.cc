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

/// Scores intervals [lo, hi) of the class grid on \p model, one cell
/// per class in \p classes. Returns the number of evaluations; sets
/// \p termination and stops at an interval boundary when the context
/// says so.
///
/// SES_HOT: this is the per-shard fill of the O(C·|T|) generation pass
/// — every cell funnels through LoadedClassGain with no per-cell
/// allocation, locking, or IO.
SES_HOT uint64_t ScoreRange(AttendanceModel& model,
                            const SolveContext& context,
                            std::span<const ClassIndex> classes,
                            size_t num_classes, size_t lo, size_t hi,
                            std::vector<double>& scores,
                            util::Status* termination) {
  uint64_t evaluations = 0;
  for (size_t t = lo; t < hi; ++t) {
    // Deliberate boundary poll: one deadline/cancellation check per
    // interval row (a clock read), amortized over C gain evaluations.
    if (context.CheckStop(termination)) break;  // ses-lint: allow(hot-path) boundary poll, once per C-cell row
    model.LoadInterval(static_cast<IntervalIndex>(t));
    // Hoisted restrict row pointer: shards own disjoint [lo, hi) rows,
    // so nothing else aliases this row while we fill it, and the
    // compiler may keep the base address in a register across the row.
    double* SES_RESTRICT row = scores.data() + t * num_classes;
    for (ClassIndex c : classes) row[c] = model.LoadedClassGain(c);
    evaluations += classes.size();
  }
  return evaluations;
}

/// Re-scores classes [lo, hi) of one row against \p model's loaded
/// interval \p t: a class with a live member gets its gain, any other
/// class's cell kDeadScore. Returns the number of gains evaluated.
///
/// SES_HOT: the per-shard body of every GRD/bestfit row refresh. It
/// only reads the model (LoadedClassGain is const), so shards of one
/// row run concurrently on one model and write disjoint cells.
SES_HOT uint64_t RefreshRange(const AttendanceModel& model, IntervalIndex t,
                              size_t lo, size_t hi, double* row) {
  uint64_t evaluations = 0;
  for (size_t i = lo; i < hi; ++i) {
    const auto c = static_cast<ClassIndex>(i);
    if (LowestLiveMember(model.schedule(), c, t) == kInvalidIndex) {
      row[c] = kDeadScore;
      continue;
    }
    row[c] = model.LoadedClassGain(c);
    ++evaluations;
  }
  return evaluations;
}

/// The classes with a member that \p warm_start leaves unassigned.
std::vector<ClassIndex> UnplacedClasses(
    const SesInstance& instance, std::span<const Assignment> warm_start) {
  std::vector<uint32_t> placed(instance.num_event_classes(), 0);
  for (const Assignment& a : warm_start) ++placed[instance.EventClass(a.event)];
  std::vector<ClassIndex> classes;
  for (ClassIndex c = 0; c < placed.size(); ++c) {
    if (placed[c] < instance.ClassMembers(c).size()) classes.push_back(c);
  }
  return classes;
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
  // total, not hardware_concurrency workers plus the caller). At least
  // two lanes, so a sharded request gets one worker even on one core.
  const size_t lanes = util::CapLanes(
      max_shards_, std::max<size_t>(2, std::thread::hardware_concurrency()));
  local_pool_ =
      std::make_unique<util::ThreadPool>(std::max<size_t>(1, lanes - 1));
  pool_ = local_pool_.get();
}

EventIndex LowestLiveMember(const Schedule& schedule, ClassIndex c,
                            IntervalIndex t) {
  for (EventIndex e : schedule.instance().ClassMembers(c)) {
    if (schedule.CanAssign(e, t)) return e;
  }
  return kInvalidIndex;
}

ScoreGenResult GenerateClassScores(const SesInstance& instance,
                                   const SolverOptions& options,
                                   ScoreShards& shards,
                                   const SolveContext& context,
                                   std::vector<double>& scores) {
  const size_t num_intervals = instance.num_intervals();
  const size_t num_classes = instance.num_event_classes();
  SES_CHECK_EQ(scores.size(), num_intervals * num_classes);
  const std::vector<ClassIndex> classes =
      UnplacedClasses(instance, options.warm_start);

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
    evaluations.fetch_add(ScoreRange(model, context, classes, num_classes,
                                     lo, hi, scores, &termination),
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
  const size_t num_events = instance.num_events();
  const size_t num_classes = instance.num_event_classes();
  SES_CHECK_EQ(scores.size(), instance.num_intervals() * num_events);
  std::vector<double> class_scores(instance.num_intervals() * num_classes);
  ScoreShards shards(options);
  ScoreGenResult result = GenerateClassScores(instance, options, shards,
                                              context, class_scores);
  if (!result.termination.ok()) return result;
  std::vector<bool> warm_started(num_events, false);
  for (const Assignment& a : options.warm_start) {
    warm_started[a.event] = true;
  }
  for (size_t t = 0; t < instance.num_intervals(); ++t) {
    for (EventIndex e = 0; e < num_events; ++e) {
      if (warm_started[e]) continue;
      scores[t * num_events + e] =
          class_scores[t * num_classes + instance.EventClass(e)];
    }
  }
  return result;
}

uint64_t RefreshIntervalScores(AttendanceModel& model, IntervalIndex t,
                               ScoreShards& shards,
                               std::vector<double>& scores) {
  const size_t num_classes =
      model.schedule().instance().num_event_classes();
  SES_CHECK_LE((static_cast<size_t>(t) + 1) * num_classes, scores.size());
  model.LoadInterval(t);
  double* row = scores.data() + static_cast<size_t>(t) * num_classes;
  std::atomic<uint64_t> evaluations{0};
  shards.ForEachShard(num_classes, [&](size_t lo, size_t hi) {
    evaluations.fetch_add(RefreshRange(model, t, lo, hi, row),
                          std::memory_order_relaxed);
  });
  return evaluations.load();
}

ScoreGenResult GenerateScoredAssignments(const SesInstance& instance,
                                         const SolverOptions& options,
                                         const SolveContext& context,
                                         const Schedule& schedule,
                                         const ScoreEmit& emit) {
  const size_t num_classes = instance.num_event_classes();
  std::vector<double> scores(
      static_cast<size_t>(instance.num_intervals()) * num_classes);
  ScoreShards shards(options);
  ScoreGenResult result =
      GenerateClassScores(instance, options, shards, context, scores);
  // A stopped pass covers only part of the grid; emit nothing.
  if (!result.termination.ok()) return result;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    const double* row = scores.data() + static_cast<size_t>(t) * num_classes;
    for (EventIndex e = 0; e < instance.num_events(); ++e) {
      if (schedule.IsAssigned(e)) continue;  // warm-started
      emit(e, t, row[instance.EventClass(e)]);
    }
  }
  return result;
}

}  // namespace ses::core
