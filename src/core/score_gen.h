#ifndef SES_CORE_SCORE_GEN_H_
#define SES_CORE_SCORE_GEN_H_

/// \file
/// Assignment scoring shared by the four constructive solvers grd, lazy,
/// top and bestfit (Algorithm 1 of the paper).
///
/// Scores live on a class grid: scores[t * C + c] for the C event
/// classes of the instance (SesInstance::EventClass). Eq. 4 reads an
/// event's interest row and the interval's state, nothing else of the
/// event, so all members of a class score the same double at every
/// interval in every schedule state; scoring one representative per
/// class is exact, not an approximation. Only feasibility (location,
/// resources) and assignment differ per member, and the solvers check
/// those per event.
///
/// Generation (lines 2-4) fills the class grid under the
/// warm-start-only schedule. This O(C·|T|) sweep is embarrassingly
/// parallel — no cell depends on another — so it shards
/// interval-contiguously across a util::ThreadPool with one private
/// AttendanceModel per shard. It is the only initial-score sweep in the
/// solvers. TOP and lazy build their own structures from the emitted
/// per-event scores; GRD and bestfit keep the class grid itself as their
/// candidate set.
///
/// The row refresh (lines 5-13) keeps that grid current for GRD and
/// bestfit. Eq. 4 at t depends only on interval t's state, so after
/// Apply(e*, t*) only row t* is stale. RefreshIntervalScores re-scores
/// row t* against the caller's model, whose interval t* is already
/// loaded, with the classes sharded over the same pool as generation
/// (ScoreShards). A class with no unassigned member feasible at t* gets
/// kDeadScore instead; feasibility only shrinks as a schedule grows, so
/// such a cell never comes back to life.
///
/// Determinism contract: the score of (c, t) is a pure function of the
/// instance and the schedule (each shard model replays the warm start
/// in request order and accumulates the same doubles in the same order
/// at every shard count; a refresh reads one shared, unmodified model),
/// so the grid is bit-identical for every SolverOptions::threads value.
/// Emission runs in serial (t-major, e-minor) order over that grid, so
/// the four solvers produce byte-identical results at any thread count.
/// A pass stopped by the SolveContext emits nothing.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "core/solve_context.h"
#include "core/solver.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ses::core {

class AttendanceModel;

/// Grid value of a pair that is no longer a candidate: its event is
/// assigned, or its interval can no longer host it. Below every real
/// score (gains are >= 0).
inline constexpr double kDeadScore = -std::numeric_limits<double>::infinity();

/// The shard executor of one solve. Resolves SolverOptions::threads and
/// SolverOptions::pool once, so generation and every row refresh of a
/// solve run on the same pool: a direct Solver::Solve at threads != 1
/// without a pool spins up one transient pool for the whole solve.
class ScoreShards {
 public:
  /// threads == 1 runs every stage inline on the calling thread. Else
  /// the stages run on options.pool when set, or on a transient pool of
  /// min(threads, cores) lanes (all cores for threads == 0), the calling
  /// thread being one of them.
  explicit ScoreShards(const SolverOptions& options);

  /// Runs fn(lo, hi) over contiguous shards of [0, n) whose sizes
  /// differ by at most one, and returns once all are done. One shard
  /// (threads == 1, or n <= 1) runs inline without touching the pool.
  template <typename Fn>
  void ForEachShard(size_t n, const Fn& fn) {
    if (pool_ == nullptr || n <= 1) {
      fn(size_t{0}, n);
      return;
    }
    pool_->ParallelForShards(0, n, max_shards_, fn);
  }

 private:
  size_t max_shards_;
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<util::ThreadPool> local_pool_;
};

/// Outcome of one generation pass.
struct ScoreGenResult {
  /// Eq. 4 evaluations performed on shard-private engines — i.e. the
  /// evaluations *not* counted by the caller's own model. On a completed
  /// pass, |T| times the number of classes with an unassigned member, at
  /// every shard count. Solvers report model.gain_evaluations() + this.
  uint64_t gain_evaluations = 0;

  /// OK on a completed pass; the stop status (kDeadlineExceeded /
  /// kCancelled) when \p context interrupted generation. On interruption
  /// the grid covers only part of the intervals and nothing is emitted
  /// (the solvers fall back to returning the warm start).
  util::Status termination;
};

/// Receives one scored pair during assembly: emit(e, t, score).
using ScoreEmit =
    std::function<void(EventIndex, IntervalIndex, double)>;

/// The lowest member of class \p c that \p schedule can still assign
/// at \p t (unassigned and feasible there), or kInvalidIndex when none.
EventIndex LowestLiveMember(const Schedule& schedule, ClassIndex c,
                            IntervalIndex t);

/// Fills the class grid scores[t * instance.num_event_classes() + c]
/// with the marginal gain of class \p c's row at interval \p t under
/// the warm-start-only schedule, for every interval and every class
/// with a member the warm start leaves unassigned. Cells of the other
/// classes are left untouched. \p scores must be pre-sized to
/// num_intervals() * num_event_classes().
///
/// The shards run on \p shards. The warm start must already be
/// validated (the caller applied it to its own model) — shard models
/// replay it and treat failure as a programming error.
ScoreGenResult GenerateClassScores(const SesInstance& instance,
                                   const SolverOptions& options,
                                   ScoreShards& shards,
                                   const SolveContext& context,
                                   std::vector<double>& scores);

/// The per-event view of GenerateClassScores, on a ScoreShards(options)
/// of its own: fills scores[t * instance.num_events() + e] with the
/// score of e's class at t for every event \p e the warm start leaves
/// unassigned; entries of warm-started events are left untouched.
/// \p scores must be pre-sized to num_intervals() * num_events(). On a
/// stopped pass \p scores is left untouched.
ScoreGenResult GenerateAssignmentScores(const SesInstance& instance,
                                        const SolverOptions& options,
                                        const SolveContext& context,
                                        std::vector<double>& scores);

/// Re-scores interval \p t's class-grid row after the caller's model
/// changed interval t. Loads t on \p model (a no-op right after
/// model.Apply(e, t)), then shards the classes over \p shards: each
/// class with a member that model.CanAssign at t gets its
/// AttendanceModel::LoadedClassGain, every other one kDeadScore.
/// Returns the number of gains evaluated; \p model's own
/// gain_evaluations() does not count them.
uint64_t RefreshIntervalScores(AttendanceModel& model, IntervalIndex t,
                               ScoreShards& shards,
                               std::vector<double>& scores);

/// The full generation + assembly stage shared by the constructive
/// solvers: runs GenerateClassScores, then invokes \p emit for every
/// (e, t) with e unassigned in \p schedule (the warm-start-only
/// schedule), with the score of e's class at t, in serial t-major,
/// e-minor order — the order the solvers build their candidate
/// structures in, so the emitted sequence is bit-identical at every
/// SolverOptions::threads value. When \p context stops the pass,
/// nothing is emitted and result.termination is the stop status.
ScoreGenResult GenerateScoredAssignments(const SesInstance& instance,
                                         const SolverOptions& options,
                                         const SolveContext& context,
                                         const Schedule& schedule,
                                         const ScoreEmit& emit);

}  // namespace ses::core

#endif  // SES_CORE_SCORE_GEN_H_
