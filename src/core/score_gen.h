#ifndef SES_CORE_SCORE_GEN_H_
#define SES_CORE_SCORE_GEN_H_

/// \file
/// Assignment-score generation shared by the four constructive solvers
/// grd, lazy, top and bestfit (Algorithm 1, lines 2-4 of the paper): the
/// marginal gain of every (event, interval) pair under the
/// warm-start-only schedule. This O(|E|·|T|) sweep dominates their
/// runtime on paper-scale instances and is embarrassingly parallel — no
/// pair's score depends on another — so it shards interval-contiguously
/// across a util::ThreadPool with one private AttendanceModel per shard.
/// It is the only such sweep in the solvers: each of the four builds its
/// own candidate structure from the emitted scores.
///
/// Determinism contract: the score of (e, t) is a pure function of the
/// instance and the warm start (each shard model replays the warm start
/// in request order and accumulates the same doubles in the same order
/// at every shard count), so the filled score grid is bit-identical for
/// every SolverOptions::threads value. Emission runs in serial (t-major,
/// e-minor) order over that grid, so the four solvers produce
/// byte-identical results at any thread count. A pass stopped by the
/// SolveContext emits nothing.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "core/solve_context.h"
#include "core/solver.h"
#include "util/status.h"

namespace ses::core {

/// Outcome of one generation pass.
struct ScoreGenResult {
  /// Eq. 4 evaluations performed on shard-private engines — i.e. the
  /// evaluations *not* counted by the caller's own model. On a completed
  /// pass, the number of unassigned (event, interval) pairs at every
  /// shard count. Solvers report model.gain_evaluations() + this.
  uint64_t gain_evaluations = 0;

  /// OK on a completed pass; the stop status (kDeadlineExceeded /
  /// kCancelled) when \p context interrupted generation. On interruption
  /// the grid covers only a prefix and nothing is emitted (the solvers
  /// fall back to returning the warm start).
  util::Status termination;
};

/// Receives one scored pair during assembly: emit(e, t, score).
using ScoreEmit =
    std::function<void(EventIndex, IntervalIndex, double)>;

/// Fills scores[t * instance.num_events() + e] with the marginal gain of
/// assigning event \p e to interval \p t under the warm-start-only
/// schedule, for every unassigned event and every interval. Entries of
/// warm-started events are left untouched. \p scores must be pre-sized
/// to num_intervals() * num_events().
///
/// options.threads selects the shard count (see SolverOptions). A single
/// shard runs inline on the calling thread; more run on options.pool
/// when set, else on a transient local pool. The warm start must already
/// be validated (the caller applied it to its own model) — shard models
/// replay it and treat failure as a programming error.
ScoreGenResult GenerateAssignmentScores(const SesInstance& instance,
                                        const SolverOptions& options,
                                        const SolveContext& context,
                                        std::vector<double>& scores);

/// The full generation + assembly stage shared by the constructive
/// solvers: runs GenerateAssignmentScores, then invokes \p emit for every
/// (e, t) with e unassigned in \p schedule (the warm-start-only schedule)
/// in serial t-major, e-minor order — the order the solvers build their
/// candidate structures in, so the emitted sequence is bit-identical at
/// every SolverOptions::threads value. When \p context stops the pass,
/// nothing is emitted and result.termination is the stop status.
ScoreGenResult GenerateScoredAssignments(const SesInstance& instance,
                                         const SolverOptions& options,
                                         const SolveContext& context,
                                         const Schedule& schedule,
                                         const ScoreEmit& emit);

}  // namespace ses::core

#endif  // SES_CORE_SCORE_GEN_H_
