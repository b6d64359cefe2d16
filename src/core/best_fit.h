#ifndef SES_CORE_BEST_FIT_H_
#define SES_CORE_BEST_FIT_H_

/// \file
/// BESTFIT — an event-major greedy variant (extension beyond the paper).
///
/// GRD is pair-major: it maintains scores for all |E| x |T| assignments
/// and repeatedly takes the global top. BESTFIT instead fixes the *order
/// of events* up front (by their best empty-schedule score, an
/// optimistic priority) and then gives each event in turn its
/// currently-best feasible interval, read from its column of the shared
/// score grid (core/score_gen.h). The grid stays current because every
/// placement re-scores the chosen interval's row for the events not yet
/// visited.
///
/// Cost: |E||T| initial evaluations + one row refresh per placement but
/// the last, over the not-yet-visited events only — at most (k-1)|E|
/// fresh evaluations, fewer than GRD's refreshes of the same rows over
/// every unassigned event. Quality sits between TOP and GRD: event order
/// is decided on stale information, but interval choice is always
/// fresh. The ablation bench quantifies that trade.

#include "core/solver.h"

namespace ses::core {

/// Event-major greedy.
class BestFitSolver final : public Solver {
 public:
  std::string_view name() const override { return "bestfit"; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(const SesInstance& instance,
                                     const SolverOptions& options,
                                     const SolveContext& context) override;
};

}  // namespace ses::core

#endif  // SES_CORE_BEST_FIT_H_
