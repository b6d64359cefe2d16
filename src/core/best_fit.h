#ifndef SES_CORE_BEST_FIT_H_
#define SES_CORE_BEST_FIT_H_

/// \file
/// BESTFIT — an event-major greedy variant (extension beyond the paper).
///
/// GRD is pair-major: it maintains scores for all |E| x |T| assignments
/// and repeatedly takes the global top, paying for score updates across
/// the chosen interval. BESTFIT instead fixes the *order of events* up
/// front (by their best empty-schedule score, an optimistic priority) and
/// then gives each event in turn its currently-best feasible interval,
/// refreshing only that event's |T| scores at selection time.
///
/// Cost: |E||T| initial evaluations + k|T| fresh evaluations — the same
/// initial pass as TOP plus a linear-in-k refresh, strictly cheaper than
/// GRD's update regime. Quality sits between TOP and GRD: event order is
/// decided on stale information, but interval choice is always fresh.
/// The ablation bench quantifies that trade.

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
