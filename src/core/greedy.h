#ifndef SES_CORE_GREEDY_H_
#define SES_CORE_GREEDY_H_

/// \file
/// GRD — the paper's greedy approximation algorithm (Algorithm 1).
///
/// GRD first computes the assignment score (Eq. 4) of every (event,
/// interval) pair; L is that dense score grid, scores[t * |E| + e],
/// filled by the shared generation stage (core/score_gen.h). It then
/// repeats k times: pop the top-scoring assignment from L, insert it
/// into the schedule, drop its event's column from L, and re-score the
/// chosen interval's row — scores of other intervals are unaffected,
/// since feasibility and Eq. 4 only depend on the events co-located in
/// the assignment's interval. Pairs that become invalid are dropped
/// from L (Algorithm 1, line 13) by writing kDeadScore into their cell.
///
/// Tie rule: among exactly equal scores, popTopAssgn takes the lowest
/// (interval, event) — interval first.

#include "core/solver.h"

namespace ses::core {

/// The paper's GRD, faithful to Algorithm 1: L is the score grid, pop-top
/// is a linear scan over it, and the update pass re-scores the chosen
/// interval's row in place, sharded like generation.
class GreedySolver final : public Solver {
 public:
  std::string_view name() const override { return "grd"; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(const SesInstance& instance,
                                     const SolverOptions& options,
                                     const SolveContext& context) override;
};

}  // namespace ses::core

#endif  // SES_CORE_GREEDY_H_
