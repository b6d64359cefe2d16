#ifndef SES_CORE_GREEDY_H_
#define SES_CORE_GREEDY_H_

/// \file
/// GRD — the paper's greedy approximation algorithm (Algorithm 1).
///
/// GRD first computes the assignment score (Eq. 4) of every (event,
/// interval) pair and stores them in a list L. It then repeats k times:
/// pop the top-scoring assignment from L; if it is valid (event not yet
/// assigned + feasible) insert it into the schedule and recompute the
/// scores of the remaining assignments that refer to the chosen interval
/// (scores of other intervals are unaffected — Eq. 4 only depends on the
/// events co-located in the assignment's interval). Invalid assignments
/// encountered during the update pass are dropped from L (Algorithm 1,
/// line 13).

#include "core/solver.h"

namespace ses::core {

/// The paper's GRD, faithful to Algorithm 1: L is a flat list, pop-top is
/// a linear scan, and updates rewrite scores in place.
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
