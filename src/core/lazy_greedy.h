#ifndef SES_CORE_LAZY_GREEDY_H_
#define SES_CORE_LAZY_GREEDY_H_

/// \file
/// Lazy greedy (CELF-style) — an optimized variant of GRD, an extension
/// beyond the paper.
///
/// GRD recomputes the score of every remaining assignment that refers to
/// the chosen interval after each selection. But per-user marginal gains
/// are *non-increasing* in the interval's scheduled interest mass (see
/// core/attendance.h), so a stale score is always an upper bound on the
/// true current score. That is precisely the invariant CELF
/// (cost-effective lazy forward selection, Leskovec et al. KDD'07)
/// exploits: keep assignments in a max-heap keyed by (possibly stale)
/// scores; on pop, if the score was computed before the interval last
/// changed, recompute and push back; otherwise the entry is both fresh
/// and maximal, so select it.
///
/// The result matches GRD's selection sequence whenever scores are
/// distinct; the ablation bench quantifies how many Eq. 4 evaluations the
/// laziness avoids.

#include "core/solver.h"

namespace ses::core {

/// Lazy (heap-based) greedy.
class LazyGreedySolver final : public Solver {
 public:
  std::string_view name() const override { return "lazy"; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(const SesInstance& instance,
                                     const SolverOptions& options,
                                     const SolveContext& context) override;
};

}  // namespace ses::core

#endif  // SES_CORE_LAZY_GREEDY_H_
