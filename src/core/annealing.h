#ifndef SES_CORE_ANNEALING_H_
#define SES_CORE_ANNEALING_H_

/// \file
/// Simulated annealing over the same move neighborhood as local search
/// (extension beyond the paper). Accepts worsening moves with probability
/// exp(delta / temperature) under a geometric cooling schedule, and
/// returns the best schedule visited.

#include "core/solver.h"

namespace ses::core {

/// Simulated-annealing solver; seeds from options.base_solver.
class SimulatedAnnealingSolver final : public Solver {
 public:
  std::string_view name() const override { return "anneal"; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(const SesInstance& instance,
                                     const SolverOptions& options,
                                     const SolveContext& context) override;
};

}  // namespace ses::core

#endif  // SES_CORE_ANNEALING_H_
