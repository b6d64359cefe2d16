#ifndef SES_CORE_LOCAL_SEARCH_H_
#define SES_CORE_LOCAL_SEARCH_H_

/// \file
/// Randomized hill-climbing on top of a seed schedule (extension beyond
/// the paper; the natural "can we do better than greedy" follow-up).
///
/// Two cardinality-preserving move kinds:
///   - relocate: move one scheduled event to a different interval;
///   - swap: replace one scheduled event with an unscheduled candidate.
/// First-improvement acceptance; runs until options.max_iterations moves
/// have been tried.

#include <functional>

#include "core/attendance.h"
#include "core/solver.h"
#include "util/random.h"

namespace ses::core {

/// Shared move engine (also used by SimulatedAnnealingSolver).
///
/// Tries one random move on \p model and returns its utility delta.
/// When \p accept returns false the move is rolled back. The bool result
/// is false when no move could be generated (degenerate instance).
class MoveEngine {
 public:
  MoveEngine(const SesInstance& instance, AttendanceModel& model,
             util::Rng& rng);

  /// Attempts one random move; \p accept decides based on the delta.
  /// Returns true when a move was generated (regardless of acceptance).
  bool TryRandomMove(const std::function<bool(double delta)>& accept,
                     bool* accepted);

 private:
  bool TryRelocate(const std::function<bool(double)>& accept,
                   bool* accepted);
  bool TrySwap(const std::function<bool(double)>& accept, bool* accepted);

  /// Picks a uniformly random assigned event; false when none.
  bool PickAssigned(EventIndex* event);
  /// Picks a uniformly random unassigned event; false when all assigned.
  bool PickUnassigned(EventIndex* event);

  const SesInstance* instance_;
  AttendanceModel* model_;
  util::Rng* rng_;
};

/// The seed step shared by the improvement solvers (ls, anneal): solves
/// with options.base_solver (GRD or RAND) under \p context and replays
/// the schedule into \p model, which must be empty. \p termination
/// receives the seed run's termination — OK, or the deadline/cancel that
/// cut it short (the partial seed is still feasible). Errors only when
/// the seed solver rejects the request.
[[nodiscard]] util::Status SeedFromBaseSolver(const SesInstance& instance,
                                              const SolverOptions& options,
                                              const SolveContext& context,
                                              AttendanceModel& model,
                                              util::Status* termination);

/// Hill-climbing solver; seeds from options.base_solver (RAND or GRD).
class LocalSearchSolver final : public Solver {
 public:
  std::string_view name() const override { return "ls"; }

 protected:
  [[nodiscard]] util::Result<SolveOutcome> DoSolve(const SesInstance& instance,
                                     const SolverOptions& options,
                                     const SolveContext& context) override;
};

}  // namespace ses::core

#endif  // SES_CORE_LOCAL_SEARCH_H_
