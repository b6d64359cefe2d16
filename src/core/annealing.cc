#include "core/annealing.h"

#include <cmath>

#include "core/local_search.h"

namespace ses::core {

util::Result<SolveOutcome> SimulatedAnnealingSolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  if (options.initial_temperature <= 0.0) {
    return util::Status::InvalidArgument(
        "initial_temperature must be positive");
  }
  if (options.cooling <= 0.0 || options.cooling >= 1.0) {
    return util::Status::InvalidArgument("cooling must be in (0,1)");
  }
  AttendanceModel model(instance);
  util::Status termination;
  SES_RETURN_IF_ERROR(
      SeedFromBaseSolver(instance, options, context, model, &termination));

  util::Rng rng(options.seed ^ 0x5adc0ffee1234567ULL);
  MoveEngine engine(instance, model, rng);
  SolverStats stats;

  double temperature = options.initial_temperature;
  double best_utility = model.total_utility();
  std::vector<Assignment> best = model.schedule().Assignments();

  for (int64_t i = 0; termination.ok() && i < options.max_iterations; ++i) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    const auto accept = [&](double delta) {
      if (delta > 0.0) return true;
      if (temperature <= 1e-12) return false;
      return rng.NextDouble() < std::exp(delta / temperature);
    };
    bool accepted = false;
    if (!engine.TryRandomMove(accept, &accepted)) break;
    ++stats.moves_tried;
    if (accepted) {
      ++stats.moves_accepted;
      if (model.total_utility() > best_utility) {
        best_utility = model.total_utility();
        best = model.schedule().Assignments();
      }
    }
    temperature *= options.cooling;
  }
  stats.gain_evaluations = model.gain_evaluations();

  // Report the best schedule visited; Solve() re-evaluates it exactly.
  Schedule schedule(instance);
  for (const Assignment& a : best) {
    SES_CHECK(schedule.Assign(a.event, a.interval).ok());
  }
  return SolveOutcome{std::move(schedule), stats, std::move(termination)};
}

}  // namespace ses::core
