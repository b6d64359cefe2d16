#include "core/local_search.h"

#include <functional>

#include "core/greedy.h"
#include "core/random_schedule.h"

namespace ses::core {

MoveEngine::MoveEngine(const SesInstance& instance, AttendanceModel& model,
                       util::Rng& rng)
    : instance_(&instance), model_(&model), rng_(&rng) {}

bool MoveEngine::PickAssigned(EventIndex* event) {
  const Schedule& schedule = model_->schedule();
  if (schedule.size() == 0) return false;
  // Reservoir-free pick: scan events and keep the n-th assigned one.
  const size_t target = rng_->NextBounded(schedule.size());
  size_t seen = 0;
  for (EventIndex e = 0; e < instance_->num_events(); ++e) {
    if (!schedule.IsAssigned(e)) continue;
    if (seen == target) {
      *event = e;
      return true;
    }
    ++seen;
  }
  return false;
}

bool MoveEngine::PickUnassigned(EventIndex* event) {
  const Schedule& schedule = model_->schedule();
  const size_t unassigned =
      instance_->num_events() - schedule.size();
  if (unassigned == 0) return false;
  const size_t target = rng_->NextBounded(unassigned);
  size_t seen = 0;
  for (EventIndex e = 0; e < instance_->num_events(); ++e) {
    if (schedule.IsAssigned(e)) continue;
    if (seen == target) {
      *event = e;
      return true;
    }
    ++seen;
  }
  return false;
}

bool MoveEngine::TryRelocate(const std::function<bool(double)>& accept,
                             bool* accepted) {
  *accepted = false;
  EventIndex e;
  if (!PickAssigned(&e)) return false;
  if (instance_->num_intervals() < 2) return false;
  const IntervalIndex t0 = model_->schedule().IntervalOf(e);
  IntervalIndex t1 = static_cast<IntervalIndex>(
      rng_->NextBounded(instance_->num_intervals()));
  if (t1 == t0) t1 = (t1 + 1) % instance_->num_intervals();

  const double before = model_->total_utility();
  model_->Unapply(e);
  if (!model_->CanAssign(e, t1)) {
    model_->Apply(e, t0);  // revert
    return true;
  }
  model_->Apply(e, t1);
  const double delta = model_->total_utility() - before;
  if (accept(delta)) {
    *accepted = true;
    return true;
  }
  model_->Unapply(e);
  model_->Apply(e, t0);
  return true;
}

bool MoveEngine::TrySwap(const std::function<bool(double)>& accept,
                         bool* accepted) {
  *accepted = false;
  EventIndex out_event;
  EventIndex in_event;
  if (!PickAssigned(&out_event) || !PickUnassigned(&in_event)) return false;
  const IntervalIndex t0 = model_->schedule().IntervalOf(out_event);
  const IntervalIndex t1 = static_cast<IntervalIndex>(
      rng_->NextBounded(instance_->num_intervals()));

  const double before = model_->total_utility();
  model_->Unapply(out_event);
  if (!model_->CanAssign(in_event, t1)) {
    model_->Apply(out_event, t0);  // revert
    return true;
  }
  model_->Apply(in_event, t1);
  const double delta = model_->total_utility() - before;
  if (accept(delta)) {
    *accepted = true;
    return true;
  }
  model_->Unapply(in_event);
  model_->Apply(out_event, t0);
  return true;
}

bool MoveEngine::TryRandomMove(
    const std::function<bool(double delta)>& accept, bool* accepted) {
  if (rng_->Bernoulli(0.5)) {
    return TryRelocate(accept, accepted);
  }
  return TrySwap(accept, accepted);
}

util::Status SeedFromBaseSolver(const SesInstance& instance,
                                const SolverOptions& options,
                                const SolveContext& context,
                                AttendanceModel& model,
                                util::Status* termination) {
  GreedySolver greedy;
  RandomSolver random;
  Solver& seed = options.base_solver == BaseSolver::kGreedy
                     ? static_cast<Solver&>(greedy)
                     : random;
  SES_ASSIGN_OR_RETURN(SolverResult base,
                       seed.Solve(instance, options, context));
  for (const Assignment& a : base.assignments) {
    model.Apply(a.event, a.interval);
  }
  *termination = std::move(base.termination);
  return util::Status::Ok();
}

util::Result<SolveOutcome> LocalSearchSolver::DoSolve(
    const SesInstance& instance, const SolverOptions& options,
    const SolveContext& context) {
  // The context is threaded through the seed, so an expiring deadline
  // leaves a partial (still feasible) seed to improve on.
  AttendanceModel model(instance);
  util::Status termination;
  SES_RETURN_IF_ERROR(
      SeedFromBaseSolver(instance, options, context, model, &termination));

  util::Rng rng(options.seed ^ 0x10ca15ea5c4ed01eULL);
  MoveEngine engine(instance, model, rng);
  SolverStats stats;
  const auto accept_improving = [](double delta) { return delta > 1e-12; };
  for (int64_t i = 0; termination.ok() && i < options.max_iterations; ++i) {
    if (context.CheckStop(&termination)) break;
    context.CountWork(1);
    bool accepted = false;
    if (!engine.TryRandomMove(accept_improving, &accepted)) break;
    ++stats.moves_tried;
    if (accepted) ++stats.moves_accepted;
  }
  stats.gain_evaluations = model.gain_evaluations();

  return SolveOutcome{model.schedule(), stats, std::move(termination)};
}

}  // namespace ses::core
