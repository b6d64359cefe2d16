#include "exp/runner.h"

#include "core/registry.h"
#include "core/validate.h"

namespace ses::exp {

util::Result<RunRecord> RunSolver(const core::SesInstance& instance,
                                  const std::string& solver_name,
                                  const core::SolverOptions& options,
                                  int64_t x) {
  SES_ASSIGN_OR_RETURN(std::unique_ptr<core::Solver> solver,
                       core::MakeSolver(solver_name));
  SES_ASSIGN_OR_RETURN(core::SolverResult result,
                       solver->Solve(instance, options));
  // Experiment runs carry no deadline or cancel token, so a non-OK
  // termination is a hard failure, never an interrupted run.
  SES_RETURN_IF_ERROR(result.termination);
  // Every schedule a solver returns must be feasible; fail loudly
  // otherwise rather than reporting a bogus utility.
  SES_RETURN_IF_ERROR(core::ValidateAssignments(instance, result.assignments));

  RunRecord record;
  record.solver = solver_name;
  record.x = x;
  record.utility = result.utility;
  record.gain_evaluations = result.stats.gain_evaluations;
  record.assignments = result.assignments.size();
  record.measurement.seconds = result.wall_seconds;
  return record;
}

util::Result<std::vector<RunRecord>> RunSolvers(
    const core::SesInstance& instance,
    const std::vector<std::string>& solver_names,
    const core::SolverOptions& options, int64_t x) {
  std::vector<RunRecord> records;
  records.reserve(solver_names.size());
  for (const std::string& name : solver_names) {
    SES_ASSIGN_OR_RETURN(RunRecord record,
                         RunSolver(instance, name, options, x));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace ses::exp
