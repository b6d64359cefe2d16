#ifndef SES_EXP_RUNNER_H_
#define SES_EXP_RUNNER_H_

/// \file
/// Experiment runner: executes a set of solvers on one workload and
/// collects per-run measurements — the machinery behind every figure
/// reproduction in bench/. Solvers are called directly
/// (core::MakeSolver -> Solve -> ValidateAssignments); exp::RunSweep
/// (exp/sweep.h) fans this across sweep points.

#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solver.h"
#include "exp/workload.h"
#include "util/status.h"

namespace ses::exp {

/// Wall-clock measurement of one run. Split from RunRecord's comparable
/// fields: `seconds` is the only value that differs between reruns and
/// worker counts, so keeping it out of the comparable struct lets CSV
/// diffs and record comparisons be byte-exact.
struct RunMeasurement {
  double seconds = 0.0;
};

/// One measurement row. Every direct field is deterministic — identical
/// across serial/parallel execution and across reruns; the wall-clock
/// part lives in `measurement`.
struct RunRecord {
  std::string solver;
  /// The sweep coordinate (k or |T|, depending on the experiment).
  int64_t x = 0;
  double utility = 0.0;
  uint64_t gain_evaluations = 0;
  size_t assignments = 0;
  /// Non-comparable wall-clock measurement.
  RunMeasurement measurement;
};

/// Runs solver \p solver_name once on \p instance with \p options and
/// validates the returned schedule; \p x tags the record with the sweep
/// coordinate. Unknown solvers fail with kNotFound.
[[nodiscard]] util::Result<RunRecord> RunSolver(
    const core::SesInstance& instance, const std::string& solver_name,
    const core::SolverOptions& options, int64_t x);

/// RunSolver for each named solver in turn, on the calling thread;
/// records come back in solver-list order.
[[nodiscard]] util::Result<std::vector<RunRecord>> RunSolvers(
    const core::SesInstance& instance,
    const std::vector<std::string>& solver_names,
    const core::SolverOptions& options, int64_t x);

}  // namespace ses::exp

#endif  // SES_EXP_RUNNER_H_
