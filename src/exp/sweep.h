#ifndef SES_EXP_SWEEP_H_
#define SES_EXP_SWEEP_H_

/// \file
/// Experiment sweeps: RunSweep runs solvers over a list of sweep points
/// (serially, or on one util::ThreadPool), and RunRepeatedSweep repeats
/// each point on several workload seeds and aggregates utility/time into
/// summary statistics, so figure series carry error bars instead of
/// single draws.
///
/// Determinism contract: for a fixed point list, RunSweep returns the
/// same records at every `jobs` value, in the same order. Every
/// comparable RunRecord field is reproducible; only the wall-clock
/// `measurement` differs. Each point carries its own workload seed and
/// solver seed, so no state leaks between points; WorkloadFactory::Build
/// is thread-safe (per-thread interest scratch), so instance
/// construction and solver runs all proceed concurrently.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/solver.h"
#include "exp/runner.h"
#include "exp/workload.h"
#include "util/stats.h"
#include "util/status.h"

namespace ses::exp {

/// One independent unit of sweep work: a workload to build and the solver
/// options to run on it, tagged with the sweep coordinate \p x.
struct SweepPoint {
  PaperWorkloadConfig config;
  core::SolverOptions options;
  int64_t x = 0;
};

/// Builds each point's instance via \p factory and runs \p solvers on it.
/// Records come back in point order, then solver order.
///
/// \p jobs is the total lane count, capped at the core count
/// (util::CapLanes; 0 = every core). `jobs == 1` runs everything inline
/// on the calling thread — the timing-clean reference path. Any other
/// value runs one task per point on one util::ThreadPool, fans each
/// point's solvers out on the same pool, and lends that pool to solvers
/// whose options.threads != 1.
///
/// On error, returns the lowest-index recorded failure and skips points
/// that have not started. Which of several doomed points records its
/// error first can depend on timing, so treat the returned status as
/// diagnostic (the success path stays reproducible).
[[nodiscard]] util::Result<std::vector<RunRecord>> RunSweep(
    const WorkloadFactory& factory, const std::vector<SweepPoint>& points,
    const std::vector<std::string>& solvers, size_t jobs);

/// Aggregated measurements of one (sweep coordinate, solver) cell.
struct SweepCell {
  int64_t x = 0;
  std::string solver;
  util::Summary utility;
  util::Summary seconds;
};

/// Maps a sweep coordinate and repetition seed to a workload config.
using ConfigFactory =
    std::function<PaperWorkloadConfig(int64_t x, uint64_t seed)>;

/// Runs \p solvers on every x in \p xs, \p repetitions times each with
/// distinct seeds, and aggregates per (x, solver).
///
/// The solver's k is taken from the generated config's k. The (x, rep)
/// cells are RunSweep points run with \p num_threads as its `jobs`
/// (0 = every core; the default of 1 keeps existing callers serial so
/// parallelism — which perturbs the `seconds` aggregates under CPU
/// contention — stays opt-in). Per-cell seeding makes the utility
/// aggregates identical for every worker count.
/// \p solver_threads is forwarded to SolverOptions::threads
/// (grd/lazy/top/bestfit score-generation shards); utility aggregates
/// are bit-identical at any value.
[[nodiscard]] util::Result<std::vector<SweepCell>> RunRepeatedSweep(
    const WorkloadFactory& factory, const std::vector<int64_t>& xs,
    const ConfigFactory& make_config,
    const std::vector<std::string>& solvers, int repetitions,
    uint64_t base_seed, size_t num_threads = 1,
    int64_t solver_threads = 1);

/// Renders cells as "mean +- sd" per column, rows keyed by x.
std::string RenderSweepTable(const std::string& title,
                             const std::string& x_label,
                             const std::vector<std::string>& solver_order,
                             const std::vector<SweepCell>& cells,
                             bool show_seconds);

}  // namespace ses::exp

#endif  // SES_EXP_SWEEP_H_
