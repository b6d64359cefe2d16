#ifndef SES_EXP_SWEEP_H_
#define SES_EXP_SWEEP_H_

/// \file
/// Repeated-measurement sweeps: run each sweep point on several workload
/// seeds and aggregate utility/time into summary statistics, so figure
/// series carry error bars instead of single draws.

#include <functional>
#include <string>
#include <vector>

#include "core/solver.h"
#include "exp/workload.h"
#include "util/stats.h"
#include "util/status.h"

namespace ses::exp {

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
/// cells run concurrently on a ParallelSweepRunner with \p num_threads
/// workers (0 = hardware concurrency; the default of 1 keeps existing
/// callers serial so parallelism — which perturbs the `seconds`
/// aggregates under CPU contention — stays opt-in). Per-cell seeding
/// makes the utility aggregates identical for every worker count.
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
