#include "exp/sweep.h"

#include <atomic>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace ses::exp {

namespace {

/// Builds \p point's instance and runs every solver on it into
/// \p records (one slot per solver). With a \p pool, the solvers fan
/// out on it (ParallelFor is re-entrant, so this is safe from inside a
/// pool task) and solvers with options.threads != 1 shard score
/// generation on it too; without one, everything runs inline. Returns
/// the lowest-index solver error.
util::Status RunPoint(const WorkloadFactory& factory, const SweepPoint& point,
                      const std::vector<std::string>& solvers,
                      util::ThreadPool* pool, std::span<RunRecord> records) {
  SES_ASSIGN_OR_RETURN(const core::SesInstance instance,
                       factory.Build(point.config));
  core::SolverOptions options = point.options;
  if (pool != nullptr && options.threads != 1) options.pool = pool;
  std::vector<util::Status> statuses(solvers.size());
  const auto run = [&](size_t s) {
    auto record = RunSolver(instance, solvers[s], options, point.x);
    if (record.ok()) {
      records[s] = std::move(record).value();
    } else {
      statuses[s] = record.status();
    }
  };
  if (pool == nullptr) {
    for (size_t s = 0; s < solvers.size(); ++s) run(s);
  } else {
    pool->ParallelFor(0, solvers.size(), run);
  }
  for (const util::Status& status : statuses) SES_RETURN_IF_ERROR(status);
  SES_LOG(kInfo) << "sweep x=" << point.x << " done";
  return util::Status::Ok();
}

}  // namespace

util::Result<std::vector<RunRecord>> RunSweep(
    const WorkloadFactory& factory, const std::vector<SweepPoint>& points,
    const std::vector<std::string>& solvers, size_t jobs) {
  // Point i owns records [i * n, (i + 1) * n), so output order is
  // independent of completion order.
  const size_t n = solvers.size();
  std::vector<RunRecord> records(points.size() * n);
  const auto slots = [&records, n](size_t i) {
    return std::span<RunRecord>(records).subspan(i * n, n);
  };
  if (jobs == 1) {
    for (size_t i = 0; i < points.size(); ++i) {
      SES_RETURN_IF_ERROR(
          RunPoint(factory, points[i], solvers, nullptr, slots(i)));
    }
    return records;
  }

  util::ThreadPool pool(
      util::CapLanes(jobs, std::thread::hardware_concurrency()));
  // Per-point outcome; empty when the point was skipped. The first
  // failure skips points that have not started yet. The pre-task check
  // races with other workers' stores, so a skipped point is not
  // guaranteed a lower-index failed predecessor — the scan below
  // therefore returns the lowest-index *recorded* error.
  std::vector<std::optional<util::Status>> outcomes(points.size());
  std::atomic<bool> failed{false};
  // One task per point (rather than ParallelFor's contiguous shards):
  // sweep points have very uneven cost — k=500 dwarfs k=100 — and FIFO
  // task pickup balances that across workers.
  for (size_t i = 0; i < points.size(); ++i) {
    pool.Submit([&, i] {
      if (failed.load(std::memory_order_relaxed)) return;
      util::Status status =
          RunPoint(factory, points[i], solvers, &pool, slots(i));
      if (!status.ok()) failed.store(true, std::memory_order_relaxed);
      outcomes[i] = std::move(status);
    });
  }
  pool.Wait();
  for (const std::optional<util::Status>& outcome : outcomes) {
    if (outcome.has_value()) SES_RETURN_IF_ERROR(*outcome);
  }
  return records;
}

util::Result<std::vector<SweepCell>> RunRepeatedSweep(
    const WorkloadFactory& factory, const std::vector<int64_t>& xs,
    const ConfigFactory& make_config,
    const std::vector<std::string>& solvers, int repetitions,
    uint64_t base_seed, size_t num_threads, int64_t solver_threads) {
  if (repetitions <= 0) {
    return util::Status::InvalidArgument("repetitions must be positive");
  }
  // Each (x, rep) cell is one independent sweep point; the per-cell seed
  // depends only on (x, rep), never on execution order.
  std::vector<SweepPoint> points;
  points.reserve(xs.size() * static_cast<size_t>(repetitions));
  for (int64_t x : xs) {
    for (int rep = 0; rep < repetitions; ++rep) {
      const uint64_t seed =
          base_seed + static_cast<uint64_t>(rep) * 1000003ULL +
          static_cast<uint64_t>(x);
      SweepPoint point;
      point.config = make_config(x, seed);
      point.options.k = point.config.k;
      point.options.seed = seed;
      point.options.threads = solver_threads;
      point.x = x;
      points.push_back(std::move(point));
    }
  }

  auto records = RunSweep(factory, points, solvers, num_threads);
  if (!records.ok()) return records.status();

  // Records arrive in point order, so samples accumulate in the same
  // order at every worker count.
  std::map<std::pair<int64_t, std::string>,
           std::pair<std::vector<double>, std::vector<double>>>
      samples;
  for (const RunRecord& record : *records) {
    auto& cell = samples[{record.x, record.solver}];
    cell.first.push_back(record.utility);
    cell.second.push_back(record.measurement.seconds);
  }

  std::vector<SweepCell> cells;
  cells.reserve(samples.size());
  for (const auto& [key, values] : samples) {
    SweepCell cell;
    cell.x = key.first;
    cell.solver = key.second;
    cell.utility = util::Summarize(values.first);
    cell.seconds = util::Summarize(values.second);
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::string RenderSweepTable(const std::string& title,
                             const std::string& x_label,
                             const std::vector<std::string>& solver_order,
                             const std::vector<SweepCell>& cells,
                             bool show_seconds) {
  std::map<int64_t, std::map<std::string, const SweepCell*>> grid;
  for (const SweepCell& cell : cells) {
    grid[cell.x][cell.solver] = &cell;
  }
  std::string out = "=== " + title + " ===\n";
  out += util::StrFormat("%10s", x_label.c_str());
  for (const std::string& solver : solver_order) {
    out += util::StrFormat(" %22s", solver.c_str());
  }
  out += "\n";
  for (const auto& [x, row] : grid) {
    out += util::StrFormat("%10lld", static_cast<long long>(x));
    for (const std::string& solver : solver_order) {
      auto it = row.find(solver);
      if (it == row.end()) {
        out += util::StrFormat(" %22s", "-");
        continue;
      }
      const util::Summary& s =
          show_seconds ? it->second->seconds : it->second->utility;
      out += util::StrFormat(" %14.2f +-%6.2f", s.mean, s.stddev);
    }
    out += "\n";
  }
  return out;
}

}  // namespace ses::exp
