#include "exp/load_generator.h"

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>
#include <vector>

#include "ebsn/generator.h"
#include "exp/workload.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace ses::exp {

namespace {

/// One pre-drawn request of the replay plan. The whole plan is drawn
/// before the clock starts, so wall-clock jitter can never change a
/// random choice.
struct PlannedRequest {
  double offset_seconds = 0.0;
  api::Priority priority = api::Priority::kNormal;
  std::string solver;
  uint64_t solver_seed = 0;
  bool has_deadline = false;
  double deadline_seconds = 0.0;
};

std::vector<PlannedRequest> DrawPlan(const TraceSpec& spec) {
  util::Rng rng(spec.seed);
  const std::vector<double> offsets = ArrivalOffsets(spec, rng);

  // Samplers over the spec's (deterministically ordered) mixes.
  std::vector<std::string> solver_names;
  std::vector<double> solver_weights;
  for (const auto& [solver, weight] : spec.solver_mix) {
    solver_names.push_back(solver);
    solver_weights.push_back(weight);
  }
  const util::DiscreteSampler solver_sampler(solver_weights);
  const util::DiscreteSampler priority_sampler(std::vector<double>(
      spec.priority_weights.begin(), spec.priority_weights.end()));

  std::vector<PlannedRequest> plan;
  plan.reserve(offsets.size());
  for (double offset : offsets) {
    PlannedRequest request;
    request.offset_seconds = offset;
    request.priority =
        static_cast<api::Priority>(priority_sampler.Sample(rng));
    request.solver = solver_names[solver_sampler.Sample(rng)];
    request.solver_seed = rng.Next();
    request.has_deadline = spec.deadline.fraction > 0.0 &&
                           rng.Bernoulli(spec.deadline.fraction);
    if (request.has_deadline) {
      request.deadline_seconds = rng.UniformDouble(
          spec.deadline.min_seconds, spec.deadline.max_seconds);
    }
    plan.push_back(std::move(request));
  }
  return plan;
}

/// Copies one delta histogram's stats into (count, p50, p99, mean).
void FillLatencyStats(const util::MetricsSnapshot& delta,
                      const std::string& name, uint64_t* count, double* p50,
                      double* p99, double* mean) {
  const util::HistogramSample* sample = delta.FindHistogram(name);
  if (sample == nullptr) {
    *count = 0;
    *p50 = *p99 = *mean = std::nan("");
    return;
  }
  *count = sample->count;
  *p50 = sample->Quantile(0.50);
  *p99 = sample->Quantile(0.99);
  *mean = sample->count == 0 ? std::nan("") : sample->mean();
}

/// JSON number, NaN as null (JSON has no NaN literal).
std::string JsonNumber(double value) {
  if (std::isnan(value)) return "null";
  return util::StrFormat("%.9g", value);
}

}  // namespace

LoadGenerator::LoadGenerator(TraceSpec spec) : spec_(std::move(spec)) {}

util::Result<BenchReport> LoadGenerator::Run() {
  const ebsn::EbsnDataset dataset = ebsn::GenerateSyntheticMeetup(spec_.dataset);
  const WorkloadFactory factory(dataset);
  auto built = factory.Build(spec_.workload);
  if (!built.ok()) return built.status();
  const core::SesInstance& instance = *built;

  api::SchedulerOptions options;
  options.num_threads =
      util::CapLanes(static_cast<size_t>(spec_.scheduler_threads),
                     std::thread::hardware_concurrency());
  options.max_queued_requests =
      static_cast<size_t>(spec_.max_queued_requests);
  options.expired_sweep_period_seconds = spec_.sweep_period_seconds;
  api::Scheduler scheduler(options);

  const std::vector<PlannedRequest> plan = DrawPlan(spec_);

  BenchReport report;
  report.trace_name = spec_.name;
  report.seed = spec_.seed;
  report.submitted = static_cast<int64_t>(plan.size());
  for (const auto& [solver, weight] : spec_.solver_mix) {
    (void)weight;
    report.solvers[solver];  // materialize every mixed solver, even if
                             // the draw never picks it
  }
  for (const PlannedRequest& request : plan) {
    ++report.lanes[static_cast<size_t>(request.priority)].submitted;
    ++report.solvers[request.solver].submitted;
  }

  const util::MetricsSnapshot before = scheduler.metric_registry().Snapshot();

  // Open-loop replay: submissions happen at the planned offsets whether
  // or not earlier requests have finished. sleep_until (not sleep_for)
  // keeps a slow Submit from shifting every later arrival.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<api::PendingSolve> pending;
  pending.reserve(plan.size());
  for (const PlannedRequest& planned : plan) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(planned.offset_seconds)));
    api::SolveRequest request;
    request.solver = planned.solver;
    request.priority = planned.priority;
    request.options.k = spec_.workload.k;
    request.options.seed = planned.solver_seed;
    if (planned.has_deadline) {
      // Constructed at submission: the budget covers queue wait plus
      // solve, the scheduler's RPC-style deadline semantics.
      request.deadline = core::Deadline::After(planned.deadline_seconds);
    }
    pending.push_back(scheduler.Submit(instance, std::move(request)));
  }

  for (size_t i = 0; i < pending.size(); ++i) {
    const api::SolveResponse response = pending[i].Get();
    BenchSolverReport& solver_report = report.solvers[plan[i].solver];
    if (response.status.ok()) {
      ++report.completed;
      report.total_utility += response.utility;
      solver_report.utility += response.utility;
    } else if (response.status.code() ==
               util::StatusCode::kResourceExhausted) {
      ++report.refused;
    } else if (response.status.code() ==
               util::StatusCode::kDeadlineExceeded) {
      ++report.deadline_expired;
    } else {
      ++report.failed;
    }
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  report.duration_seconds = elapsed.count();
  report.throughput_rps =
      report.duration_seconds > 0.0
          ? static_cast<double>(report.completed) / report.duration_seconds
          : 0.0;

  // Everything below reads the snapshot *delta*: this run's activity,
  // never process totals.
  const util::MetricsSnapshot delta = scheduler.SnapshotDelta(before);
  report.expired_in_queue =
      delta.CounterValue("scheduler.deadline_expired_in_queue");
  for (size_t lane = 0; lane < api::kNumPriorityLanes; ++lane) {
    const std::string lane_name =
        api::PriorityToString(static_cast<api::Priority>(lane));
    BenchLaneReport& lane_report = report.lanes[lane];
    FillLatencyStats(delta, "scheduler.queue_wait_seconds." + lane_name,
                     &lane_report.started, &lane_report.wait_p50_seconds,
                     &lane_report.wait_p99_seconds,
                     &lane_report.wait_mean_seconds);
    const util::HistogramSample* expired = delta.FindHistogram(
        "scheduler.expired_queue_wait_seconds." + lane_name);
    lane_report.expired_in_queue = expired == nullptr ? 0 : expired->count;
  }
  for (auto& [solver, solver_report] : report.solvers) {
    FillLatencyStats(delta, "scheduler.solve_seconds." + solver,
                     &solver_report.runs, &solver_report.solve_p50_seconds,
                     &solver_report.solve_p99_seconds,
                     &solver_report.solve_mean_seconds);
  }
  return report;
}

std::string RenderBenchReportJson(const BenchReport& report,
                                  bool include_timing) {
  std::string out = "{\n";
  out += util::StrFormat("  \"trace\": \"%s\",\n",
                         report.trace_name.c_str());
  out += util::StrFormat("  \"seed\": %llu,\n",
                         static_cast<unsigned long long>(report.seed));
  out += "  \"requests\": {\n";
  out += util::StrFormat("    \"submitted\": %lld,\n",
                         static_cast<long long>(report.submitted));
  out += util::StrFormat("    \"completed\": %llu,\n",
                         static_cast<unsigned long long>(report.completed));
  out += util::StrFormat("    \"refused\": %llu,\n",
                         static_cast<unsigned long long>(report.refused));
  out += util::StrFormat(
      "    \"deadline_expired\": %llu,\n",
      static_cast<unsigned long long>(report.deadline_expired));
  out += util::StrFormat(
      "    \"expired_in_queue\": %llu,\n",
      static_cast<unsigned long long>(report.expired_in_queue));
  out += util::StrFormat("    \"failed\": %llu\n",
                         static_cast<unsigned long long>(report.failed));
  out += "  },\n";
  out += util::StrFormat("  \"total_utility\": %s,\n",
                         JsonNumber(report.total_utility).c_str());

  out += "  \"lanes\": {\n";
  for (size_t lane = 0; lane < api::kNumPriorityLanes; ++lane) {
    const BenchLaneReport& lane_report = report.lanes[lane];
    out += util::StrFormat(
        "    \"%s\": {\n",
        api::PriorityToString(static_cast<api::Priority>(lane)));
    out += util::StrFormat("      \"submitted\": %lld,\n",
                           static_cast<long long>(lane_report.submitted));
    out += util::StrFormat(
        "      \"started\": %llu,\n",
        static_cast<unsigned long long>(lane_report.started));
    out += util::StrFormat(
        "      \"expired_in_queue\": %llu",
        static_cast<unsigned long long>(lane_report.expired_in_queue));
    if (include_timing) {
      out += ",\n      \"queue_wait_seconds\": {\n";
      out += util::StrFormat(
          "        \"p50\": %s,\n",
          JsonNumber(lane_report.wait_p50_seconds).c_str());
      out += util::StrFormat(
          "        \"p99\": %s,\n",
          JsonNumber(lane_report.wait_p99_seconds).c_str());
      out += util::StrFormat(
          "        \"mean\": %s\n",
          JsonNumber(lane_report.wait_mean_seconds).c_str());
      out += "      }";
    }
    out += util::StrFormat(
        "\n    }%s\n", lane + 1 < api::kNumPriorityLanes ? "," : "");
  }
  out += "  },\n";

  out += "  \"solvers\": {";
  size_t index = 0;
  for (const auto& [solver, solver_report] : report.solvers) {
    out += util::StrFormat("\n    \"%s\": {\n", solver.c_str());
    out += util::StrFormat("      \"submitted\": %lld,\n",
                           static_cast<long long>(solver_report.submitted));
    out += util::StrFormat(
        "      \"runs\": %llu,\n",
        static_cast<unsigned long long>(solver_report.runs));
    out += util::StrFormat("      \"utility\": %s",
                           JsonNumber(solver_report.utility).c_str());
    if (include_timing) {
      out += ",\n      \"solve_seconds\": {\n";
      out += util::StrFormat(
          "        \"p50\": %s,\n",
          JsonNumber(solver_report.solve_p50_seconds).c_str());
      out += util::StrFormat(
          "        \"p99\": %s,\n",
          JsonNumber(solver_report.solve_p99_seconds).c_str());
      out += util::StrFormat(
          "        \"mean\": %s\n",
          JsonNumber(solver_report.solve_mean_seconds).c_str());
      out += "      }";
    }
    ++index;
    out += util::StrFormat("\n    }%s",
                           index < report.solvers.size() ? "," : "");
  }
  out += "\n  }";

  if (include_timing) {
    out += ",\n  \"timing\": {\n";
    out += util::StrFormat("    \"duration_seconds\": %s,\n",
                           JsonNumber(report.duration_seconds).c_str());
    out += util::StrFormat("    \"throughput_rps\": %s\n",
                           JsonNumber(report.throughput_rps).c_str());
    out += "  }";
  }
  out += "\n}\n";
  return out;
}

}  // namespace ses::exp
