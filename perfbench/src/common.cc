#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/objective.h"
#include "core/schedule.h"
#include "core/score_gen.h"
#include "core/validate.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  ses::util::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.Next();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) +
         1e-9 * static_cast<double>(t.tv_nsec);
}

std::vector<double> TimeReps(const std::function<void()>& fn,
                             double min_seconds, size_t max_reps) {
  std::vector<double> reps;
  double spent = 0.0;
  while (reps.empty() || (spent < min_seconds && reps.size() < max_reps)) {
    const auto t0 = Clock::now();
    fn();
    reps.push_back(Seconds(t0, Clock::now()));
    spent += reps.back();
  }
  return reps;
}

TimedRequest SubmitAndWait(api::Scheduler& scheduler, const std::string& name,
                           api::SolveRequest request) {
  TimedRequest timed;
  timed.submit_begin = Clock::now();
  api::PendingSolve pending = scheduler.Submit(name, std::move(request));
  timed.submit_end = Clock::now();
  timed.response = pending.Get();
  timed.done = Clock::now();
  return timed;
}

void TraceRequest(SpanLog& log, uint64_t op, int parent,
                  const TimedRequest& request) {
  log.Add("api.Submit", op, parent, request.submit_begin, request.submit_end);
  const int wait =
      log.Add("api.Get", op, parent, request.submit_end, request.done);
  // Admission happens inside Submit; the queue interval is placed from the
  // end of the call, and both rebuilt intervals are clipped to the wait.
  const double wait_end = log.Since(request.done);
  const double queued = log.Since(request.submit_end);
  const double started =
      std::min(queued + request.response.queue_seconds, wait_end);
  const double solved =
      std::min(started + request.response.wall_seconds, wait_end);
  log.AddSeconds("api.queue", op, wait, queued, started);
  log.AddSeconds("core.solve", op, wait, started, solved);
}

double HandoffSeconds(const TimedRequest& request) {
  return Seconds(request.submit_end, request.done) -
         request.response.queue_seconds - request.response.wall_seconds;
}

namespace {

/// TotalUtility of \p assignments, recomputed from scratch; NaN when they
/// do not form a schedule.
double Recompute(const core::SesInstance& instance,
                 const std::vector<core::Assignment>& assignments) {
  core::Schedule schedule(instance);
  for (const core::Assignment& a : assignments) {
    if (!schedule.Assign(a.event, a.interval).ok()) return std::nan("");
  }
  return core::TotalUtility(instance, schedule);
}

}  // namespace

void CheckResponse(Report& report, const core::SesInstance& instance,
                   const api::SolveResponse& response, int64_t k,
                   const std::string& what) {
  if (!response.status.ok()) {
    report.Fail(what + ": status " + response.status.ToString());
    return;
  }
  if (response.schedule.size() > static_cast<size_t>(k)) {
    report.Fail(what + ": " + std::to_string(response.schedule.size()) +
                " assignments exceed k=" + std::to_string(k));
  }
  if (const auto status =
          core::ValidateAssignments(instance, response.schedule);
      !status.ok()) {
    report.Fail(what + ": infeasible schedule: " + status.ToString());
    return;
  }
  // The response lists assignments by (interval, event) while the solver
  // summed in selection order, so the recompute may differ in the last
  // bits; anything beyond rounding is a wrong utility.
  const double recomputed = Recompute(instance, response.schedule);
  if (!(std::fabs(recomputed - response.utility) <=
        1e-12 * std::fabs(recomputed))) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  ": utility %.17g differs from the recompute %.17g",
                  response.utility, recomputed);
    report.Fail(what + line);
  }
}

bool SameResult(const api::SolveResponse& a, const api::SolveResponse& b) {
  return a.schedule == b.schedule &&
         std::memcmp(&a.utility, &b.utility, sizeof(double)) == 0;
}

std::map<std::string, TimedRequest> SolvePass(
    api::Scheduler& scheduler, const std::string& name,
    const core::SesInstance& instance, int64_t k, size_t nproc,
    Report& report) {
  std::map<std::string, TimedRequest> pass;
  for (const SolveKind& kind : kSolveKinds) {
    api::SolveRequest request;
    request.solver = kind.solver;
    request.options.k = k;
    request.options.threads = kind.parallel ? static_cast<int64_t>(nproc) : 1;
    TimedRequest timed = SubmitAndWait(scheduler, name, std::move(request));
    ++report.attempted;
    if (!timed.response.status.ok()) ++report.failed;
    pass[kind.label] = std::move(timed);
  }
  for (const SolveKind& kind : kSolveKinds) {
    CheckResponse(report, instance, pass[kind.label].response, k,
                  std::string(kind.label) + " on " + name);
  }
  if (!SameResult(pass["grd"].response, pass["grd_par"].response)) {
    report.Fail("GRD at threads=1 and threads=" + std::to_string(nproc) +
                " returned different results on " + name);
  }
  return pass;
}

void TracePass(SpanLog& log, uint64_t op,
               const std::map<std::string, TimedRequest>& pass) {
  for (const SolveKind& kind : kSolveKinds) {
    const TimedRequest& t = pass.at(kind.label);
    const int root = log.Add(kind.label, op, -1, t.submit_begin, t.done);
    TraceRequest(log, op++, root, t);
  }
}

namespace {

api::SolveRequest Grd(int64_t k) {
  api::SolveRequest request;
  request.solver = "grd";
  request.options.k = k;
  return request;
}

}  // namespace

bool RunReplan(api::Scheduler& scheduler, const exp::WorkloadFactory& factory,
               uint64_t seed, const std::string& name, Replan& r,
               Report& checks) {
  exp::PaperWorkloadConfig config;
  config.k = r.k;
  config.seed = seed;
  r.begin = Clock::now();
  auto built = factory.Build(config);
  r.built = Clock::now();
  if (!built.ok()) {
    checks.Fail("Build: " + built.status().ToString());
    return false;
  }
  auto instance = std::make_shared<const core::SesInstance>(std::move(*built));
  if (!scheduler.LoadInstance(name, instance).ok()) {
    checks.Fail("LoadInstance " + name + " failed");
    return false;
  }
  r.instance = std::move(instance);
  r.loaded = Clock::now();
  r.first = SubmitAndWait(scheduler, name, Grd(r.first_k));
  api::SolveRequest extend = Grd(r.k);
  extend.options.warm_start = r.first.response.schedule;
  r.extended = SubmitAndWait(scheduler, name, std::move(extend));
  r.dropping = Clock::now();
  const bool dropped = scheduler.Drop(name).ok();
  r.end = Clock::now();
  if (!dropped) checks.Fail("Drop " + name + " failed");
  return dropped && r.first.response.status.ok() &&
         r.extended.response.status.ok();
}

void CheckReplan(const Replan& r, Report& checks) {
  CheckResponse(checks, *r.instance, r.first.response, r.first_k,
                "replan first plan");
  CheckResponse(checks, *r.instance, r.extended.response, r.k,
                "replan extension");
  const auto& warm = r.first.response.schedule;
  const auto& ext = r.extended.response.schedule;
  for (const core::Assignment& a : warm) {
    if (std::find(ext.begin(), ext.end(), a) == ext.end()) {
      checks.Fail("a warm-start assignment moved in the extended schedule");
      break;
    }
  }
  if (r.extended.response.utility < r.first.response.utility) {
    checks.Fail("the extended schedule lost utility");
  }
}

void TraceReplan(SpanLog& log, uint64_t op, const Replan& r) {
  const int root = log.Add("replan", op, -1, r.begin, r.end);
  log.Add("exp.WorkloadFactory::Build", op, root, r.begin, r.built);
  log.Add("api.LoadInstance", op, root, r.built, r.loaded);
  for (const auto& [label, t] :
       {std::pair{"replan.grd_first", &r.first},
        std::pair{"replan.grd_extend_warm", &r.extended}}) {
    const int request = log.Add(label, op, root, t->submit_begin, t->done);
    TraceRequest(log, op, request, *t);
  }
  log.Add("api.Drop", op, root, r.dropping, r.end);
}

namespace {

/// Calls \p fn under a root span \p root with one child span \p call, and
/// returns the call's seconds.
double TracedCall(SpanLog& log, TraceCost& cost, uint64_t op,
                  const char* root, const char* call,
                  const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  const int parent = log.Add(root, op, -1, t0, t1);
  log.Add(call, op, parent, t0, t1);
  cost.recording += Seconds(t1, Clock::now());
  cost.traced += Seconds(t0, t1);
  return Seconds(t0, t1);
}

/// Median seconds of \p fn over repeated traced calls (at least one, until
/// 0.2 s are spent, at most 2000).
double MedianTraced(SpanLog& log, TraceCost& cost, uint64_t& op,
                    const char* root, const char* call,
                    const std::function<void()>& fn) {
  std::vector<double> calls;
  TimeReps(
      [&] {
        calls.push_back(TracedCall(log, cost, op++, root, call, fn));
      },
      0.2, 2000);
  return Median(calls);
}

void AddSolverStats(Report& report, const std::string& solver,
                    const api::SolveResponse& response) {
  const auto& stats = response.stats;
  report.Add("core." + solver + ".gain_evaluations", "count",
             static_cast<double>(stats.gain_evaluations));
  if (solver != "top") {  // TOP scores once and never updates
    report.Add("core." + solver + ".updates", "count",
               static_cast<double>(stats.updates));
  }
  report.Add("core." + solver + ".pops", "count",
             static_cast<double>(stats.pops));
}

}  // namespace

void MeasureCoreLayers(Report& report, SpanLog& log, TraceCost& cost,
                       const Env& env, const core::SesInstance& instance,
                       int64_t k,
                       std::map<std::string, api::SolveResponse> solved) {
  uint64_t op = 1u << 30;  // apart from the workload's own operation ids
  const auto nproc = static_cast<int64_t>(env.nproc);
  const size_t pairs =
      static_cast<size_t>(instance.num_events()) * instance.num_intervals();

  // Score generation, serial and sharded over nproc lanes (the pool's
  // workers plus the calling thread). The two grids must be bit-identical.
  ses::util::ThreadPool pool(std::max<size_t>(1, env.nproc - 1));
  std::vector<double> serial(pairs, 0.0);
  std::vector<double> sharded(pairs, 0.0);
  core::SolverOptions options;
  options.k = k;
  const double gen_s = MedianTraced(
      log, cost, op, "bench.score_gen",
      "core.GenerateAssignmentScores", [&] {
        (void)core::GenerateAssignmentScores(instance, options,
                                             core::SolveContext(), serial);
      });
  options.threads = nproc;
  options.pool = &pool;
  const double gen_par_s = MedianTraced(
      log, cost, op, "bench.score_gen_par",
      "core.GenerateAssignmentScores", [&] {
        (void)core::GenerateAssignmentScores(instance, options,
                                             core::SolveContext(), sharded);
      });
  if (std::memcmp(serial.data(), sharded.data(),
                  pairs * sizeof(double)) != 0) {
    report.Fail("score grids differ between 1 and " + std::to_string(nproc) +
                " shards");
  }
  report.Add("core.score_gen_s", "s", gen_s,
             "GenerateAssignmentScores, 1 shard");
  report.Add("core.score_gen_par_s", "s", gen_par_s,
             std::to_string(nproc) + " shards");
  report.Add("core.score_gen_speedup", "ratio", gen_s / gen_par_s,
             "base: " + std::to_string(nproc) + " shards");
  report.Add("core.gain_eval_ns", "ns",
             gen_s * 1e9 / static_cast<double>(pairs),
             std::to_string(pairs) + " (event, interval) pairs");

  // Lazy greedy runs here, on a scheduler of nproc workers.
  api::SchedulerOptions scheduler_options;
  scheduler_options.num_threads = env.nproc;
  api::Scheduler scheduler(scheduler_options);
  auto request = [&](const char* solver) {
    api::SolveRequest r;
    r.solver = solver;
    r.options.k = k;
    r.options.threads = nproc;
    return r;
  };

  // The reference objective on GRD's schedule.
  core::Schedule grd_schedule(instance);
  for (const auto& a : solved["grd_par"].schedule) {
    (void)grd_schedule.Assign(a.event, a.interval);
  }
  const double objective_s =
      MedianTraced(log, cost, op, "bench.objective",
                   "core.TotalUtility",
                   [&] { (void)core::TotalUtility(instance, grd_schedule); });
  report.Add("core.objective_s", "s", objective_s, "TotalUtility");
  report.Add("core.grd_select_s", "s",
             solved["grd_par"].wall_seconds - gen_par_s - objective_s,
             "derived: GRD solve wall - core.score_gen_par_s - "
             "core.objective_s");

  // Lazy greedy, kept out of the end-to-end metrics.
  api::SolveResponse lazy;
  const double lazy_s = MedianTraced(
      log, cost, op, "bench.lazy_par", "api.Scheduler::Solve",
      [&] { lazy = scheduler.Solve(instance, request("lazy")); });
  CheckResponse(report, instance, lazy, k, "core lazy");
  char note[96];
  std::snprintf(note, sizeof(note), "utility %.3f vs GRD %.3f", lazy.utility,
                solved["grd_par"].utility);
  report.Add("core.lazy_par.solve_s", "s", lazy_s, note);

  AddSolverStats(report, "grd", solved["grd_par"]);
  const auto& grd_stats = solved["grd_par"].stats;
  report.Add("core.grd.pop_yield", "ratio",
             static_cast<double>(solved["grd_par"].schedule.size()) /
                 static_cast<double>(std::max<uint64_t>(1, grd_stats.pops)),
             "assignments per pop");
  AddSolverStats(report, "top", solved["top_par"]);
  AddSolverStats(report, "bestfit", solved["bestfit_par"]);
}

void FinishTrace(Report& report, const Env& env,
                 const std::vector<Span>& spans, const TraceCost& cost) {
  report.Add("bench.trace_overhead_frac", "ratio",
             cost.recording / cost.traced,
             "span recording time per traced second");
  std::printf("# layer self time (spans: %zu)\n", spans.size());
  for (const LayerTotals& t : AggregateSpans(spans)) {
    std::printf("#   %-32s n=%-8zu total=%.6fs self=%.6fs\n", t.name.c_str(),
                t.count, t.total, t.self);
  }
  for (const RootShare& kind : AttributeRoots(spans)) {
    std::printf("# root %-24s n=%-6zu attributed to layer spans %.6f "
                "(least root %.6f, floor %.2f)\n",
                kind.name.c_str(), kind.roots, kind.share, kind.least,
                kMinRootAttribution);
    if (!(kind.share >= kMinRootAttribution)) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "root spans %s are only %.4f attributed to their layer "
                    "spans (floor %.2f)",
                    kind.name.c_str(), kind.share, kMinRootAttribution);
      report.Fail(line);
    }
  }
  if (!env.args.spans_out.empty() && !WriteSpans(spans, env.args.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 env.args.spans_out.c_str());
  }
}

}  // namespace perfbench
