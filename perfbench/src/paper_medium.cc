/// paper_medium: the paper's Section IV-A workload at the "medium k=250"
/// scale (12,000 users, |E| = 500, |T| = 375), solved by one closed-loop
/// client through a Scheduler of nproc workers: the four solves of every
/// workload, then one replan of a fresh instance at the same scale (plan
/// k = 125, extend to k = 250 warm-started). Score generation, GRD's
/// update pass, the objective recompute and, in the replan, building the
/// instance do nearly all the work here; the api layer's share is
/// negligible.

#include <cstdio>

#include "common.h"
#include "ebsn/generator.h"
#include "exp/workload.h"

namespace perfbench {
namespace {

constexpr int64_t kK = 250;
constexpr int64_t kReplanFirstK = 125;
constexpr int kSetups = 3;
constexpr const char* kName = "paper";

/// Everything one set-up builds; the last one serves the run.
struct Setup {
  std::unique_ptr<ebsn::EbsnDataset> dataset;
  std::unique_ptr<exp::WorkloadFactory> factory;
  std::shared_ptr<const core::SesInstance> instance;
  std::unique_ptr<api::Scheduler> scheduler;
};

}  // namespace

int RunPaperMedium(const Env& env, Report& report) {
  const uint64_t seed = env.args.seed;
  std::vector<double> setup_s, generate_s, build_s, load_us;
  Setup s;
  for (int i = 0; i < kSetups; ++i) {
    s = Setup();  // release the previous set-up before building the next
    const auto t0 = i == 0 ? env.start : Clock::now();
    ebsn::SyntheticMeetupConfig data;
    data.num_users = 12000;
    data.num_events = 6000;
    data.num_groups = 800;
    data.num_tags = 400;
    // One fixed dataset, as the paper evaluates on one Meetup dataset;
    // --seed draws the instance from it.
    auto g0 = Clock::now();
    s.dataset = std::make_unique<ebsn::EbsnDataset>(
        ebsn::GenerateSyntheticMeetup(data));
    generate_s.push_back(Seconds(g0, Clock::now()));
    s.factory = std::make_unique<exp::WorkloadFactory>(*s.dataset);
    exp::PaperWorkloadConfig config;
    config.k = kK;
    config.seed = DeriveSeed(seed, 2);
    const auto b0 = Clock::now();
    auto built = s.factory->Build(config);
    build_s.push_back(Seconds(b0, Clock::now()));
    if (!built.ok()) {
      std::fprintf(stderr, "Build: %s\n", built.status().ToString().c_str());
      return 1;
    }
    s.instance = std::make_shared<const core::SesInstance>(std::move(*built));
    api::SchedulerOptions options;
    options.num_threads = env.nproc;
    s.scheduler = std::make_unique<api::Scheduler>(options);
    const auto l0 = Clock::now();
    if (!s.scheduler->LoadInstance(kName, s.instance).ok()) return 1;
    load_us.push_back(Seconds(l0, Clock::now()) * 1e6);
    // Warm-up: one cheap request pages the instance in and starts the pool.
    api::SolveRequest warm;
    warm.solver = "rand";
    warm.options.k = kK;
    CheckResponse(report, *s.instance,
                  SubmitAndWait(*s.scheduler, kName, warm).response, kK,
                  "warm-up");
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  const core::SesInstance& instance = *s.instance;
  std::printf("# paper_medium: |U|=%u |E|=%u |T|=%u k=%lld, %zu workers\n",
              instance.num_users(), instance.num_events(),
              instance.num_intervals(), static_cast<long long>(kK),
              s.scheduler->num_threads());

  // Closed loop: the four solves in order, repeated while another pass
  // fits in --seconds (at least once).
  SpanLog log(env.start);
  TraceCost cost;
  std::map<std::string, std::vector<double>> latency;
  std::vector<double> submit_us, handoff_s;
  std::map<std::string, TimedRequest> pass;
  uint64_t op = 0;
  const auto measure_start = Clock::now();
  double pass_seconds = 0.0;
  do {
    const auto pass_start = Clock::now();
    pass = SolvePass(*s.scheduler, kName, instance, kK, env.nproc, report);
    pass_seconds = Seconds(pass_start, Clock::now());
    for (const auto& [label, t] : pass) {
      latency[label].push_back(Seconds(t.submit_begin, t.done));
      submit_us.push_back(Seconds(t.submit_begin, t.submit_end) * 1e6);
      handoff_s.push_back(HandoffSeconds(t));
    }
    if (env.args.trace) {
      const auto t0 = Clock::now();
      TracePass(log, op, pass);
      cost.recording += Seconds(t0, Clock::now());
      for (const auto& [label, t] : pass) {
        cost.traced += Seconds(t.submit_begin, t.done);
      }
    }
    op += pass.size();
  } while (Seconds(measure_start, Clock::now()) + pass_seconds <=
           env.args.seconds);

  // One replan of a fresh instance at the same scale, on the same
  // scheduler. Its CPU is the process's across the replan; the gate runs
  // after it.
  Replan replan;
  replan.first_k = kReplanFirstK;
  replan.k = kK;
  ++report.attempted;
  const double cpu0 = ProcessCpuSeconds();
  const bool replanned = RunReplan(*s.scheduler, *s.factory,
                                   DeriveSeed(seed, 3), "replan", replan,
                                   report);
  const double replan_cpu_s = ProcessCpuSeconds() - cpu0;
  if (replan.instance) CheckReplan(replan, report);
  if (!replanned) ++report.failed;
  for (const TimedRequest* t : {&replan.first, &replan.extended}) {
    submit_us.push_back(Seconds(t->submit_begin, t->submit_end) * 1e6);
    handoff_s.push_back(HandoffSeconds(*t));
  }
  if (env.args.trace) {
    const auto t0 = Clock::now();
    TraceReplan(log, op, replan);
    cost.recording += Seconds(t0, Clock::now());
    cost.traced += Seconds(replan.begin, replan.end);
  }

  const size_t passes = latency["grd"].size();
  if (!env.args.trace) {
    report.Add("setup_s", "s", Median(setup_s),
               "median of " + std::to_string(kSetups) + " set-ups");
    report.Add("peak_rss_mb", "MB", PeakRssMb());
    for (const SolveKind& kind : kSolveKinds) {
      report.Add(std::string(kind.label) + "_solve_s", "s",
                 Median(latency[kind.label]),
                 "Submit to Get, median of " + std::to_string(passes));
    }
    report.Add("grd_utility", "attendance", pass["grd"].response.utility,
               "expected attendance of GRD's schedule");
    report.Add("replan_cpu_ms", "ms", replan_cpu_s * 1e3,
               "one replan; process CPU, gate excluded");
  } else {
    report.Add("ebsn.generate_s", "s", Median(generate_s),
               "GenerateSyntheticMeetup");
    build_s.push_back(Seconds(replan.begin, replan.built));
    report.Add("exp.workload_build_s", "s", Median(build_s),
               "WorkloadFactory::Build, median per call");
    load_us.push_back(Seconds(replan.built, replan.loaded) * 1e6);
    report.Add("api.load_instance_us", "us", Median(load_us));
    report.Add("api.drop_us", "us",
               Seconds(replan.dropping, replan.end) * 1e6, "the replan's");
    for (const SolveKind& kind : kSolveKinds) {
      report.Add(std::string("api.solve_wall_s.") + kind.label, "s",
                 pass[kind.label].response.wall_seconds,
                 "SolveResponse::wall_seconds, last pass");
    }
    report.AddMedian("api.submit_us", "us", submit_us);
    report.AddMedian("api.handoff_us", "us", handoff_s, 1e6);
    MeasureCoreLayers(report, log, cost, env, instance, kK,
                      {{"grd_par", pass["grd_par"].response},
                       {"top_par", pass["top_par"].response},
                       {"bestfit_par", pass["bestfit_par"].response}});
  }

  if (!s.scheduler->Drop(kName).ok()) report.Fail("Drop failed");
  if (env.args.trace) FinishTrace(report, env, log.spans(), cost);
  if (!s.scheduler->LoadedInstances().empty()) {
    report.Fail("instances still loaded at the end");
  }
  return 0;
}

}  // namespace perfbench
