#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/// \file
/// What the workloads share: run arguments, timed calls into the
/// public API, the correctness checks, and the traced timing of core's
/// public functions on a workload's own instance.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/scheduler.h"
#include "core/instance.h"
#include "ebsn/dataset.h"
#include "exp/workload.h"
#include "harness.h"

namespace perfbench {

namespace api = ses::api;
namespace core = ses::core;
namespace ebsn = ses::ebsn;
namespace exp = ses::exp;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  ///< JSON-lines span dump of a traced run
};

/// Process-wide context of one run.
struct Env {
  RunArgs args;
  size_t nproc = 1;               ///< CPUs this process may run on
  Clock::time_point start;        ///< process start, the set-up epoch
};

/// A stream of seeds derived from the run seed, one per purpose.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// CPU seconds (user + system) this process, or the calling thread, has
/// run so far. Time the host steals from the VM, and time a thread waits
/// to be woken, are not counted.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Per-call seconds of \p fn, called until \p min_seconds have been spent
/// (at least once, at most \p max_reps times).
std::vector<double> TimeReps(const std::function<void()>& fn,
                             double min_seconds, size_t max_reps);

/// One asynchronous request as the caller saw it.
struct TimedRequest {
  api::SolveResponse response;
  Clock::time_point submit_begin;
  Clock::time_point submit_end;
  Clock::time_point done;  ///< Get() returned / completion observed
};

/// Submits \p request against the loaded instance \p name and blocks in
/// Get() until it completes.
TimedRequest SubmitAndWait(api::Scheduler& scheduler, const std::string& name,
                           api::SolveRequest request);

/// Records a request's spans under \p parent: the Submit call, the wait
/// until completion, and inside the wait the queue and solver intervals
/// rebuilt from the response's queue_seconds and wall_seconds.
void TraceRequest(SpanLog& log, uint64_t op, int parent,
                  const TimedRequest& request);

/// Observed latency minus the Submit call, the queue wait and the solver
/// wall time: what handing the request to a worker and the response back
/// costs.
double HandoffSeconds(const TimedRequest& request);

/// The correctness gate for one response: OK status, a feasible schedule
/// of at most k assignments, and a utility equal to the benchmark's own
/// TotalUtility recompute up to summation order (a relative 1e-12).
/// Violations go to \p report.
void CheckResponse(Report& report, const core::SesInstance& instance,
                   const api::SolveResponse& response, int64_t k,
                   const std::string& what);

/// True when two responses carry bit-identical schedules and utilities.
bool SameResult(const api::SolveResponse& a, const api::SolveResponse& b);

/// One of the four solves every workload times. `label` is also the stem
/// of its end-to-end metric, `<label>_solve_s`.
struct SolveKind {
  const char* label;
  const char* solver;
  bool parallel;  ///< threads=nproc, else threads=1
};

/// GRD at threads=1, then GRD, TOP and bestfit at threads=nproc.
inline constexpr SolveKind kSolveKinds[] = {
    {"grd", "grd", false},
    {"grd_par", "grd", true},
    {"top_par", "top", true},
    {"bestfit_par", "bestfit", true},
};

/// Sends the four solves of kSolveKinds in order against the loaded
/// instance \p name, each waited for before the next, and returns them
/// keyed by label. Once all four are back, every response goes through
/// CheckResponse and GRD's two results must be bit-identical.
std::map<std::string, TimedRequest> SolvePass(
    api::Scheduler& scheduler, const std::string& name,
    const core::SesInstance& instance, int64_t k, size_t nproc,
    Report& report);

/// Records the spans of a solve pass: a root per request, named by its
/// label, over TraceRequest's spans. Operation ids start at \p op.
void TracePass(SpanLog& log, uint64_t op,
               const std::map<std::string, TimedRequest>& pass);

/// One replan: build a fresh instance, load it, plan `first_k` with GRD,
/// extend the plan to `k` warm-started from the first schedule, drop the
/// instance. Timestamps are taken whether or not the run traces.
struct Replan {
  int64_t first_k = 0;
  int64_t k = 0;
  Clock::time_point begin, built, loaded, dropping, end;
  TimedRequest first, extended;
  std::shared_ptr<const core::SesInstance> instance;
};

/// Runs \p r (its first_k and k set) on an instance built with \p seed
/// and loaded as \p name. Returns false if a step failed. Once the
/// instance is loaded, \p r holds it and the replan is for CheckReplan to
/// judge.
bool RunReplan(api::Scheduler& scheduler, const exp::WorkloadFactory& factory,
               uint64_t seed, const std::string& name, Replan& r,
               Report& checks);

/// The gate for a replan: both responses pass CheckResponse, every
/// warm-start assignment is kept, and the extension loses no utility.
void CheckReplan(const Replan& r, Report& checks);

/// Records a replan's spans: a "replan" root over Build, LoadInstance,
/// the two requests (with TraceRequest's spans) and Drop.
void TraceReplan(SpanLog& log, uint64_t op, const Replan& r);

/// What tracing cost a run, summed over threads: seconds spent recording
/// spans, and seconds of the traced work those spans describe.
struct TraceCost {
  double recording = 0.0;
  double traced = 0.0;
};

/// Times core's public functions on \p instance and adds the core.*
/// per-layer metrics: score generation serial and sharded, the objective,
/// GRD's selection share, lazy greedy, and SolverStats counts.
/// \p solved holds the workload's responses on \p instance, keyed
/// "grd_par" / "top_par" / "bestfit_par". Spans go to \p log, and their
/// cost is added to \p cost.
void MeasureCoreLayers(Report& report, SpanLog& log, TraceCost& cost,
                       const Env& env, const core::SesInstance& instance,
                       int64_t k,
                       std::map<std::string, api::SolveResponse> solved);

/// Adds bench.trace_overhead_frac (recording seconds per traced second),
/// prints the per-layer self-time summary, fails the run when a kind of
/// root span is attributed to its layer spans below kMinRootAttribution,
/// and writes the spans when the run asked for a dump.
void FinishTrace(Report& report, const Env& env,
                 const std::vector<Span>& spans, const TraceCost& cost);

int RunPaperMedium(const Env& env, Report& report);
int RunReplanChurn(const Env& env, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
