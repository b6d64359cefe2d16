/// perfbench: the repository's benchmark. One workload per invocation:
///
///   perfbench --workload paper_medium|replan_churn
///             [--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE]
///
/// Prints the run's context and every metric with its unit, then, as the
/// last line, one JSON object {correct, attempted, failed, metrics}. With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
/// records spans and reports the per-layer metrics instead. Any wrong
/// output fails the run (exit 1). See perfbench/README.md.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// Taken during static initialisation, before main: set-up time starts at
// process start.
const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

size_t CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

int Usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --workload paper_medium|replan_churn "
               "[--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE]\n",
               program);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Env env;
  env.start = kProcessStart;
  env.nproc = CpusAvailable();
  perfbench::RunArgs& args = env.args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) return Usage(argv[0]);
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return Usage(argv[0]);
  }
  if (!(args.seconds > 0.0)) return Usage(argv[0]);

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# nproc=%zu compiler=\"%s\" build_type=%s\n", env.nproc,
              __VERSION__, PERFBENCH_BUILD_TYPE);

  perfbench::Report report;
  int status = 0;
  if (args.workload == "paper_medium") {
    status = perfbench::RunPaperMedium(env, report);
  } else if (args.workload == "replan_churn") {
    status = perfbench::RunReplanChurn(env, report);
  } else {
    return Usage(argv[0]);
  }
  if (status != 0) return status;

  std::fputs(report.Text().c_str(), stdout);
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
