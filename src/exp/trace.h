#ifndef SES_EXP_TRACE_H_
#define SES_EXP_TRACE_H_

/// \file
/// Declarative load-trace descriptors for the bench harness.
///
/// A trace file (bench/traces/*.json) describes one reproducible load
/// scenario against a live api::Scheduler: an open-loop arrival process
/// (Poisson base rate with optional burst windows), a priority mix, a
/// solver mix, a deadline spread, the synthetic instance to solve, and
/// one seed that fixes every random choice. TraceSpec parses and
/// validates the descriptor; exp::LoadGenerator (load_generator.h)
/// replays it.
///
/// Validation is strict: every key is checked and unknown or malformed
/// keys fail with InvalidArgument naming the offending key, so a typo
/// in a descriptor dies loudly instead of silently running the default
/// scenario.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/dispatch_queue.h"
#include "ebsn/generator.h"
#include "exp/workload.h"
#include "util/json.h"
#include "util/random.h"
#include "util/status.h"

namespace ses::exp {

/// One burst window of the arrival process, positioned as fractions of
/// the trace's nominal duration (requests / rate_hz).
struct BurstSpec {
  /// Window start, in [0, 1).
  double at_fraction = 0.0;
  /// Window length, in (0, 1].
  double duration_fraction = 0.0;
  /// Arrival-rate multiplier inside the window (> 0; > 1 is a burst,
  /// < 1 a lull).
  double multiplier = 1.0;
};

/// Deadline spread: which fraction of requests carry a deadline, and
/// the uniform range their budget is drawn from.
struct DeadlineSpec {
  /// Fraction of requests submitted with a deadline, in [0, 1].
  double fraction = 0.0;
  /// Uniform budget range in seconds, 0 <= min <= max.
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

/// Upper bound on a descriptor's "requests": the replay keeps a few
/// words per request (arrival offsets, per-request draws), so the cap
/// keeps a mistyped count a typed kOutOfRange instead of an allocation
/// failure. The in-repo traces use at most a few hundred.
inline constexpr int64_t kMaxTraceRequests = 1000000;

/// A parsed, validated load scenario.
struct TraceSpec {
  /// Scenario name (becomes the BENCH_<name>.json stem).
  std::string name;

  /// Master seed: fixes the arrival process, every per-request draw
  /// (solver, priority, deadline, solver seed), and the instance. An
  /// integer in [0, 2^53] in the descriptor.
  uint64_t seed = 0;

  /// Number of requests to submit; an integer in [1, kMaxTraceRequests]
  /// in the descriptor (ScaleRequests may then scale it).
  int64_t num_requests = 0;

  /// Base Poisson arrival rate, requests per second.
  double rate_hz = 0.0;

  /// Burst windows (may overlap; multipliers do not stack — the first
  /// matching window wins).
  std::vector<BurstSpec> bursts;

  /// Per-lane submission weights, indexed by api::Priority.
  std::array<double, api::kNumPriorityLanes> priority_weights = {0.0, 1.0,
                                                                 0.0};

  /// Solver name -> weight; keys are validated against
  /// core::ListSolvers(). std::map so every derived iteration is
  /// deterministic.
  std::map<std::string, double> solver_mix;

  /// Deadline spread; fraction 0 (default) submits everything
  /// unlimited.
  DeadlineSpec deadline;

  /// Synthetic dataset scale for ebsn::GenerateSyntheticMeetup.
  ebsn::SyntheticMeetupConfig dataset;

  /// Paper-workload parameters of the instance each request solves.
  PaperWorkloadConfig workload;

  /// api::SchedulerOptions mirror (0 = library default).
  int64_t scheduler_threads = 0;
  int64_t max_queued_requests = 0;
  double sweep_period_seconds = 0.0;

  /// Scales num_requests by \p multiplier (result floored, minimum 1).
  /// The bench harness's --size=S/M/L knob maps to 0.25 / 1 / 4.
  void ScaleRequests(double multiplier);

  /// Parses and validates a descriptor from JSON text. Syntax errors
  /// come back as kParseError (with line/column); schema violations as
  /// kInvalidArgument naming the offending key.
  [[nodiscard]] static util::Result<TraceSpec> FromJsonText(
      const std::string& text);

  /// FromJsonText over the contents of \p path.
  [[nodiscard]] static util::Result<TraceSpec> Load(const std::string& path);
};

/// The trace's arrival timestamps: seconds-since-start offsets for each
/// of spec.num_requests submissions, strictly non-decreasing.
/// Open-loop Poisson with piecewise-constant rate — inside a burst
/// window the base rate is multiplied by the window's multiplier.
/// Deterministic in (spec, rng state); LoadGenerator seeds the rng from
/// spec.seed so a trace always replays the same arrival sequence.
std::vector<double> ArrivalOffsets(const TraceSpec& spec, util::Rng& rng);

}  // namespace ses::exp

#endif  // SES_EXP_TRACE_H_
