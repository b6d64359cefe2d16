#include "exp/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/registry.h"
#include "util/string_util.h"

namespace ses::exp {

namespace {

using util::JsonValue;
using util::Result;
using util::Status;

std::string KeyPath(const std::string& prefix, const std::string& key) {
  return prefix.empty() ? key : prefix + "." + key;
}

/// Strict-schema guard: every member of \p object must be in
/// \p allowed. Misspelled knobs must fail the load, not silently run
/// the default scenario.
Status RejectUnknownKeys(const JsonValue& object, const std::string& prefix,
                         const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : object.AsObject()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return Status::InvalidArgument(util::StrFormat(
          "trace descriptor: unknown key '%s'", KeyPath(prefix, key).c_str()));
    }
  }
  return Status::Ok();
}

Result<double> RequireNumber(const JsonValue& object,
                             const std::string& prefix,
                             const std::string& key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    return Status::InvalidArgument(
        util::StrFormat("trace descriptor: required key '%s' is missing",
                        KeyPath(prefix, key).c_str()));
  }
  if (!value->is_number()) {
    return Status::InvalidArgument(
        util::StrFormat("trace descriptor: '%s' must be a number",
                        KeyPath(prefix, key).c_str()));
  }
  return value->AsNumber();
}

/// Optional number with a default; present-but-wrong-kind is an error.
Result<double> OptionalNumber(const JsonValue& object,
                              const std::string& prefix,
                              const std::string& key, double fallback) {
  if (object.Find(key) == nullptr) return fallback;
  return RequireNumber(object, prefix, key);
}

Status CheckPositive(double value, const std::string& path) {
  if (!(value > 0.0)) {
    return Status::InvalidArgument(
        util::StrFormat("trace descriptor: '%s' must be positive (got %g)",
                        path.c_str(), value));
  }
  return Status::Ok();
}

/// Integer-valued fields: \p value must be a whole number in
/// [lo, hi], checked before anything casts it or sizes a buffer by it.
/// A fraction is kInvalidArgument, a whole number outside the range
/// kOutOfRange.
Status CheckInteger(double value, const std::string& path, double lo,
                    double hi) {
  if (std::trunc(value) != value) {
    return Status::InvalidArgument(util::StrFormat(
        "trace descriptor: '%s' must be an integer (got %g)", path.c_str(),
        value));
  }
  if (value < lo || value > hi) {
    return Status::OutOfRange(util::StrFormat(
        "trace descriptor: '%s' must be in [%.0f, %.0f] (got %g)",
        path.c_str(), lo, hi, value));
  }
  return Status::Ok();
}

/// Seeds are read as JSON doubles, which hold every integer up to 2^53
/// exactly; larger values would silently round.
constexpr double kMaxSeed = 9007199254740992.0;  // 2^53
/// Instance dimensions are uint32_t; scheduler knobs are int.
constexpr double kMaxDimension = 4294967295.0;  // UINT32_MAX
constexpr double kMaxSchedulerKnob = 2147483647.0;  // 2^31 - 1

Status CheckFraction(double value, const std::string& path) {
  if (!(value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument(util::StrFormat(
        "trace descriptor: '%s' must be in [0, 1] (got %g)", path.c_str(),
        value));
  }
  return Status::Ok();
}

Status ParseArrival(const JsonValue& arrival, TraceSpec& spec) {
  SES_RETURN_IF_ERROR(
      RejectUnknownKeys(arrival, "arrival", {"rate_hz", "bursts"}));
  SES_ASSIGN_OR_RETURN(spec.rate_hz,
                       RequireNumber(arrival, "arrival", "rate_hz"));
  SES_RETURN_IF_ERROR(CheckPositive(spec.rate_hz, "arrival.rate_hz"));
  const JsonValue* bursts = arrival.Find("bursts");
  if (bursts == nullptr) return Status::Ok();
  if (!bursts->is_array()) {
    return Status::InvalidArgument(
        "trace descriptor: 'arrival.bursts' must be an array");
  }
  for (size_t i = 0; i < bursts->AsArray().size(); ++i) {
    const JsonValue& window = bursts->AsArray()[i];
    const std::string prefix = util::StrFormat("arrival.bursts[%zu]", i);
    if (!window.is_object()) {
      return Status::InvalidArgument(util::StrFormat(
          "trace descriptor: '%s' must be an object", prefix.c_str()));
    }
    SES_RETURN_IF_ERROR(RejectUnknownKeys(
        window, prefix, {"at_fraction", "duration_fraction", "multiplier"}));
    BurstSpec burst;
    SES_ASSIGN_OR_RETURN(burst.at_fraction,
                         RequireNumber(window, prefix, "at_fraction"));
    SES_ASSIGN_OR_RETURN(burst.duration_fraction,
                         RequireNumber(window, prefix, "duration_fraction"));
    SES_ASSIGN_OR_RETURN(burst.multiplier,
                         RequireNumber(window, prefix, "multiplier"));
    SES_RETURN_IF_ERROR(
        CheckFraction(burst.at_fraction, prefix + ".at_fraction"));
    SES_RETURN_IF_ERROR(CheckPositive(burst.duration_fraction,
                                      prefix + ".duration_fraction"));
    SES_RETURN_IF_ERROR(
        CheckFraction(burst.duration_fraction, prefix + ".duration_fraction"));
    SES_RETURN_IF_ERROR(
        CheckPositive(burst.multiplier, prefix + ".multiplier"));
    spec.bursts.push_back(burst);
  }
  return Status::Ok();
}

Status ParsePriorityMix(const JsonValue& mix, TraceSpec& spec) {
  SES_RETURN_IF_ERROR(
      RejectUnknownKeys(mix, "priority_mix", {"high", "normal", "batch"}));
  spec.priority_weights = {0.0, 0.0, 0.0};
  double total = 0.0;
  for (size_t lane = 0; lane < api::kNumPriorityLanes; ++lane) {
    const std::string key =
        api::PriorityToString(static_cast<api::Priority>(lane));
    double weight = 0.0;
    SES_ASSIGN_OR_RETURN(weight,
                         OptionalNumber(mix, "priority_mix", key, 0.0));
    if (weight < 0.0) {
      return Status::InvalidArgument(util::StrFormat(
          "trace descriptor: 'priority_mix.%s' must be non-negative "
          "(got %g)",
          key.c_str(), weight));
    }
    spec.priority_weights[lane] = weight;
    total += weight;
  }
  if (!(total > 0.0)) {
    return Status::InvalidArgument(
        "trace descriptor: 'priority_mix' weights must sum to a positive "
        "value");
  }
  return Status::Ok();
}

Status ParseSolverMix(const JsonValue& mix, TraceSpec& spec) {
  const std::vector<std::string> known = core::ListSolvers();
  std::string known_joined;
  for (const std::string& solver : known) {
    if (!known_joined.empty()) known_joined += ", ";
    known_joined += solver;
  }
  double total = 0.0;
  for (const auto& [solver, weight] : mix.AsObject()) {
    if (std::find(known.begin(), known.end(), solver) == known.end()) {
      return Status::InvalidArgument(util::StrFormat(
          "trace descriptor: 'solver_mix.%s' names an unknown solver "
          "(known: %s)",
          solver.c_str(), known_joined.c_str()));
    }
    if (!weight.is_number() || weight.AsNumber() < 0.0) {
      return Status::InvalidArgument(util::StrFormat(
          "trace descriptor: 'solver_mix.%s' must be a non-negative number",
          solver.c_str()));
    }
    spec.solver_mix[solver] = weight.AsNumber();
    total += weight.AsNumber();
  }
  if (spec.solver_mix.empty() || !(total > 0.0)) {
    return Status::InvalidArgument(
        "trace descriptor: 'solver_mix' must name at least one solver with "
        "positive weight");
  }
  return Status::Ok();
}

Status ParseDeadline(const JsonValue& deadline, TraceSpec& spec) {
  SES_RETURN_IF_ERROR(RejectUnknownKeys(
      deadline, "deadline", {"fraction", "min_seconds", "max_seconds"}));
  SES_ASSIGN_OR_RETURN(spec.deadline.fraction,
                       OptionalNumber(deadline, "deadline", "fraction", 0.0));
  SES_RETURN_IF_ERROR(
      CheckFraction(spec.deadline.fraction, "deadline.fraction"));
  SES_ASSIGN_OR_RETURN(
      spec.deadline.min_seconds,
      OptionalNumber(deadline, "deadline", "min_seconds", 0.0));
  SES_ASSIGN_OR_RETURN(
      spec.deadline.max_seconds,
      OptionalNumber(deadline, "deadline", "max_seconds",
                     spec.deadline.min_seconds));
  if (spec.deadline.min_seconds < 0.0 ||
      spec.deadline.max_seconds < spec.deadline.min_seconds) {
    return Status::InvalidArgument(
        "trace descriptor: 'deadline' needs 0 <= min_seconds <= "
        "max_seconds");
  }
  if (spec.deadline.fraction > 0.0 && !(spec.deadline.max_seconds > 0.0)) {
    return Status::InvalidArgument(
        "trace descriptor: 'deadline.max_seconds' must be positive when "
        "'deadline.fraction' is");
  }
  return Status::Ok();
}

Status ParseInstance(const JsonValue& instance, TraceSpec& spec) {
  SES_RETURN_IF_ERROR(RejectUnknownKeys(
      instance, "instance",
      {"k", "intervals", "candidate_events", "users", "events", "groups",
       "tags", "theta", "min_interest", "seed"}));
  double value = 0.0;
  SES_ASSIGN_OR_RETURN(
      value, OptionalNumber(instance, "instance", "k",
                            static_cast<double>(spec.workload.k)));
  SES_RETURN_IF_ERROR(CheckInteger(value, "instance.k", 1.0, kMaxDimension));
  spec.workload.k = static_cast<int64_t>(value);
  // intervals and candidate_events: absent or 0 derives the paper
  // default from k (PaperWorkloadConfig::Resolved*).
  SES_ASSIGN_OR_RETURN(
      value, OptionalNumber(instance, "instance", "intervals", 0.0));
  SES_RETURN_IF_ERROR(
      CheckInteger(value, "instance.intervals", 0.0, kMaxDimension));
  spec.workload.num_intervals = static_cast<int64_t>(value);
  SES_ASSIGN_OR_RETURN(
      value, OptionalNumber(instance, "instance", "candidate_events", 0.0));
  SES_RETURN_IF_ERROR(
      CheckInteger(value, "instance.candidate_events", 0.0, kMaxDimension));
  spec.workload.num_candidate_events = static_cast<int64_t>(value);
  const std::pair<const char*, uint32_t*> dimensions[] = {
      {"users", &spec.dataset.num_users},
      {"events", &spec.dataset.num_events},
      {"groups", &spec.dataset.num_groups},
      {"tags", &spec.dataset.num_tags}};
  for (const auto& [key, field] : dimensions) {
    SES_ASSIGN_OR_RETURN(value, OptionalNumber(instance, "instance", key,
                                               static_cast<double>(*field)));
    SES_RETURN_IF_ERROR(CheckInteger(value, std::string("instance.") + key,
                                     1.0, kMaxDimension));
    *field = static_cast<uint32_t>(value);
  }
  SES_ASSIGN_OR_RETURN(value,
                       OptionalNumber(instance, "instance", "theta",
                                      spec.workload.theta));
  SES_RETURN_IF_ERROR(CheckPositive(value, "instance.theta"));
  spec.workload.theta = value;
  SES_ASSIGN_OR_RETURN(value,
                       OptionalNumber(instance, "instance", "min_interest",
                                      spec.workload.min_interest));
  SES_RETURN_IF_ERROR(CheckFraction(value, "instance.min_interest"));
  spec.workload.min_interest = value;
  SES_ASSIGN_OR_RETURN(
      value, OptionalNumber(instance, "instance", "seed",
                            static_cast<double>(spec.workload.seed)));
  SES_RETURN_IF_ERROR(CheckInteger(value, "instance.seed", 0.0, kMaxSeed));
  spec.workload.seed = static_cast<uint64_t>(value);
  spec.dataset.seed = spec.workload.seed ^ 0x5e5e5e5eULL;
  return Status::Ok();
}

Status ParseScheduler(const JsonValue& scheduler, TraceSpec& spec) {
  SES_RETURN_IF_ERROR(RejectUnknownKeys(
      scheduler, "scheduler",
      {"threads", "max_queued", "sweep_period_seconds"}));
  double value = 0.0;
  SES_ASSIGN_OR_RETURN(value,
                       OptionalNumber(scheduler, "scheduler", "threads", 0.0));
  SES_RETURN_IF_ERROR(
      CheckInteger(value, "scheduler.threads", 0.0, kMaxSchedulerKnob));
  spec.scheduler_threads = static_cast<int64_t>(value);
  SES_ASSIGN_OR_RETURN(
      value, OptionalNumber(scheduler, "scheduler", "max_queued", 0.0));
  SES_RETURN_IF_ERROR(
      CheckInteger(value, "scheduler.max_queued", 0.0, kMaxSchedulerKnob));
  spec.max_queued_requests = static_cast<int64_t>(value);
  SES_ASSIGN_OR_RETURN(
      spec.sweep_period_seconds,
      OptionalNumber(scheduler, "scheduler", "sweep_period_seconds", 0.0));
  if (spec.sweep_period_seconds < 0.0) {
    return Status::InvalidArgument(
        "trace descriptor: 'scheduler.sweep_period_seconds' must be "
        "non-negative");
  }
  return Status::Ok();
}

}  // namespace

void TraceSpec::ScaleRequests(double multiplier) {
  num_requests = std::max<int64_t>(
      1, std::llround(static_cast<double>(num_requests) * multiplier));
}

util::Result<TraceSpec> TraceSpec::FromJsonText(const std::string& text) {
  SES_ASSIGN_OR_RETURN(const JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return Status::InvalidArgument(
        "trace descriptor: top-level value must be an object");
  }
  SES_RETURN_IF_ERROR(RejectUnknownKeys(
      root, "",
      {"name", "seed", "requests", "arrival", "priority_mix", "solver_mix",
       "deadline", "instance", "scheduler"}));

  TraceSpec spec;
  // A scaled-down default instance: bench traces measure the scheduler,
  // not instance construction, so the per-request solve should be
  // milliseconds unless the descriptor says otherwise.
  spec.workload.k = 20;
  spec.dataset.num_users = 1200;
  spec.dataset.num_events = 600;
  spec.dataset.num_groups = 90;
  spec.dataset.num_tags = 120;

  const JsonValue* name = root.Find("name");
  if (name == nullptr || !name->is_string() || name->AsString().empty()) {
    return Status::InvalidArgument(
        "trace descriptor: required key 'name' must be a non-empty string");
  }
  spec.name = name->AsString();
  for (char c : spec.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "trace descriptor: 'name' must match [a-z0-9_-]+ (it becomes the "
          "BENCH_<name>.json stem)");
    }
  }

  double value = 0.0;
  SES_ASSIGN_OR_RETURN(value, RequireNumber(root, "", "seed"));
  SES_RETURN_IF_ERROR(CheckInteger(value, "seed", 0.0, kMaxSeed));
  spec.seed = static_cast<uint64_t>(value);
  SES_ASSIGN_OR_RETURN(value, RequireNumber(root, "", "requests"));
  SES_RETURN_IF_ERROR(CheckPositive(value, "requests"));
  SES_RETURN_IF_ERROR(CheckInteger(value, "requests", 1.0,
                                   static_cast<double>(kMaxTraceRequests)));
  spec.num_requests = static_cast<int64_t>(value);

  const JsonValue* arrival = root.Find("arrival");
  if (arrival == nullptr || !arrival->is_object()) {
    return Status::InvalidArgument(
        "trace descriptor: required key 'arrival' must be an object");
  }
  SES_RETURN_IF_ERROR(ParseArrival(*arrival, spec));

  if (const JsonValue* mix = root.Find("priority_mix"); mix != nullptr) {
    if (!mix->is_object()) {
      return Status::InvalidArgument(
          "trace descriptor: 'priority_mix' must be an object");
    }
    SES_RETURN_IF_ERROR(ParsePriorityMix(*mix, spec));
  }

  const JsonValue* solver_mix = root.Find("solver_mix");
  if (solver_mix == nullptr || !solver_mix->is_object()) {
    return Status::InvalidArgument(
        "trace descriptor: required key 'solver_mix' must be an object");
  }
  SES_RETURN_IF_ERROR(ParseSolverMix(*solver_mix, spec));

  if (const JsonValue* deadline = root.Find("deadline"); deadline != nullptr) {
    if (!deadline->is_object()) {
      return Status::InvalidArgument(
          "trace descriptor: 'deadline' must be an object");
    }
    SES_RETURN_IF_ERROR(ParseDeadline(*deadline, spec));
  }

  if (const JsonValue* instance = root.Find("instance"); instance != nullptr) {
    if (!instance->is_object()) {
      return Status::InvalidArgument(
          "trace descriptor: 'instance' must be an object");
    }
    SES_RETURN_IF_ERROR(ParseInstance(*instance, spec));
  } else {
    spec.workload.seed = spec.seed;
    spec.dataset.seed = spec.seed ^ 0x5e5e5e5eULL;
  }

  if (const JsonValue* scheduler = root.Find("scheduler");
      scheduler != nullptr) {
    if (!scheduler->is_object()) {
      return Status::InvalidArgument(
          "trace descriptor: 'scheduler' must be an object");
    }
    SES_RETURN_IF_ERROR(ParseScheduler(*scheduler, spec));
  }

  return spec;
}

util::Result<TraceSpec> TraceSpec::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open trace file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto spec = FromJsonText(buffer.str());
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  path + ": " + std::string(spec.status().message()));
  }
  return spec;
}

std::vector<double> ArrivalOffsets(const TraceSpec& spec, util::Rng& rng) {
  // Burst windows are positioned on the nominal (unbursted) duration;
  // the rate is piecewise-constant, evaluated at the current arrival
  // time. Bursts compress real time, so the realized duration of a
  // bursty trace is shorter than nominal — intended: the same request
  // count arrives faster.
  const double nominal =
      static_cast<double>(spec.num_requests) / spec.rate_hz;
  std::vector<double> offsets;
  offsets.reserve(static_cast<size_t>(spec.num_requests));
  double t = 0.0;
  for (int64_t i = 0; i < spec.num_requests; ++i) {
    double rate = spec.rate_hz;
    for (const BurstSpec& burst : spec.bursts) {
      const double begin = burst.at_fraction * nominal;
      const double end = begin + burst.duration_fraction * nominal;
      if (t >= begin && t < end) {
        rate = spec.rate_hz * burst.multiplier;
        break;
      }
    }
    // Exponential inter-arrival via inversion; NextDouble() is in
    // [0, 1) so the argument of log stays positive.
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    offsets.push_back(t);
  }
  return offsets;
}

}  // namespace ses::exp
