/// exp::TraceSpec + exp::LoadGenerator: descriptor validation (typed
/// errors naming the offending key), deterministic arrival generation,
/// the in-repo trace files staying loadable, and an end-to-end smoke
/// replay whose report is byte-stable modulo timing fields.

#include "exp/trace.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/load_generator.h"

namespace ses::exp {
namespace {

std::string ValidDescriptor() {
  return R"({
    "name": "unit",
    "seed": 5,
    "requests": 40,
    "arrival": {
      "rate_hz": 20.0,
      "bursts": [{"at_fraction": 0.5, "duration_fraction": 0.2,
                  "multiplier": 3.0}]
    },
    "priority_mix": {"high": 1, "normal": 2, "batch": 1},
    "solver_mix": {"grd": 0.7, "rand": 0.3},
    "deadline": {"fraction": 0.5, "min_seconds": 0.1, "max_seconds": 0.4},
    "instance": {"k": 10, "intervals": 15, "candidate_events": 20,
                 "users": 300, "events": 200, "groups": 30, "tags": 40,
                 "seed": 9},
    "scheduler": {"threads": 2, "max_queued": 64,
                  "sweep_period_seconds": 0.05}
  })";
}

TEST(TraceSpecTest, ParsesFullDescriptor) {
  auto spec = TraceSpec::FromJsonText(ValidDescriptor());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "unit");
  EXPECT_EQ(spec->seed, 5u);
  EXPECT_EQ(spec->num_requests, 40);
  EXPECT_DOUBLE_EQ(spec->rate_hz, 20.0);
  ASSERT_EQ(spec->bursts.size(), 1u);
  EXPECT_DOUBLE_EQ(spec->bursts[0].multiplier, 3.0);
  EXPECT_DOUBLE_EQ(spec->priority_weights[0], 1.0);  // high
  EXPECT_DOUBLE_EQ(spec->priority_weights[1], 2.0);  // normal
  EXPECT_DOUBLE_EQ(spec->priority_weights[2], 1.0);  // batch
  ASSERT_EQ(spec->solver_mix.size(), 2u);
  EXPECT_DOUBLE_EQ(spec->solver_mix.at("grd"), 0.7);
  EXPECT_DOUBLE_EQ(spec->deadline.fraction, 0.5);
  EXPECT_EQ(spec->workload.k, 10);
  EXPECT_EQ(spec->workload.seed, 9u);
  EXPECT_EQ(spec->dataset.num_users, 300u);
  EXPECT_EQ(spec->scheduler_threads, 2);
  EXPECT_EQ(spec->max_queued_requests, 64);
}

TEST(TraceSpecTest, DefaultsWithoutOptionalSections) {
  auto spec = TraceSpec::FromJsonText(R"({
    "name": "bare",
    "seed": 1,
    "requests": 5,
    "arrival": {"rate_hz": 10},
    "solver_mix": {"grd": 1}
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // No priority_mix: everything lands on the normal lane.
  EXPECT_DOUBLE_EQ(spec->priority_weights[0], 0.0);
  EXPECT_DOUBLE_EQ(spec->priority_weights[1], 1.0);
  EXPECT_DOUBLE_EQ(spec->priority_weights[2], 0.0);
  EXPECT_DOUBLE_EQ(spec->deadline.fraction, 0.0);
  // The trace seed flows into the default instance.
  EXPECT_EQ(spec->workload.seed, 1u);
}

// The malformed-descriptor contract: kInvalidArgument, message naming
// the offending key. A descriptor typo must die loudly, never run the
// default scenario.
TEST(TraceSpecTest, UnknownSolverNamesTheKey) {
  std::string text = ValidDescriptor();
  const size_t at = text.find("\"grd\"");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 5, "\"warp\"");
  auto spec = TraceSpec::FromJsonText(text);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("solver_mix.warp"),
            std::string::npos)
      << spec.status().ToString();
}

TEST(TraceSpecTest, NegativeRateNamesTheKey) {
  std::string text = ValidDescriptor();
  const size_t at = text.find("20.0");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 4, "-3.5");
  auto spec = TraceSpec::FromJsonText(text);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("arrival.rate_hz"),
            std::string::npos)
      << spec.status().ToString();
}

TEST(TraceSpecTest, MissingSeedNamesTheKey) {
  auto spec = TraceSpec::FromJsonText(R"({
    "name": "noseed",
    "requests": 5,
    "arrival": {"rate_hz": 10},
    "solver_mix": {"grd": 1}
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("'seed'"), std::string::npos)
      << spec.status().ToString();
}

/// ValidDescriptor() with the first `"key": <value>` rewritten: the
/// top-level one for `seed`, the only one for every other key.
std::string WithValue(const std::string& key,
                              const std::string& value) {
  std::string text = ValidDescriptor();
  const std::string needle = "\"" + key + "\": ";
  const size_t at = text.find(needle);
  const size_t end = text.find(',', at);
  text.replace(at + needle.size(), end - at - needle.size(), value);
  return text;
}

// Integer fields are checked before any cast or allocation: a huge
// request count used to reach the arrival-offset reserve and abort with
// std::bad_alloc, and a negative seed was silently cast to uint64_t.
TEST(TraceSpecTest, RequestsAndSeedMustBeIntegersInRange) {
  struct Case {
    const char* key;
    const char* value;
    util::StatusCode code;
  };
  const Case cases[] = {
      {"requests", "1e12", util::StatusCode::kOutOfRange},
      {"requests", "1e300", util::StatusCode::kOutOfRange},
      {"requests", "1.5", util::StatusCode::kInvalidArgument},
      {"seed", "-1", util::StatusCode::kOutOfRange},
      {"seed", "1e300", util::StatusCode::kOutOfRange},
      {"seed", "1.5", util::StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    auto spec = TraceSpec::FromJsonText(WithValue(c.key, c.value));
    ASSERT_FALSE(spec.ok()) << c.key << "=" << c.value;
    EXPECT_EQ(spec.status().code(), c.code) << spec.status().ToString();
    EXPECT_NE(spec.status().message().find(std::string("'") + c.key + "'"),
              std::string::npos)
        << spec.status().ToString();
  }
  // The bounds themselves are accepted.
  auto at_cap = TraceSpec::FromJsonText(
      WithValue("requests", std::to_string(kMaxTraceRequests)));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->num_requests, kMaxTraceRequests);
  auto max_seed =
      TraceSpec::FromJsonText(WithValue("seed", "9007199254740992"));
  ASSERT_TRUE(max_seed.ok()) << max_seed.status().ToString();
  EXPECT_EQ(max_seed->seed, uint64_t{1} << 53);
  auto too_many = TraceSpec::FromJsonText(
      WithValue("requests", std::to_string(kMaxTraceRequests + 1)));
  EXPECT_EQ(too_many.status().code(), util::StatusCode::kOutOfRange);
}

// Every count the loader casts is range-checked first: "users": 1e12
// or "k": 1e30 used to be an undefined float-to-integer cast.
TEST(TraceSpecTest, InstanceAndSchedulerCountsMustBeIntegersInRange) {
  struct Field {
    const char* path;
    const char* below;  // just under the range
    const char* lo;
    const char* hi;
    const char* above;  // just over the range
  };
  const Field fields[] = {
      {"instance.k", "0", "1", "4294967295", "4294967296"},
      {"instance.users", "0", "1", "4294967295", "4294967296"},
      {"instance.events", "0", "1", "4294967295", "4294967296"},
      {"instance.groups", "0", "1", "4294967295", "4294967296"},
      {"instance.tags", "0", "1", "4294967295", "4294967296"},
      {"instance.intervals", "-1", "0", "4294967295", "4294967296"},
      {"instance.candidate_events", "-1", "0", "4294967295", "4294967296"},
      {"scheduler.threads", "-1", "0", "2147483647", "2147483648"},
      {"scheduler.max_queued", "-1", "0", "2147483647", "2147483648"},
  };
  for (const Field& f : fields) {
    const std::string path = f.path;
    const std::string key = path.substr(path.find('.') + 1);
    for (const char* accepted : {f.lo, f.hi}) {
      auto spec = TraceSpec::FromJsonText(WithValue(key, accepted));
      EXPECT_TRUE(spec.ok()) << path << "=" << accepted << ": "
                             << spec.status().ToString();
    }
    const std::pair<const char*, util::StatusCode> rejected[] = {
        {f.below, util::StatusCode::kOutOfRange},
        {f.above, util::StatusCode::kOutOfRange},
        {"1e300", util::StatusCode::kOutOfRange},
        {"2.5", util::StatusCode::kInvalidArgument},
    };
    for (const auto& [value, code] : rejected) {
      auto spec = TraceSpec::FromJsonText(WithValue(key, value));
      ASSERT_FALSE(spec.ok()) << path << "=" << value;
      EXPECT_EQ(spec.status().code(), code)
          << path << "=" << value << ": " << spec.status().ToString();
      EXPECT_NE(spec.status().message().find("'" + path + "'"),
                std::string::npos)
          << spec.status().ToString();
    }
  }
  // The upper bounds land in the spec unchanged.
  auto users = TraceSpec::FromJsonText(WithValue("users", "4294967295"));
  ASSERT_TRUE(users.ok());
  EXPECT_EQ(users->dataset.num_users, 4294967295u);
  auto threads =
      TraceSpec::FromJsonText(WithValue("threads", "2147483647"));
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(threads->scheduler_threads, 2147483647);
}

TEST(TraceSpecTest, UnknownKeysAreRejectedEverywhere) {
  auto top = TraceSpec::FromJsonText(R"({
    "name": "x", "seed": 1, "requests": 5,
    "arrival": {"rate_hz": 10}, "solver_mix": {"grd": 1},
    "ratezz": 3
  })");
  ASSERT_FALSE(top.ok());
  EXPECT_EQ(top.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(top.status().message().find("ratezz"), std::string::npos);

  auto nested = TraceSpec::FromJsonText(R"({
    "name": "x", "seed": 1, "requests": 5,
    "arrival": {"rate_hz": 10, "burstz": []}, "solver_mix": {"grd": 1}
  })");
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.status().message().find("arrival.burstz"),
            std::string::npos)
      << nested.status().ToString();
}

TEST(TraceSpecTest, SyntaxErrorsStayParseErrors) {
  auto spec = TraceSpec::FromJsonText("{\"name\": ");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), util::StatusCode::kParseError);
}

TEST(TraceSpecTest, ScaleRequestsFloorsAtOne) {
  auto spec = TraceSpec::FromJsonText(ValidDescriptor());
  ASSERT_TRUE(spec.ok());
  spec->ScaleRequests(0.25);
  EXPECT_EQ(spec->num_requests, 10);
  spec->ScaleRequests(0.001);
  EXPECT_EQ(spec->num_requests, 1);
}

TEST(TraceSpecTest, InRepoTraceFilesStayLoadable) {
  const std::string dir = std::string(SES_SOURCE_DIR) + "/bench/traces/";
  for (const char* file :
       {"steady_mix.json", "bursty_arrivals.json", "deadline_heavy.json",
        "smoke.json"}) {
    auto spec = TraceSpec::Load(dir + file);
    EXPECT_TRUE(spec.ok()) << file << ": " << spec.status().ToString();
  }
  // The acceptance scenarios: one bursty-arrival and one deadline-heavy.
  auto bursty = TraceSpec::Load(dir + "bursty_arrivals.json");
  ASSERT_TRUE(bursty.ok());
  EXPECT_FALSE(bursty->bursts.empty());
  auto deadline = TraceSpec::Load(dir + "deadline_heavy.json");
  ASSERT_TRUE(deadline.ok());
  EXPECT_GT(deadline->deadline.fraction, 0.5);
}

TEST(ArrivalOffsetsTest, DeterministicNonDecreasingAndComplete) {
  auto spec = TraceSpec::FromJsonText(ValidDescriptor());
  ASSERT_TRUE(spec.ok());
  util::Rng rng_a(spec->seed);
  util::Rng rng_b(spec->seed);
  const std::vector<double> a = ArrivalOffsets(*spec, rng_a);
  const std::vector<double> b = ArrivalOffsets(*spec, rng_b);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 40u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
}

TEST(ArrivalOffsetsTest, BurstWindowCompressesArrivals) {
  auto spec = TraceSpec::FromJsonText(R"({
    "name": "b", "seed": 3, "requests": 4000,
    "arrival": {"rate_hz": 100,
                "bursts": [{"at_fraction": 0.0, "duration_fraction": 0.5,
                            "multiplier": 8.0}]},
    "solver_mix": {"grd": 1}
  })");
  ASSERT_TRUE(spec.ok());
  util::Rng rng(spec->seed);
  const std::vector<double> offsets = ArrivalOffsets(*spec, rng);
  // Nominal duration is 40s; the burst covers [0, 20) at 8x rate. Most
  // arrivals must land inside the burst window: 20s * 800/s = 16000
  // capacity vs 4000 requests, so the window should swallow nearly all
  // of them.
  const size_t in_window = static_cast<size_t>(
      std::count_if(offsets.begin(), offsets.end(),
                    [](double t) { return t < 20.0; }));
  EXPECT_GT(in_window, offsets.size() * 9 / 10);
}

// End-to-end: replay the in-repo smoke trace twice and require the
// timing-stripped reports to be byte-identical — the determinism
// contract canonical BENCH_*.json files build on.
TEST(LoadGeneratorTest, SmokeTraceReportIsByteStableModuloTiming) {
  auto spec = TraceSpec::Load(std::string(SES_SOURCE_DIR) +
                              "/bench/traces/smoke.json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // Shrink further: unit tests should not spend the full smoke second.
  spec->ScaleRequests(0.5);

  LoadGenerator generator_a(*spec);
  auto report_a = generator_a.Run();
  ASSERT_TRUE(report_a.ok()) << report_a.status().ToString();
  LoadGenerator generator_b(*spec);
  auto report_b = generator_b.Run();
  ASSERT_TRUE(report_b.ok()) << report_b.status().ToString();

  // Drop-free by construction (no deadlines, unbounded queue): every
  // request completes and the two runs agree exactly.
  EXPECT_EQ(report_a->submitted, 6);
  EXPECT_EQ(report_a->completed, 6u);
  EXPECT_EQ(report_a->refused, 0u);
  EXPECT_EQ(report_a->deadline_expired, 0u);
  EXPECT_EQ(report_a->failed, 0u);
  EXPECT_GT(report_a->total_utility, 0.0);

  const std::string stable_a = RenderBenchReportJson(*report_a, false);
  const std::string stable_b = RenderBenchReportJson(*report_b, false);
  EXPECT_EQ(stable_a, stable_b);
  // Timing fields exist only in the full rendering.
  EXPECT_EQ(stable_a.find("queue_wait_seconds"), std::string::npos);
  EXPECT_EQ(stable_a.find("\"timing\""), std::string::npos);
  const std::string timed = RenderBenchReportJson(*report_a, true);
  EXPECT_NE(timed.find("queue_wait_seconds"), std::string::npos);
  EXPECT_NE(timed.find("throughput_rps"), std::string::npos);

  // Healthy-only lane accounting: every started request is a healthy
  // dequeue and the lanes sum to the trace.
  uint64_t started = 0;
  int64_t lane_submitted = 0;
  for (const BenchLaneReport& lane : report_a->lanes) {
    started += lane.started;
    lane_submitted += lane.submitted;
    EXPECT_EQ(lane.expired_in_queue, 0u);
  }
  EXPECT_EQ(started, 6u);
  EXPECT_EQ(lane_submitted, 6);
}

}  // namespace
}  // namespace ses::exp
