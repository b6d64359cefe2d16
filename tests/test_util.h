#ifndef SES_TESTS_TEST_UTIL_H_
#define SES_TESTS_TEST_UTIL_H_

/// \file
/// Shared helpers for building small SES instances in tests.

#include <memory>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/sigma.h"
#include "util/logging.h"
#include "util/random.h"

namespace ses::test {

/// Knobs for random small instances used by property tests.
struct RandomInstanceConfig {
  uint32_t num_users = 30;
  uint32_t num_events = 8;
  uint32_t num_intervals = 4;
  uint32_t num_locations = 3;
  double theta = 10.0;
  double xi_min = 1.0;
  double xi_max = 4.0;
  double interest_density = 0.4;  ///< P(user interested in an event)
  double competing_per_interval = 2.0;
  uint64_t seed = 42;
  /// When > 0, every interest row (candidate or competing) is one of
  /// this many random rows, drawn up front, so events share rows and
  /// form event classes. 0 draws each row afresh.
  uint32_t distinct_rows = 0;
};

/// The three SigmaProvider implementations, for suites that sweep them.
enum class SigmaKind { kConst, kDense, kHashUniform };

inline const char* SigmaKindName(SigmaKind kind) {
  switch (kind) {
    case SigmaKind::kConst: return "Const";
    case SigmaKind::kDense: return "Dense";
    case SigmaKind::kHashUniform: return "HashUniform";
  }
  return "?";
}

/// Builds a random, fully-validated small instance. The sigma provider
/// is HashUniformSigma unless \p kind says otherwise: ConstSigma(0.6),
/// or a DenseSigma drawn from the instance's rng ahead of the rows.
inline core::SesInstance MakeRandomInstance(
    const RandomInstanceConfig& config,
    SigmaKind kind = SigmaKind::kHashUniform) {
  util::Rng rng(config.seed);
  core::InstanceBuilder builder;
  builder.SetNumUsers(config.num_users)
      .SetNumIntervals(config.num_intervals)
      .SetTheta(config.theta);
  switch (kind) {
    case SigmaKind::kConst:
      builder.SetSigma(std::make_shared<core::ConstSigma>(0.6));
      break;
    case SigmaKind::kDense: {
      std::vector<std::vector<float>> rows(
          config.num_intervals, std::vector<float>(config.num_users));
      for (auto& row : rows) {
        for (float& v : row) {
          v = static_cast<float>(rng.UniformDouble(0.0, 1.0));
        }
      }
      builder.SetSigma(std::make_shared<core::DenseSigma>(std::move(rows)));
      break;
    }
    case SigmaKind::kHashUniform:
      builder.SetSigma(std::make_shared<core::HashUniformSigma>(config.seed));
      break;
  }

  auto random_row = [&rng, &config] {
    std::vector<std::pair<core::UserIndex, float>> row;
    for (core::UserIndex u = 0; u < config.num_users; ++u) {
      if (rng.Bernoulli(config.interest_density)) {
        row.push_back(
            {u, static_cast<float>(rng.UniformDouble(0.05, 1.0))});
      }
    }
    return row;
  };

  std::vector<std::vector<std::pair<core::UserIndex, float>>> pool;
  for (uint32_t r = 0; r < config.distinct_rows; ++r) {
    pool.push_back(random_row());
  }
  auto next_row = [&] {
    return pool.empty() ? random_row()
                        : pool[rng.NextBounded(config.distinct_rows)];
  };

  for (uint32_t e = 0; e < config.num_events; ++e) {
    const core::LocationId location = static_cast<core::LocationId>(
        rng.NextBounded(config.num_locations));
    const double xi = rng.UniformDouble(config.xi_min, config.xi_max);
    builder.AddEvent(location, xi, next_row());
  }
  for (uint32_t t = 0; t < config.num_intervals; ++t) {
    const int count = util::PoissonSample(rng, config.competing_per_interval);
    for (int c = 0; c < count; ++c) {
      builder.AddCompetingEvent(t, next_row());
    }
  }
  auto instance = builder.Build();
  SES_CHECK(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

/// The medium preset shared by the api-layer suites (scheduler, session
/// cache, stress): big enough that solves do measurable work, small
/// enough for sanitizer CI. Centralized here so every suite exercises
/// the same shape instead of hand-rolling near-duplicates.
inline RandomInstanceConfig MediumInstanceConfig(uint64_t seed = 42) {
  RandomInstanceConfig config;
  config.seed = seed;
  config.num_users = 60;
  config.num_events = 20;
  config.num_intervals = 8;
  config.theta = 15.0;
  return config;
}

/// Builds the medium preset directly.
inline core::SesInstance MakeMediumInstance(uint64_t seed = 42) {
  return MakeRandomInstance(MediumInstanceConfig(seed));
}

}  // namespace ses::test

#endif  // SES_TESTS_TEST_UTIL_H_
