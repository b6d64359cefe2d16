#include "exp/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ebsn/generator.h"
#include "util/random.h"

namespace ses::exp {
namespace {

/// A scaled-down Meetup-like dataset shared by all workload tests.
const ebsn::EbsnDataset& TestDataset() {
  static const ebsn::EbsnDataset* dataset = [] {
    ebsn::SyntheticMeetupConfig config;
    config.num_users = 800;
    config.num_events = 400;
    config.num_groups = 60;
    config.num_tags = 80;
    config.seed = 424;
    return new ebsn::EbsnDataset(ebsn::GenerateSyntheticMeetup(config));
  }();
  return *dataset;
}

TEST(PaperWorkloadConfigTest, DefaultsFollowThePaper) {
  PaperWorkloadConfig config;
  EXPECT_EQ(config.k, 100);
  EXPECT_EQ(config.ResolvedIntervals(), 150);  // 3k/2
  EXPECT_EQ(config.ResolvedEvents(), 200);     // 2k
  EXPECT_DOUBLE_EQ(config.competing_mean, 8.1);
  EXPECT_EQ(config.num_locations, 25);
  EXPECT_DOUBLE_EQ(config.theta, 20.0);
  EXPECT_DOUBLE_EQ(config.xi_max, 20.0 / 3.0);
}

TEST(PaperWorkloadConfigTest, ExplicitOverridesWin) {
  PaperWorkloadConfig config;
  config.k = 50;
  config.num_intervals = 10;
  config.num_candidate_events = 60;
  EXPECT_EQ(config.ResolvedIntervals(), 10);
  EXPECT_EQ(config.ResolvedEvents(), 60);
}

PaperWorkloadConfig SmallConfig() {
  PaperWorkloadConfig config;
  config.k = 20;
  config.competing_mean = 3.0;
  config.competing_spread = 2.0;
  config.seed = 11;
  return config;
}

TEST(WorkloadFactoryTest, BuildsInstanceWithPaperShape) {
  WorkloadFactory factory(TestDataset());
  const PaperWorkloadConfig config = SmallConfig();
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  EXPECT_EQ(instance->num_users(), 800u);
  EXPECT_EQ(instance->num_events(), 40u);     // 2k
  EXPECT_EQ(instance->num_intervals(), 30u);  // 3k/2
  EXPECT_DOUBLE_EQ(instance->theta(), 20.0);

  // Locations within [0, 25); xi within [1, 20/3].
  for (core::EventIndex e = 0; e < instance->num_events(); ++e) {
    EXPECT_LT(instance->event(e).location, 25u);
    EXPECT_GE(instance->event(e).required_resources, 1.0);
    EXPECT_LE(instance->event(e).required_resources, 20.0 / 3.0);
  }
}

TEST(WorkloadFactoryTest, CompetingCountsNearConfiguredMean) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config = SmallConfig();
  config.k = 40;  // more intervals -> tighter mean estimate
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok());

  double total = 0.0;
  for (core::IntervalIndex t = 0; t < instance->num_intervals(); ++t) {
    const size_t count = instance->CompetingAt(t).size();
    EXPECT_LE(count, 6u);  // mean 3 + spread 2 rounds to at most 5 (+1)
    total += static_cast<double>(count);
  }
  const double mean = total / instance->num_intervals();
  EXPECT_NEAR(mean, 3.0, 1.0);
}

// The endpoint-bias regression pin: the per-interval competing count is
// a uniform *integer* on the closed range [round(mean-spread),
// round(mean+spread)]. The old draw (llround of a uniform real) gave
// the two endpoints half the interior probability, dragging the
// empirical mean off the configured center. With the paper defaults
// (8.1 ± 3.9) the range is [4, 12]: every value incl. both endpoints
// must occur, nothing outside it, and the mean must sit near 8.
TEST(WorkloadFactoryTest, CompetingCountsUniformOnClosedRange) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config;          // paper defaults: 8.1 ± 3.9
  config.k = 100;                      // 150 intervals
  config.num_candidate_events = 120;   // keep the build small
  config.seed = 7;
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  std::map<size_t, size_t> frequency;
  double total = 0.0;
  for (core::IntervalIndex t = 0; t < instance->num_intervals(); ++t) {
    const size_t count = instance->CompetingAt(t).size();
    EXPECT_GE(count, 4u);
    EXPECT_LE(count, 12u);
    ++frequency[count];
    total += static_cast<double>(count);
  }
  // 150 draws over 9 values: each endpoint is expected ~16-17 times;
  // zero occurrences would flag the old half-weight endpoints (or an
  // accidental half-open range).
  EXPECT_GT(frequency[4], 0u);
  EXPECT_GT(frequency[12], 0u);
  const double mean = total / instance->num_intervals();
  // Uniform on [4,12] has mean 8 and stddev ~2.58; over 150 draws the
  // standard error is ~0.21, so +/-0.8 is a ~4-sigma band.
  EXPECT_NEAR(mean, 8.0, 0.8);
}

/// Bit patterns of a row's interest values, so equal means bit-identical.
std::vector<uint32_t> ValueBits(std::span<const float> values) {
  std::vector<uint32_t> bits;
  for (float v : values) bits.push_back(std::bit_cast<uint32_t>(v));
  return bits;
}

/// Expects \p a and \p b to hold the same instance bit for bit: every
/// row's users and value bits, event locations and resources, competing
/// intervals, and the sigma provider's draws.
void ExpectSameInstance(const core::SesInstance& a,
                        const core::SesInstance& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_intervals(), b.num_intervals());
  EXPECT_EQ(a.theta(), b.theta());
  ASSERT_EQ(a.num_events(), b.num_events());
  for (core::EventIndex e = 0; e < a.num_events(); ++e) {
    EXPECT_EQ(a.event(e).location, b.event(e).location) << "event " << e;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.event(e).required_resources),
              std::bit_cast<uint64_t>(b.event(e).required_resources))
        << "event " << e;
    ASSERT_TRUE(std::ranges::equal(a.EventUsers(e), b.EventUsers(e)))
        << "event " << e;
    ASSERT_EQ(ValueBits(a.EventValues(e)), ValueBits(b.EventValues(e)))
        << "event " << e;
  }
  ASSERT_EQ(a.num_competing(), b.num_competing());
  for (core::CompetingIndex c = 0; c < a.num_competing(); ++c) {
    EXPECT_EQ(a.competing(c).interval, b.competing(c).interval)
        << "competing " << c;
    ASSERT_TRUE(std::ranges::equal(a.CompetingUsers(c), b.CompetingUsers(c)))
        << "competing " << c;
    ASSERT_EQ(ValueBits(a.CompetingValues(c)), ValueBits(b.CompetingValues(c)))
        << "competing " << c;
  }
  for (core::IntervalIndex t = 0; t < a.num_intervals(); ++t) {
    EXPECT_TRUE(std::ranges::equal(a.CompetingAt(t), b.CompetingAt(t)));
    EXPECT_EQ(a.sigma().At(0, t), b.sigma().At(0, t));
    EXPECT_EQ(a.sigma().At(a.num_users() - 1, t),
              b.sigma().At(b.num_users() - 1, t));
  }
}

TEST(WorkloadFactoryTest, DeterministicPerSeed) {
  WorkloadFactory factory(TestDataset());
  const PaperWorkloadConfig config = SmallConfig();
  auto a = factory.Build(config);
  auto b = factory.Build(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameInstance(*a, *b);
}

/// The per-row path Build took before it memoized rows by tag set: the
/// interest list of every drawn event computed on its own, by a scatter
/// that records touched users and sorts the result by user.
std::vector<ebsn::UserInterest> ReferenceEventInterests(
    const ebsn::EbsnDataset& dataset, const ebsn::InterestModel& model,
    const std::vector<ebsn::TagId>& event_tags, float min_interest) {
  std::vector<uint16_t> counts(dataset.users().size(), 0);
  std::vector<ebsn::EbsnUserId> touched;
  for (ebsn::TagId tag : event_tags) {
    for (ebsn::EbsnUserId u : model.UsersWithTag(tag)) {
      if (counts[u]++ == 0) touched.push_back(u);
    }
  }
  std::vector<ebsn::UserInterest> out;
  const float event_size = static_cast<float>(event_tags.size());
  for (ebsn::EbsnUserId u : touched) {
    const float overlap = static_cast<float>(counts[u]);
    const float union_size =
        static_cast<float>(dataset.users()[u].tags.size()) + event_size -
        overlap;
    const float jaccard = union_size > 0 ? overlap / union_size : 0.0f;
    if (jaccard >= min_interest && jaccard > 0.0f) out.push_back({u, jaccard});
  }
  std::sort(out.begin(), out.end(),
            [](const ebsn::UserInterest& a, const ebsn::UserInterest& b) {
              return a.user < b.user;
            });
  return out;
}

/// Threshold and cap, as Build applies them; counts in \p tied_cuts the
/// rows whose cap dropped a user as interested as the least one kept.
std::vector<std::pair<core::UserIndex, float>> ReferenceRow(
    std::vector<ebsn::UserInterest> interests, const PaperWorkloadConfig& config,
    int* tied_cuts) {
  const int64_t cap = config.max_users_per_event;
  auto more_interested = [](const ebsn::UserInterest& a,
                            const ebsn::UserInterest& b) {
    return a.interest > b.interest;
  };
  if (cap > 0 && interests.size() > static_cast<size_t>(cap)) {
    std::nth_element(interests.begin(), interests.begin() + cap,
                     interests.end(), more_interested);
    const float least_kept =
        std::min_element(interests.begin(), interests.begin() + cap,
                         [](const auto& a, const auto& b) {
                           return a.interest < b.interest;
                         })
            ->interest;
    if (interests[static_cast<size_t>(cap)].interest == least_kept) {
      ++*tied_cuts;
    }
    interests.resize(static_cast<size_t>(cap));
    std::sort(interests.begin(), interests.end(),
              [](const ebsn::UserInterest& a, const ebsn::UserInterest& b) {
                return a.user < b.user;
              });
  }
  std::vector<std::pair<core::UserIndex, float>> row;
  for (const ebsn::UserInterest& ui : interests) {
    if (ui.interest < config.min_interest) continue;
    row.push_back({static_cast<core::UserIndex>(ui.user), ui.interest});
  }
  return row;
}

/// Build's draw sequence, replayed with one reference row per drawn event.
core::SesInstance ReferenceBuild(const ebsn::EbsnDataset& dataset,
                                 const PaperWorkloadConfig& config,
                                 int* tied_cuts) {
  const ebsn::InterestModel model(dataset);
  const uint32_t catalog = static_cast<uint32_t>(dataset.events().size());
  auto row_of = [&](uint32_t id) {
    return ReferenceRow(
        ReferenceEventInterests(dataset, model, dataset.events()[id].tags,
                                static_cast<float>(config.min_interest)),
        config, tied_cuts);
  };
  util::Rng rng(config.seed);
  core::InstanceBuilder builder;
  builder.SetNumUsers(static_cast<uint32_t>(dataset.users().size()))
      .SetNumIntervals(static_cast<uint32_t>(config.ResolvedIntervals()))
      .SetTheta(config.theta)
      .SetSigma(std::make_shared<core::HashUniformSigma>(config.seed ^
                                                         0x5161a5ea11ULL));
  for (uint32_t id : util::SampleWithoutReplacement(
           rng, catalog, static_cast<uint32_t>(config.ResolvedEvents()))) {
    auto row = row_of(id);
    const auto location = static_cast<core::LocationId>(
        rng.NextBounded(static_cast<uint64_t>(config.num_locations)));
    const double xi = rng.UniformDouble(config.xi_min, config.xi_max);
    builder.AddEvent(location, xi, std::move(row));
  }
  const int64_t lo = std::max<int64_t>(
      0, std::llround(config.competing_mean - config.competing_spread));
  const int64_t hi = std::max<int64_t>(
      lo, std::llround(config.competing_mean + config.competing_spread));
  for (int64_t t = 0; t < config.ResolvedIntervals(); ++t) {
    const int64_t count = rng.UniformInt(lo, hi);
    for (int64_t c = 0; c < count; ++c) {
      builder.AddCompetingEvent(static_cast<core::IntervalIndex>(t),
                                row_of(static_cast<uint32_t>(
                                    rng.NextBounded(catalog))));
    }
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(*built);
}

// Build computes one row per distinct tag set and copies it into every
// event drawing that set; the instance must match the per-row path bit for
// bit. The configs in turn keep the default threshold and cap, drop the
// threshold to 0 (every overlapping user enters the row), and cap rows
// so tightly that the cap cuts through users of equal interest, where
// nth_element's choice among ties depends on its input order. One factory
// serves every config, so rows memoized under one config must not leak
// into another.
TEST(WorkloadFactoryTest, BuildMatchesPerRowReference) {
  const ebsn::EbsnDataset& dataset = TestDataset();
  WorkloadFactory factory(dataset);
  int tied_cuts = 0;
  for (int64_t k : {10, 30}) {
    for (uint64_t seed : {1, 2, 3, 5, 8}) {
      for (int variant = 0; variant < 3; ++variant) {
        PaperWorkloadConfig config = SmallConfig();
        config.k = k;
        config.seed = seed;
        if (variant >= 1) config.min_interest = 0.0;
        if (variant == 2) config.max_users_per_event = 25;
        SCOPED_TRACE(::testing::Message() << "k=" << k << " seed=" << seed
                                          << " variant=" << variant);
        auto built = factory.Build(config);
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        ExpectSameInstance(*built, ReferenceBuild(dataset, config, &tied_cuts));
      }
    }
  }
  EXPECT_GT(tied_cuts, 0) << "no cap cut through tied interests";
}

TEST(WorkloadFactoryTest, InterestsRespectThreshold) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config = SmallConfig();
  config.min_interest = 0.10;
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok());
  for (core::EventIndex e = 0; e < instance->num_events(); ++e) {
    for (float v : instance->EventValues(e)) {
      EXPECT_GE(v, 0.10f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(WorkloadFactoryTest, UserCapBoundsRowSizes) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config = SmallConfig();
  config.min_interest = 0.0;
  config.max_users_per_event = 10;
  auto instance = factory.Build(config);
  ASSERT_TRUE(instance.ok());
  for (core::EventIndex e = 0; e < instance->num_events(); ++e) {
    EXPECT_LE(instance->EventUsers(e).size(), 10u);
  }
}

TEST(WorkloadFactoryTest, RejectsBadConfigs) {
  WorkloadFactory factory(TestDataset());
  PaperWorkloadConfig config = SmallConfig();
  config.k = 0;
  EXPECT_FALSE(factory.Build(config).ok());

  config = SmallConfig();
  config.num_candidate_events = 5;  // < k
  EXPECT_FALSE(factory.Build(config).ok());

  config = SmallConfig();
  config.num_candidate_events = 100000;  // > catalog
  EXPECT_FALSE(factory.Build(config).ok());
}

}  // namespace
}  // namespace ses::exp
