#include <gtest/gtest.h>

#include "ebsn/generator.h"
#include "exp/sweep.h"

namespace ses::exp {
namespace {

const ebsn::EbsnDataset& SweepDataset() {
  static const ebsn::EbsnDataset* dataset = [] {
    ebsn::SyntheticMeetupConfig config;
    config.num_users = 600;
    config.num_events = 300;
    config.num_groups = 40;
    config.num_tags = 60;
    config.seed = 31;
    return new ebsn::EbsnDataset(ebsn::GenerateSyntheticMeetup(config));
  }();
  return *dataset;
}

std::vector<SweepPoint> MakePoints(const std::vector<int64_t>& ks) {
  std::vector<SweepPoint> points;
  for (int64_t k : ks) {
    SweepPoint point;
    point.config.k = k;
    point.config.competing_mean = 2.0;
    point.config.competing_spread = 1.0;
    point.config.seed = 100 + static_cast<uint64_t>(k);
    point.options.k = k;
    point.options.seed = 7;
    point.x = k;
    points.push_back(std::move(point));
  }
  return points;
}

/// Everything but the wall-clock `seconds` measurement must match
/// bitwise between the serial and pooled paths.
void ExpectSameRecords(const std::vector<RunRecord>& serial,
                       const std::vector<RunRecord>& pooled) {
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].solver, pooled[i].solver);
    EXPECT_EQ(serial[i].x, pooled[i].x);
    EXPECT_EQ(serial[i].utility, pooled[i].utility);
    EXPECT_EQ(serial[i].gain_evaluations, pooled[i].gain_evaluations);
    EXPECT_EQ(serial[i].assignments, pooled[i].assignments);
  }
}

ConfigFactory KSweepConfig() {
  return [](int64_t x, uint64_t seed) {
    PaperWorkloadConfig config;
    config.k = x;
    config.competing_mean = 2.0;
    config.competing_spread = 1.0;
    config.seed = seed;
    return config;
  };
}

TEST(RunSweepTest, PooledMatchesSerialMultiSolver) {
  WorkloadFactory factory(SweepDataset());
  const std::vector<std::string> solvers{"grd", "top", "rand", "bestfit"};
  const auto points = MakePoints({4, 6, 8, 10, 12, 14});

  auto serial = RunSweep(factory, points, solvers, /*jobs=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->size(), points.size() * solvers.size());
  // Point order, then solver order.
  EXPECT_EQ((*serial)[0].x, 4);
  EXPECT_EQ((*serial)[0].solver, "grd");
  EXPECT_EQ((*serial)[solvers.size() + 3].x, 6);
  EXPECT_EQ((*serial)[solvers.size() + 3].solver, "bestfit");

  auto pooled = RunSweep(factory, points, solvers, /*jobs=*/4);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ExpectSameRecords(*serial, *pooled);
}

TEST(RunSweepTest, SolverShardsOnTheSweepPoolMatchSerial) {
  WorkloadFactory factory(SweepDataset());
  const std::vector<std::string> solvers{"grd", "top", "bestfit", "lazy"};
  auto points = MakePoints({6, 10, 14});
  auto serial = RunSweep(factory, points, solvers, /*jobs=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  // options.threads != 1 borrows the sweep's own pool for score shards.
  for (SweepPoint& point : points) point.options.threads = 4;
  auto sharded = RunSweep(factory, points, solvers, /*jobs=*/4);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectSameRecords(*serial, *sharded);
}

TEST(RunSweepTest, RepeatedPooledRunsAreStable) {
  WorkloadFactory factory(SweepDataset());
  const std::vector<std::string> solvers{"grd", "rand"};
  const auto points = MakePoints({5, 9, 13});

  auto first = RunSweep(factory, points, solvers, /*jobs=*/3);
  ASSERT_TRUE(first.ok());
  auto second = RunSweep(factory, points, solvers, /*jobs=*/3);
  ASSERT_TRUE(second.ok());
  ExpectSameRecords(*first, *second);
}

TEST(RunSweepTest, MorePointsThanWorkers) {
  WorkloadFactory factory(SweepDataset());
  const std::vector<std::string> solvers{"rand"};
  std::vector<int64_t> ks;
  for (int64_t k = 2; k < 34; ++k) ks.push_back(k);
  const auto points = MakePoints(ks);

  auto pooled = RunSweep(factory, points, solvers, /*jobs=*/2);
  ASSERT_TRUE(pooled.ok());
  auto serial = RunSweep(factory, points, solvers, /*jobs=*/1);
  ASSERT_TRUE(serial.ok());
  ExpectSameRecords(*serial, *pooled);
}

TEST(RunSweepTest, AllCoresDefaultWorks) {
  WorkloadFactory factory(SweepDataset());
  const auto points = MakePoints({4, 8});
  auto result = RunSweep(factory, points, {"grd"}, /*jobs=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(RunSweepTest, UnknownSolverIsNotFound) {
  WorkloadFactory factory(SweepDataset());
  const auto points = MakePoints({4, 6});
  for (size_t jobs : {1u, 2u}) {
    SCOPED_TRACE(jobs);
    auto result = RunSweep(factory, points, {"grd", "bogus"}, jobs);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
  }
}

TEST(RunSweepTest, BuildFailureStatusMatchesAcrossJobs) {
  WorkloadFactory factory(SweepDataset());
  auto points = MakePoints({4, 6, 8, 10, 12});
  points[2].config.k = 0;  // WorkloadFactory::Build rejects this point
  auto serial = RunSweep(factory, points, {"grd", "rand"}, /*jobs=*/1);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), util::StatusCode::kInvalidArgument);
  auto pooled = RunSweep(factory, points, {"grd", "rand"}, /*jobs=*/4);
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().ToString(), serial.status().ToString());
}

TEST(RunSweepTest, RepeatedSweepAggregatesMatchSerial) {
  WorkloadFactory factory(SweepDataset());
  auto serial = RunRepeatedSweep(factory, {5, 10}, KSweepConfig(),
                                 {"grd", "rand"}, 3, 17,
                                 /*num_threads=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto pooled = RunRepeatedSweep(factory, {5, 10}, KSweepConfig(),
                                 {"grd", "rand"}, 3, 17,
                                 /*num_threads=*/4);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_EQ(serial->size(), pooled->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ((*serial)[i].x, (*pooled)[i].x);
    EXPECT_EQ((*serial)[i].solver, (*pooled)[i].solver);
    // Utility aggregates accumulate in the same order on both paths, so
    // the floating-point results are bitwise identical.
    EXPECT_EQ((*serial)[i].utility.mean, (*pooled)[i].utility.mean);
    EXPECT_EQ((*serial)[i].utility.stddev, (*pooled)[i].utility.stddev);
    EXPECT_EQ((*serial)[i].utility.count, (*pooled)[i].utility.count);
  }
}

}  // namespace
}  // namespace ses::exp
