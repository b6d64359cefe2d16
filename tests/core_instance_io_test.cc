#include "core/instance_io.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/objective.h"
#include "tests/test_util.h"
#include "util/csv.h"

namespace ses::core {
namespace {

class InstanceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ses_inst_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(InstanceIoTest, RoundTripPreservesStructure) {
  test::RandomInstanceConfig config;
  config.seed = 77;
  config.num_users = 20;
  config.num_events = 6;
  config.num_intervals = 4;
  const SesInstance original = test::MakeRandomInstance(config);

  SigmaSpec spec;
  spec.kind = SigmaSpec::Kind::kHash;
  spec.seed = config.seed;  // matches MakeRandomInstance's sigma
  ASSERT_TRUE(SaveInstance(original, spec, dir_.string()).ok());

  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SesInstance& copy = loaded.value();

  EXPECT_EQ(copy.num_users(), original.num_users());
  EXPECT_EQ(copy.num_events(), original.num_events());
  EXPECT_EQ(copy.num_intervals(), original.num_intervals());
  EXPECT_EQ(copy.num_competing(), original.num_competing());
  EXPECT_DOUBLE_EQ(copy.theta(), original.theta());

  for (EventIndex e = 0; e < original.num_events(); ++e) {
    EXPECT_EQ(copy.event(e).location, original.event(e).location);
    EXPECT_DOUBLE_EQ(copy.event(e).required_resources,
                     original.event(e).required_resources);
    auto users_a = original.EventUsers(e);
    auto users_b = copy.EventUsers(e);
    ASSERT_EQ(users_a.size(), users_b.size());
    for (size_t i = 0; i < users_a.size(); ++i) {
      EXPECT_EQ(users_a[i], users_b[i]);
      EXPECT_FLOAT_EQ(original.EventValues(e)[i], copy.EventValues(e)[i]);
    }
  }
  for (CompetingIndex c = 0; c < original.num_competing(); ++c) {
    EXPECT_EQ(copy.competing(c).interval, original.competing(c).interval);
    EXPECT_EQ(copy.CompetingUsers(c).size(),
              original.CompetingUsers(c).size());
  }
}

TEST_F(InstanceIoTest, RoundTripPreservesSolverBehavior) {
  test::RandomInstanceConfig config;
  config.seed = 99;
  const SesInstance original = test::MakeRandomInstance(config);
  SigmaSpec spec;
  spec.kind = SigmaSpec::Kind::kHash;
  spec.seed = config.seed;
  ASSERT_TRUE(SaveInstance(original, spec, dir_.string()).ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok());

  GreedySolver grd;
  SolverOptions options;
  options.k = 3;
  auto a = grd.Solve(original, options);
  auto b = grd.Solve(*loaded, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_NEAR(a->utility, b->utility, 1e-9);
}

TEST_F(InstanceIoTest, ConstSigmaRoundTrip) {
  InstanceBuilder builder;
  builder.SetNumUsers(3).SetNumIntervals(2).SetTheta(4.0).SetSigma(
      std::make_shared<ConstSigma>(0.25));
  builder.AddEvent(0, 1.0, {{0, 0.5f}, {2, 0.75f}});
  builder.AddCompetingEvent(1, {{1, 0.4f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  SigmaSpec spec;
  spec.kind = SigmaSpec::Kind::kConst;
  spec.const_value = 0.25;
  ASSERT_TRUE(SaveInstance(*instance, spec, dir_.string()).ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(loaded->sigma().At(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(loaded->sigma().At(2, 1), 0.25);

  // Utility computed on the copy matches the original exactly.
  Schedule s1(*instance);
  ASSERT_TRUE(s1.Assign(0, 1).ok());
  Schedule s2(*loaded);
  ASSERT_TRUE(s2.Assign(0, 1).ok());
  EXPECT_NEAR(TotalUtility(*instance, s1), TotalUtility(*loaded, s2), 1e-12);
}

TEST_F(InstanceIoTest, LoadFromEmptyDirFails) {
  auto loaded = LoadInstance((dir_ / "missing").string());
  EXPECT_FALSE(loaded.ok());
}

TEST_F(InstanceIoTest, CorruptMetaFails) {
  test::RandomInstanceConfig config;
  const SesInstance original = test::MakeRandomInstance(config);
  SigmaSpec spec;
  ASSERT_TRUE(SaveInstance(original, spec, dir_.string()).ok());
  // Truncate meta.csv to just its header.
  ASSERT_TRUE(
      util::WriteCsvFile((dir_ / "meta.csv").string(), {"key", "value"}, {})
          .ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kParseError);
}

TEST_F(InstanceIoTest, OutOfRangeTripletFails) {
  test::RandomInstanceConfig config;
  config.num_events = 3;
  const SesInstance original = test::MakeRandomInstance(config);
  SigmaSpec spec;
  ASSERT_TRUE(SaveInstance(original, spec, dir_.string()).ok());
  // Append an interest row for a non-existent event id.
  std::vector<util::CsvRow> rows{{"99", "0", "0.5"}};
  ASSERT_TRUE(util::WriteCsvFile((dir_ / "event_interests.csv").string(),
                                 {"event_id", "user_id", "mu"}, rows)
                  .ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kOutOfRange);
}

/// Overwrites the value column of every row of \p file whose first cell
/// is \p key with \p value: the hand-edited or corrupted input an ingest
/// path must reject with a typed error.
void OverwriteCell(const std::filesystem::path& dir, const std::string& file,
                   const std::string& key, size_t column,
                   const std::string& value) {
  const std::string path = (dir / file).string();
  util::CsvRow header;
  auto rows = util::ReadCsvFile(path, true, &header);
  ASSERT_TRUE(rows.ok());
  for (util::CsvRow& row : *rows) {
    if (row[0] == key) row[column] = value;
  }
  ASSERT_TRUE(util::WriteCsvFile(path, header, *rows).ok());
}

/// Saves a default random instance, corrupts one cell, and expects
/// LoadInstance to fail with \p code.
void ExpectCorruptCellRejected(const std::filesystem::path& dir,
                               const std::string& file,
                               const std::string& key, size_t column,
                               const std::string& value,
                               util::StatusCode code) {
  ASSERT_TRUE(SaveInstance(test::MakeRandomInstance({}), SigmaSpec(),
                           dir.string())
                  .ok());
  OverwriteCell(dir, file, key, column, value);
  auto loaded = LoadInstance(dir.string());
  ASSERT_FALSE(loaded.ok()) << file << " " << key << "=" << value;
  EXPECT_EQ(loaded.status().code(), code) << loaded.status().ToString();
}

TEST_F(InstanceIoTest, NonFiniteThetaIsRejected) {
  for (const char* theta : {"nan", "inf"}) {
    ExpectCorruptCellRejected(dir_, "meta.csv", "theta", 1, theta,
                              util::StatusCode::kInvalidArgument);
  }
}

TEST_F(InstanceIoTest, NonFiniteResourcesAreRejected) {
  ExpectCorruptCellRejected(dir_, "events.csv", "0", 2, "nan",
                            util::StatusCode::kInvalidArgument);
}

TEST_F(InstanceIoTest, NegativeUserCountIsRejected) {
  ExpectCorruptCellRejected(dir_, "meta.csv", "users", 1, "-5",
                            util::StatusCode::kOutOfRange);
}

TEST_F(InstanceIoTest, UserCountAboveUint32IsRejected) {
  ExpectCorruptCellRejected(dir_, "meta.csv", "users", 1, "4000000000000",
                            util::StatusCode::kOutOfRange);
}

/// Saves a default random instance with sigma kind \p kind, writes
/// \p value into meta.csv's sigma_value, and loads it back.
util::Result<SesInstance> LoadWithSigmaValue(const std::filesystem::path& dir,
                                             SigmaSpec::Kind kind,
                                             const std::string& value) {
  SigmaSpec spec;
  spec.kind = kind;
  EXPECT_TRUE(
      SaveInstance(test::MakeRandomInstance({}), spec, dir.string()).ok());
  OverwriteCell(dir, "meta.csv", "sigma_value", 1, value);
  return LoadInstance(dir.string());
}

// A non-finite sigma_value is a typed error for either kind: a const
// sigma would abort in ConstSigma's constructor, and a hash sigma never
// reads the value, so the file is corrupt all the same.
TEST_F(InstanceIoTest, NonFiniteSigmaValueIsRejected) {
  for (SigmaSpec::Kind kind : {SigmaSpec::Kind::kConst,
                               SigmaSpec::Kind::kHash}) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      auto loaded = LoadWithSigmaValue(dir_, kind, value);
      ASSERT_FALSE(loaded.ok()) << value;
      EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
          << loaded.status().ToString();
    }
  }
}

TEST_F(InstanceIoTest, ConstSigmaValueOutsideUnitIntervalIsRejected) {
  for (const char* value : {"-1", "2.0", "-1e-300", "1.0000000000000002"}) {
    auto loaded = LoadWithSigmaValue(dir_, SigmaSpec::Kind::kConst, value);
    ASSERT_FALSE(loaded.ok()) << value;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kOutOfRange)
        << loaded.status().ToString();
  }
}

TEST_F(InstanceIoTest, ConstSigmaValueBoundsAreAccepted) {
  for (const char* value : {"0", "1"}) {
    auto loaded = LoadWithSigmaValue(dir_, SigmaSpec::Kind::kConst, value);
    ASSERT_TRUE(loaded.ok()) << value << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->sigma().At(0, 0), std::stod(value));
  }
  // The range only binds a const sigma; a hash sigma ignores the value.
  auto hash = LoadWithSigmaValue(dir_, SigmaSpec::Kind::kHash, "2.0");
  EXPECT_TRUE(hash.ok()) << hash.status().ToString();
}

// Ids are parsed as int64 and stored as uint32: a value outside
// [0, 2^32) must be a typed error, not wrap into a valid id (a user of
// 2^32 + 3 used to load as user 3).
TEST_F(InstanceIoTest, OutOfRangeIdsAreRejected) {
  struct Field {
    const char* file;
    const char* key;
    size_t column;
  };
  for (const Field& field : {Field{"event_interests.csv", "0", 1},
                             Field{"events.csv", "0", 1},
                             Field{"competing.csv", "0", 1}}) {
    for (const char* value : {"4294967296", "4294967299", "-1"}) {
      ExpectCorruptCellRejected(dir_, field.file, field.key, field.column,
                                value, util::StatusCode::kOutOfRange);
    }
  }
}

TEST_F(InstanceIoTest, DuplicateRowsLoadAsClassesAndSaveUnchanged) {
  test::RandomInstanceConfig config;
  config.seed = 5;
  config.num_events = 12;
  config.distinct_rows = 4;
  const SesInstance original = test::MakeRandomInstance(config);
  // The classes expected from the rows themselves.
  std::set<std::pair<std::vector<UserIndex>, std::vector<float>>> rows;
  for (EventIndex e = 0; e < original.num_events(); ++e) {
    rows.insert({{original.EventUsers(e).begin(),
                  original.EventUsers(e).end()},
                 {original.EventValues(e).begin(),
                  original.EventValues(e).end()}});
  }
  ASSERT_LT(rows.size(), original.num_events());

  SigmaSpec spec;
  spec.kind = SigmaSpec::Kind::kHash;
  spec.seed = config.seed;
  ASSERT_TRUE(SaveInstance(original, spec, dir_.string()).ok());
  auto loaded = LoadInstance(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_event_classes(), rows.size());
  EXPECT_EQ(loaded->num_interest_entries(), original.num_interest_entries());
  EXPECT_EQ(loaded->num_stored_interest_entries(),
            original.num_stored_interest_entries());

  const std::filesystem::path again = dir_ / "again";
  std::filesystem::create_directories(again);
  ASSERT_TRUE(SaveInstance(*loaded, spec, again.string()).ok());
  for (const char* file : {"meta.csv", "events.csv", "event_interests.csv",
                           "competing.csv", "competing_interests.csv"}) {
    std::ifstream a(dir_ / file, std::ios::binary);
    std::ifstream b(again / file, std::ios::binary);
    const std::string bytes_a{std::istreambuf_iterator<char>(a), {}};
    const std::string bytes_b{std::istreambuf_iterator<char>(b), {}};
    EXPECT_FALSE(bytes_a.empty()) << file;
    EXPECT_EQ(bytes_a, bytes_b) << file;
  }
}

TEST(SigmaSpecTest, InstantiateMatchesKind) {
  SigmaSpec const_spec;
  const_spec.kind = SigmaSpec::Kind::kConst;
  const_spec.const_value = 0.6;
  auto const_sigma = const_spec.Instantiate();
  EXPECT_DOUBLE_EQ(const_sigma->At(5, 7), 0.6);

  SigmaSpec hash_spec;
  hash_spec.kind = SigmaSpec::Kind::kHash;
  hash_spec.seed = 42;
  auto hash_sigma = hash_spec.Instantiate();
  HashUniformSigma reference(42);
  EXPECT_DOUBLE_EQ(hash_sigma->At(5, 7), reference.At(5, 7));
}

}  // namespace
}  // namespace ses::core
