#include "core/instance.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ses::core {
namespace {

InstanceBuilder ValidBuilder() {
  InstanceBuilder builder;
  builder.SetNumUsers(4).SetNumIntervals(2).SetTheta(10.0).SetSigma(
      std::make_shared<ConstSigma>(0.5));
  return builder;
}

TEST(InstanceBuilderTest, MinimalInstanceBuilds) {
  auto instance = ValidBuilder().Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->num_users(), 4u);
  EXPECT_EQ(instance->num_intervals(), 2u);
  EXPECT_EQ(instance->num_events(), 0u);
  EXPECT_EQ(instance->num_competing(), 0u);
  EXPECT_DOUBLE_EQ(instance->theta(), 10.0);
}

TEST(InstanceBuilderTest, RejectsZeroUsers) {
  InstanceBuilder builder;
  builder.SetNumIntervals(2).SetTheta(1.0).SetSigma(
      std::make_shared<ConstSigma>(0.5));
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsZeroIntervals) {
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetTheta(1.0).SetSigma(
      std::make_shared<ConstSigma>(0.5));
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsMissingSigma) {
  InstanceBuilder builder;
  builder.SetNumUsers(2).SetNumIntervals(1).SetTheta(1.0);
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsNegativeTheta) {
  auto builder = ValidBuilder();
  builder.SetTheta(-1.0);
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsOutOfRangeUserInInterest) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{9, 0.5f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsZeroInterest) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{0, 0.0f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsInterestAboveOne) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{0, 1.5f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsUnsortedInterestRow) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{2, 0.5f}, {1, 0.5f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsDuplicateUserInRow) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{1, 0.5f}, {1, 0.7f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsNegativeResources) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, -2.0, {});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceBuilderTest, RejectsCompetingWithBadInterval) {
  auto builder = ValidBuilder();
  builder.AddCompetingEvent(7, {{0, 0.5f}});
  EXPECT_FALSE(builder.Build().ok());
}

TEST(InstanceTest, EventAccessorsAndInterestLookup) {
  auto builder = ValidBuilder();
  const EventIndex e0 = builder.AddEvent(3, 2.5, {{0, 0.8f}, {2, 0.3f}});
  const EventIndex e1 = builder.AddEvent(1, 1.0, {});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  EXPECT_EQ(e0, 0u);
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(instance->event(e0).location, 3u);
  EXPECT_DOUBLE_EQ(instance->event(e0).required_resources, 2.5);

  auto users = instance->EventUsers(e0);
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0], 0u);
  EXPECT_EQ(users[1], 2u);
  EXPECT_FLOAT_EQ(instance->EventValues(e0)[0], 0.8f);

  EXPECT_FLOAT_EQ(instance->EventInterest(e0, 0), 0.8f);
  EXPECT_FLOAT_EQ(instance->EventInterest(e0, 1), 0.0f);
  EXPECT_FLOAT_EQ(instance->EventInterest(e0, 2), 0.3f);
  EXPECT_EQ(instance->EventUsers(e1).size(), 0u);
  EXPECT_EQ(instance->num_interest_entries(), 2u);
}

TEST(InstanceTest, CompetingEventsGroupedByInterval) {
  auto builder = ValidBuilder();
  builder.AddCompetingEvent(1, {{0, 0.4f}});
  builder.AddCompetingEvent(0, {{1, 0.6f}});
  builder.AddCompetingEvent(1, {{2, 0.2f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok());

  EXPECT_EQ(instance->num_competing(), 3u);
  auto at0 = instance->CompetingAt(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0], 1u);
  auto at1 = instance->CompetingAt(1);
  ASSERT_EQ(at1.size(), 2u);
  EXPECT_EQ(at1[0], 0u);
  EXPECT_EQ(at1[1], 2u);
  EXPECT_FLOAT_EQ(instance->CompetingInterest(0, 0), 0.4f);
  EXPECT_FLOAT_EQ(instance->CompetingInterest(0, 3), 0.0f);
}

TEST(InstanceTest, AddRowStoresEachDistinctRowOnce) {
  auto builder = ValidBuilder();
  const RowId a = builder.AddRow({{{0, 0.5f}, {2, 0.25f}}});
  const RowId same = builder.AddRow({{{0, 0.5f}, {2, 0.25f}}});
  // Same users, value one ulp apart: a different row.
  const RowId ulp = builder.AddRow(
      {{{0, 0.5f}, {2, std::nextafter(0.25f, 1.0f)}}});
  const RowId other_user = builder.AddRow({{{1, 0.5f}, {2, 0.25f}}});
  EXPECT_EQ(same.value, a.value);
  EXPECT_NE(ulp.value, a.value);
  EXPECT_NE(other_user.value, a.value);
  EXPECT_NE(other_user.value, ulp.value);

  builder.AddEvent(0, 1.0, a);
  builder.AddEvent(1, 1.0, {{0, 0.5f}, {2, 0.25f}});  // dedups to a
  builder.AddCompetingEvent(0, a);
  builder.AddCompetingEvent(1, ulp);
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_EQ(instance->num_interest_entries(), 4u);  // per event
  // a, ulp and other_user (added but unused) are stored once each.
  EXPECT_EQ(instance->num_stored_interest_entries(), 6u);
  EXPECT_EQ(instance->num_event_classes(), 1u);
  EXPECT_EQ(instance->CompetingUsers(0).data(),
            instance->EventUsers(1).data());
  EXPECT_EQ(instance->CompetingValues(1)[1],
            std::nextafter(0.25f, 1.0f));
}

TEST(InstanceTest, EventClassesGroupEventsSharingARow) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{1, 0.5f}});
  builder.AddEvent(1, 2.0, {{2, 0.5f}});
  builder.AddEvent(2, 3.0, {{1, 0.5f}});
  builder.AddEvent(0, 1.0, {});
  builder.AddEvent(3, 4.0, {});
  builder.AddEvent(1, 1.0, {{1, 0.5f}});
  auto instance = builder.Build();
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  // Numbered by lowest member; member lists sorted by event.
  ASSERT_EQ(instance->num_event_classes(), 3u);
  const std::vector<ClassIndex> classes = {0, 1, 0, 2, 2, 0};
  for (EventIndex e = 0; e < instance->num_events(); ++e) {
    EXPECT_EQ(instance->EventClass(e), classes[e]) << e;
    const auto users = instance->ClassUsers(classes[e]);
    EXPECT_TRUE(std::ranges::equal(users, instance->EventUsers(e))) << e;
  }
  EXPECT_EQ(std::vector<EventIndex>(instance->ClassMembers(0).begin(),
                                    instance->ClassMembers(0).end()),
            (std::vector<EventIndex>{0, 2, 5}));
  EXPECT_EQ(instance->ClassMembers(1).size(), 1u);
  EXPECT_EQ(std::vector<EventIndex>(instance->ClassMembers(2).begin(),
                                    instance->ClassMembers(2).end()),
            (std::vector<EventIndex>{3, 4}));
  // Members keep their own location and resources.
  EXPECT_EQ(instance->event(5).location, 1u);
  EXPECT_DOUBLE_EQ(instance->event(2).required_resources, 3.0);
  EXPECT_EQ(instance->num_interest_entries(), 4u);
  EXPECT_EQ(instance->num_stored_interest_entries(), 2u);
}

TEST(InstanceTest, InvalidSharedRowNamesItsFirstEvent) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, {{0, 0.5f}});
  builder.AddEvent(0, 1.0, {{2, 0.5f}, {1, 0.5f}});  // unsorted
  builder.AddEvent(0, 1.0, {{2, 0.5f}, {1, 0.5f}});
  auto instance = builder.Build();
  ASSERT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(instance.status().ToString().find("event 1:"), std::string::npos)
      << instance.status().ToString();
}

TEST(InstanceTest, UnknownRowIdIsRejected) {
  auto builder = ValidBuilder();
  builder.AddEvent(0, 1.0, RowId(3));
  auto instance = builder.Build();
  ASSERT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), util::StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace ses::core
