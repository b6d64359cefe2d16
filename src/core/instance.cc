#include "core/instance.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace ses::core {

uint32_t InterestRows::AddRow(
    std::span<const std::pair<UserIndex, float>> entries) {
  for (const auto& [user, value] : entries) {
    users_.push_back(user);
    values_.push_back(value);
  }
  offsets_.push_back(users_.size());
  return static_cast<uint32_t>(offsets_.size() - 2);
}

bool InterestRows::RowEquals(
    uint32_t row,
    std::span<const std::pair<UserIndex, float>> entries) const {
  const auto users = RowUsers(row);
  const auto values = RowValues(row);
  if (users.size() != entries.size()) return false;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (users[i] != entries[i].first ||
        std::bit_cast<uint32_t>(values[i]) !=
            std::bit_cast<uint32_t>(entries[i].second)) {
      return false;
    }
  }
  return true;
}

std::span<const UserIndex> InterestRows::RowUsers(uint32_t row) const {
  SES_CHECK_LT(row, num_rows());
  return {users_.data() + offsets_[row],
          static_cast<size_t>(offsets_[row + 1] - offsets_[row])};
}

std::span<const float> InterestRows::RowValues(uint32_t row) const {
  SES_CHECK_LT(row, num_rows());
  return {values_.data() + offsets_[row],
          static_cast<size_t>(offsets_[row + 1] - offsets_[row])};
}

float InterestRows::ValueAt(uint32_t row, UserIndex user) const {
  auto users = RowUsers(row);
  auto it = std::lower_bound(users.begin(), users.end(), user);
  if (it == users.end() || *it != user) return 0.0f;
  return RowValues(row)[static_cast<size_t>(it - users.begin())];
}

const CandidateEventInfo& SesInstance::event(EventIndex e) const {
  SES_CHECK_LT(e, events_.size());
  return events_[e];
}

const CompetingEventInfo& SesInstance::competing(CompetingIndex c) const {
  SES_CHECK_LT(c, competing_.size());
  return competing_[c];
}

std::span<const CompetingIndex> SesInstance::CompetingAt(
    IntervalIndex t) const {
  SES_CHECK_LT(t, interval_competing_.size());
  return interval_competing_[t];
}

ClassIndex SesInstance::EventClass(EventIndex e) const {
  SES_CHECK_LT(e, event_class_.size());
  return event_class_[e];
}

std::span<const EventIndex> SesInstance::ClassMembers(ClassIndex c) const {
  SES_CHECK_LT(c, class_row_.size());
  return {class_members_.data() + class_offsets_[c],
          static_cast<size_t>(class_offsets_[c + 1] - class_offsets_[c])};
}

uint32_t SesInstance::EventRow(EventIndex e) const {
  SES_CHECK_LT(e, event_row_.size());
  return event_row_[e];
}

uint32_t SesInstance::CompetingRow(CompetingIndex c) const {
  SES_CHECK_LT(c, competing_row_.size());
  return competing_row_[c];
}

uint32_t SesInstance::ClassRow(ClassIndex c) const {
  SES_CHECK_LT(c, class_row_.size());
  return class_row_[c];
}

InstanceBuilder& InstanceBuilder::SetNumUsers(uint32_t n) {
  num_users_ = n;
  return *this;
}

InstanceBuilder& InstanceBuilder::SetNumIntervals(uint32_t n) {
  num_intervals_ = n;
  return *this;
}

InstanceBuilder& InstanceBuilder::SetTheta(double theta) {
  theta_ = theta;
  return *this;
}

InstanceBuilder& InstanceBuilder::SetSigma(
    std::shared_ptr<const SigmaProvider> sigma) {
  sigma_ = std::move(sigma);
  return *this;
}

RowId InstanceBuilder::AddRow(
    std::span<const std::pair<UserIndex, float>> entries) {
  // FNV-1a over each entry's user and value bits.
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& [user, value] : entries) {
    const uint64_t word = (static_cast<uint64_t>(user) << 32) |
                          std::bit_cast<uint32_t>(value);
    hash = (hash ^ word) * 0x100000001b3ULL;
  }
  const auto [lo, hi] = row_index_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    if (rows_.RowEquals(it->second, entries)) return RowId(it->second);
  }
  const uint32_t row = rows_.AddRow(entries);
  row_index_.emplace(hash, row);
  return RowId(row);
}

EventIndex InstanceBuilder::AddEvent(LocationId location,
                                     double required_resources, RowId row) {
  events_.push_back({location, required_resources});
  event_row_.push_back(row.value);
  return static_cast<EventIndex>(events_.size() - 1);
}

EventIndex InstanceBuilder::AddEvent(LocationId location,
                                     double required_resources,
                                     const Entries& interests) {
  return AddEvent(location, required_resources, AddRow(interests));
}

CompetingIndex InstanceBuilder::AddCompetingEvent(IntervalIndex interval,
                                                  RowId row) {
  competing_.push_back({interval});
  competing_row_.push_back(row.value);
  return static_cast<CompetingIndex>(competing_.size() - 1);
}

CompetingIndex InstanceBuilder::AddCompetingEvent(IntervalIndex interval,
                                                  const Entries& interests) {
  return AddCompetingEvent(interval, AddRow(interests));
}

util::Status InstanceBuilder::ValidateRow(uint32_t row, const char* what,
                                          size_t index) const {
  if (row >= rows_.num_rows()) {
    return util::Status::OutOfRange(util::StrFormat(
        "%s %zu: row id %u out of range", what, index, row));
  }
  const auto users = rows_.RowUsers(row);
  const auto values = rows_.RowValues(row);
  for (size_t i = 0; i < users.size(); ++i) {
    if (users[i] >= num_users_) {
      return util::Status::OutOfRange(util::StrFormat(
          "%s %zu: user %u out of range (|U|=%u)", what, index, users[i],
          num_users_));
    }
    if (!(values[i] > 0.0f) || values[i] > 1.0f) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s %zu: interest %f outside (0,1]", what, index,
          static_cast<double>(values[i])));
    }
    if (i > 0 && users[i - 1] >= users[i]) {
      return util::Status::FailedPrecondition(util::StrFormat(
          "%s %zu: interest row not sorted/unique by user", what, index));
    }
  }
  return util::Status::Ok();
}

util::Result<SesInstance> InstanceBuilder::Build() {
  if (num_users_ == 0) {
    return util::Status::InvalidArgument("instance needs at least one user");
  }
  if (num_intervals_ == 0) {
    return util::Status::InvalidArgument(
        "instance needs at least one interval");
  }
  if (!std::isfinite(theta_) || theta_ < 0.0) {
    return util::Status::InvalidArgument(
        "theta must be finite and non-negative");
  }
  if (sigma_ == nullptr) {
    return util::Status::InvalidArgument("sigma provider not set");
  }
  // Each pooled row is validated once, on its first use, so an error
  // names the first event that uses the bad row.
  std::vector<bool> validated(rows_.num_rows(), false);
  auto validate = [&](uint32_t row, const char* what,
                      size_t index) -> util::Status {
    if (row < validated.size() && validated[row]) return util::Status::Ok();
    SES_RETURN_IF_ERROR(ValidateRow(row, what, index));
    validated[row] = true;
    return util::Status::Ok();
  };
  for (size_t e = 0; e < events_.size(); ++e) {
    const double resources = events_[e].required_resources;
    if (!std::isfinite(resources) || resources < 0.0) {
      return util::Status::InvalidArgument(util::StrFormat(
          "event %zu: required resources must be finite and non-negative",
          e));
    }
    SES_RETURN_IF_ERROR(validate(event_row_[e], "event", e));
  }
  for (size_t c = 0; c < competing_.size(); ++c) {
    if (competing_[c].interval >= num_intervals_) {
      return util::Status::OutOfRange(util::StrFormat(
          "competing event %zu: interval %u out of range", c,
          competing_[c].interval));
    }
    SES_RETURN_IF_ERROR(validate(competing_row_[c], "competing event", c));
  }

  SesInstance instance;
  instance.num_users_ = num_users_;
  instance.num_intervals_ = num_intervals_;
  instance.theta_ = theta_;
  instance.sigma_ = std::move(sigma_);
  instance.interval_competing_.resize(num_intervals_);
  for (size_t c = 0; c < competing_.size(); ++c) {
    instance.interval_competing_[competing_[c].interval].push_back(
        static_cast<CompetingIndex>(c));
  }
  // Classes, numbered in order of their lowest member; each member list
  // comes out sorted because events are visited in index order.
  std::vector<ClassIndex> row_class(rows_.num_rows(), kInvalidIndex);
  std::vector<uint32_t> class_sizes;
  instance.event_class_.resize(events_.size());
  for (size_t e = 0; e < events_.size(); ++e) {
    const uint32_t row = event_row_[e];
    if (row_class[row] == kInvalidIndex) {
      row_class[row] = static_cast<ClassIndex>(instance.class_row_.size());
      instance.class_row_.push_back(row);
      class_sizes.push_back(0);
    }
    instance.event_class_[e] = row_class[row];
    ++class_sizes[row_class[row]];
    instance.num_interest_entries_ += rows_.RowUsers(row).size();
  }
  instance.class_offsets_.reserve(class_sizes.size() + 1);
  for (uint32_t size : class_sizes) {
    instance.class_offsets_.push_back(instance.class_offsets_.back() + size);
  }
  instance.class_members_.resize(events_.size());
  std::vector<uint32_t> next(instance.class_offsets_.begin(),
                             instance.class_offsets_.end() - 1);
  for (size_t e = 0; e < events_.size(); ++e) {
    instance.class_members_[next[instance.event_class_[e]]++] =
        static_cast<EventIndex>(e);
  }
  instance.events_ = std::move(events_);
  instance.competing_ = std::move(competing_);
  instance.event_row_ = std::move(event_row_);
  instance.competing_row_ = std::move(competing_row_);
  instance.rows_ = std::move(rows_);
  row_index_ = {};
  return instance;
}

}  // namespace ses::core
