#ifndef SES_CORE_INSTANCE_H_
#define SES_CORE_INSTANCE_H_

/// \file
/// The SES problem instance: candidate events E, disjoint time intervals
/// T, competing events C, users U, interest function mu, activity
/// probabilities sigma, organizer resources theta (paper Section II).
///
/// Interests are stored as CSR sparse rows (sorted (user, mu) pairs);
/// virtually all users have zero interest in any given event, and every
/// algorithm in this library only ever iterates the non-zero entries.
/// Each distinct row is stored once and events map to it by id.

#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sigma.h"
#include "core/types.h"
#include "util/status.h"

namespace ses::core {

/// Static properties of a candidate event.
struct CandidateEventInfo {
  /// The place (stage) hosting the event; unique per interval.
  LocationId location = 0;
  /// Resources xi_e required to organize the event.
  double required_resources = 0.0;
};

/// Static properties of a competing (third-party, pre-scheduled) event.
struct CompetingEventInfo {
  /// The interval the third party scheduled it at.
  IntervalIndex interval = kInvalidIndex;
};

/// CSR container of sparse interest rows.
class InterestRows {
 public:
  /// Appends a row and returns its id. \p entries are stored as given;
  /// InstanceBuilder validates them (sorted by user, mu in (0, 1]).
  uint32_t AddRow(std::span<const std::pair<UserIndex, float>> entries);

  /// True when row \p row holds exactly \p entries: the same users and
  /// bit-identical values.
  bool RowEquals(uint32_t row,
                 std::span<const std::pair<UserIndex, float>> entries) const;

  /// Number of rows.
  size_t num_rows() const { return offsets_.size() - 1; }

  /// Total non-zero entries.
  size_t num_entries() const { return users_.size(); }

  /// Sorted user ids of row \p row.
  std::span<const UserIndex> RowUsers(uint32_t row) const;

  /// Interest values parallel to RowUsers(row).
  std::span<const float> RowValues(uint32_t row) const;

  /// Looks up mu(user, row); 0 when absent.
  float ValueAt(uint32_t row, UserIndex user) const;

 private:
  std::vector<uint64_t> offsets_{0};
  std::vector<UserIndex> users_;
  std::vector<float> values_;
};

/// Id of a row in an InstanceBuilder's row pool (InstanceBuilder::AddRow).
/// A distinct type, with no default, so that an empty braced row `{}`
/// still selects the AddEvent overload taking entries.
struct RowId {
  explicit constexpr RowId(uint32_t id) : value(id) {}
  uint32_t value;
};

/// An immutable SES instance. Build through InstanceBuilder.
///
/// Interests are stored once per distinct row: candidate and competing
/// events map into one pool of rows with pairwise different contents
/// (users plus value bits). Candidate events that share a row form an
/// event class. Eq. 4 reads an event's row and nothing else of the
/// event, so every member of a class has the same score at every
/// interval in every schedule; the scoring stage (core/score_gen.h)
/// scores each class once.
class SesInstance {
 public:
  /// Number of users |U|.
  uint32_t num_users() const { return num_users_; }

  /// Number of candidate events |E|.
  uint32_t num_events() const {
    return static_cast<uint32_t>(events_.size());
  }

  /// Number of disjoint time intervals |T|.
  uint32_t num_intervals() const { return num_intervals_; }

  /// Number of competing events |C|.
  uint32_t num_competing() const {
    return static_cast<uint32_t>(competing_.size());
  }

  /// Organizer resources theta available within any single interval.
  double theta() const { return theta_; }

  /// Candidate event metadata.
  const CandidateEventInfo& event(EventIndex e) const;

  /// Competing event metadata.
  const CompetingEventInfo& competing(CompetingIndex c) const;

  /// Competing events pre-scheduled at interval \p t (C_t).
  std::span<const CompetingIndex> CompetingAt(IntervalIndex t) const;

  /// Sparse interest row of candidate event \p e.
  std::span<const UserIndex> EventUsers(EventIndex e) const {
    return rows_.RowUsers(EventRow(e));
  }
  std::span<const float> EventValues(EventIndex e) const {
    return rows_.RowValues(EventRow(e));
  }

  /// mu(user, candidate event); 0 when the user is uninterested.
  float EventInterest(EventIndex e, UserIndex u) const {
    return rows_.ValueAt(EventRow(e), u);
  }

  /// Sparse interest row of competing event \p c.
  std::span<const UserIndex> CompetingUsers(CompetingIndex c) const {
    return rows_.RowUsers(CompetingRow(c));
  }
  std::span<const float> CompetingValues(CompetingIndex c) const {
    return rows_.RowValues(CompetingRow(c));
  }

  /// mu(user, competing event); 0 when the user is uninterested.
  float CompetingInterest(CompetingIndex c, UserIndex u) const {
    return rows_.ValueAt(CompetingRow(c), u);
  }

  /// Number of event classes: distinct interest rows among the candidate
  /// events. Equals num_events() when no two events share a row.
  uint32_t num_event_classes() const {
    return static_cast<uint32_t>(class_row_.size());
  }

  /// Class of candidate event \p e. Classes are numbered in order of
  /// their lowest member, so event 0 is in class 0.
  ClassIndex EventClass(EventIndex e) const;

  /// Members of class \p c, sorted by event index.
  std::span<const EventIndex> ClassMembers(ClassIndex c) const;

  /// The interest row every member of class \p c shares.
  std::span<const UserIndex> ClassUsers(ClassIndex c) const {
    return rows_.RowUsers(ClassRow(c));
  }
  std::span<const float> ClassValues(ClassIndex c) const {
    return rows_.RowValues(ClassRow(c));
  }

  /// The activity-probability provider sigma.
  const SigmaProvider& sigma() const { return *sigma_; }

  /// Total non-zero candidate interest entries, counted per event (for
  /// reporting): a row shared by n events counts n times.
  size_t num_interest_entries() const { return num_interest_entries_; }

  /// Non-zero entries actually stored: each distinct row, candidate or
  /// competing, counts once.
  size_t num_stored_interest_entries() const { return rows_.num_entries(); }

 private:
  friend class InstanceBuilder;
  SesInstance() = default;

  uint32_t EventRow(EventIndex e) const;
  uint32_t CompetingRow(CompetingIndex c) const;
  uint32_t ClassRow(ClassIndex c) const;

  uint32_t num_users_ = 0;
  uint32_t num_intervals_ = 0;
  double theta_ = 0.0;
  std::vector<CandidateEventInfo> events_;
  std::vector<CompetingEventInfo> competing_;
  std::vector<std::vector<CompetingIndex>> interval_competing_;
  /// Distinct rows of candidate and competing events alike.
  InterestRows rows_;
  std::vector<uint32_t> event_row_;      ///< event -> row id
  std::vector<uint32_t> competing_row_;  ///< competing event -> row id
  std::vector<ClassIndex> event_class_;  ///< event -> class id
  std::vector<uint32_t> class_row_;      ///< class -> row id
  /// Class members as CSR: class c's are
  /// class_members_[class_offsets_[c], class_offsets_[c + 1]).
  std::vector<uint32_t> class_offsets_{0};
  std::vector<EventIndex> class_members_;
  size_t num_interest_entries_ = 0;
  std::shared_ptr<const SigmaProvider> sigma_;
};

/// Step-by-step construction and validation of a SesInstance.
class InstanceBuilder {
 public:
  using Entries = std::vector<std::pair<UserIndex, float>>;

  InstanceBuilder& SetNumUsers(uint32_t n);
  InstanceBuilder& SetNumIntervals(uint32_t n);
  InstanceBuilder& SetTheta(double theta);
  InstanceBuilder& SetSigma(std::shared_ptr<const SigmaProvider> sigma);

  /// Adds an interest row to the pool and returns its id. A row equal to
  /// one already added (same users, bit-identical values) is stored once
  /// and returns that row's id. \p entries: sorted by user, mu in (0, 1];
  /// Build() validates each row once.
  RowId AddRow(std::span<const std::pair<UserIndex, float>> entries);

  /// Adds a candidate event whose interests are row \p row. Returns its
  /// EventIndex.
  EventIndex AddEvent(LocationId location, double required_resources,
                      RowId row);

  /// As above with the row given by its entries: AddEvent(location,
  /// required_resources, AddRow(interests)).
  EventIndex AddEvent(LocationId location, double required_resources,
                      const Entries& interests);

  /// Adds a competing event pre-scheduled at \p interval.
  CompetingIndex AddCompetingEvent(IntervalIndex interval, RowId row);
  CompetingIndex AddCompetingEvent(IntervalIndex interval,
                                   const Entries& interests);

  /// Validates and produces the instance. The builder is left in a
  /// moved-from state on success.
  [[nodiscard]] util::Result<SesInstance> Build();

 private:
  [[nodiscard]] util::Status ValidateRow(uint32_t row, const char* what,
                                         size_t index) const;

  uint32_t num_users_ = 0;
  uint32_t num_intervals_ = 0;
  double theta_ = 0.0;
  std::shared_ptr<const SigmaProvider> sigma_;
  std::vector<CandidateEventInfo> events_;
  std::vector<uint32_t> event_row_;
  std::vector<CompetingEventInfo> competing_;
  std::vector<uint32_t> competing_row_;
  InterestRows rows_;
  /// Content hash -> ids of the pooled rows with that hash.
  std::unordered_multimap<uint64_t, uint32_t> row_index_;
};

}  // namespace ses::core

#endif  // SES_CORE_INSTANCE_H_
