#include "core/objective.h"

#include <span>
#include <vector>

#include "util/logging.h"

namespace ses::core {

namespace {

/// The per-user denominators of Eq. 1 for one interval at a time: a
/// dense |U| array plus the list of users written, so moving to the
/// next interval clears only those entries. Every user's sum is
/// accumulated in the reference order (competing rows in CompetingAt
/// order, then scheduled rows in EventsAt order).
class IntervalDenominators {
 public:
  explicit IntervalDenominators(const SesInstance& instance)
      : instance_(instance), denom_(instance.num_users(), 0.0) {}

  /// Clears the previous interval, then sums competing plus scheduled
  /// interest at \p t.
  void Fill(const Schedule& schedule, IntervalIndex t) {
    for (UserIndex u : written_) denom_[u] = 0.0;
    written_.clear();
    for (CompetingIndex c : instance_.CompetingAt(t)) {
      Add(instance_.CompetingUsers(c), instance_.CompetingValues(c));
    }
    for (EventIndex p : schedule.EventsAt(t)) {
      Add(instance_.EventUsers(p), instance_.EventValues(p));
    }
  }

  /// Adds event \p e's interest row, as if it were scheduled here too.
  void AddEvent(EventIndex e) {
    Add(instance_.EventUsers(e), instance_.EventValues(e));
  }

  double operator[](UserIndex u) const { return denom_[u]; }

 private:
  void Add(std::span<const UserIndex> users, std::span<const float> values) {
    for (size_t i = 0; i < users.size(); ++i) {
      const UserIndex u = users[i];
      if (denom_[u] == 0.0) written_.push_back(u);
      denom_[u] += values[i];
    }
  }

  const SesInstance& instance_;
  std::vector<double> denom_;
  /// Users whose entry was written; duplicates (a user whose sum
  /// stays 0) only mean a redundant clear.
  std::vector<UserIndex> written_;
};

/// Adds event \p p's Eq. 2 terms at interval \p t, sigma * mu / D per
/// interested user, one at a time into \p total (callers sum several
/// events into one accumulator).
void AddEventAttendance(const SesInstance& instance,
                        const IntervalDenominators& denom, EventIndex p,
                        IntervalIndex t, double& total) {
  auto users = instance.EventUsers(p);
  auto values = instance.EventValues(p);
  for (size_t i = 0; i < users.size(); ++i) {
    const double d = denom[users[i]];
    if (d <= 0.0) continue;
    total += instance.sigma().At(users[i], t) *
             static_cast<double>(values[i]) / d;
  }
}

}  // namespace

double AttendanceProbability(const SesInstance& instance,
                             const Schedule& schedule, UserIndex u,
                             EventIndex e) {
  const IntervalIndex t = schedule.IntervalOf(e);
  SES_CHECK_NE(t, kInvalidIndex) << "event must be assigned";
  const double mu = instance.EventInterest(e, u);
  if (mu <= 0.0) return 0.0;

  double denominator = 0.0;
  for (CompetingIndex c : instance.CompetingAt(t)) {
    denominator += instance.CompetingInterest(c, u);
  }
  for (EventIndex p : schedule.EventsAt(t)) {
    denominator += instance.EventInterest(p, u);
  }
  if (denominator <= 0.0) return 0.0;
  // SigmaProvider is the one sanctioned extension point on this path;
  // a single per-call virtual At is the reference semantics here (the
  // incremental engine amortizes it away via FillInterval instead).
  return instance.sigma().At(u, t) * mu / denominator;  // ses-lint: allow(hot-path) sanctioned SigmaProvider dispatch
}

double ExpectedAttendance(const SesInstance& instance,
                          const Schedule& schedule, EventIndex e) {
  const IntervalIndex t = schedule.IntervalOf(e);
  SES_CHECK_NE(t, kInvalidIndex) << "event must be assigned";
  IntervalDenominators denom(instance);
  denom.Fill(schedule, t);
  double omega = 0.0;
  AddEventAttendance(instance, denom, e, t, omega);
  return omega;
}

double TotalUtility(const SesInstance& instance, const Schedule& schedule) {
  IntervalDenominators denom(instance);
  double total = 0.0;
  for (IntervalIndex t = 0; t < instance.num_intervals(); ++t) {
    const auto& events = schedule.EventsAt(t);
    if (events.empty()) continue;
    denom.Fill(schedule, t);
    for (EventIndex e : events) {
      AddEventAttendance(instance, denom, e, t, total);
    }
  }
  return total;
}

double AssignmentScore(const SesInstance& instance, const Schedule& schedule,
                       EventIndex e, IntervalIndex t) {
  SES_CHECK(!schedule.IsAssigned(e)) << "score is defined for new events";
  // Eq. 4 is defined for every (event, interval) pair, independent of the
  // feasibility constraints (GRD prices infeasible assignments too and
  // only filters them at selection time), so the hypothetical interval
  // content is evaluated directly rather than through Schedule::Assign.
  IntervalDenominators denom(instance);
  denom.Fill(schedule, t);
  double without_e = 0.0;
  for (EventIndex p : schedule.EventsAt(t)) {
    AddEventAttendance(instance, denom, p, t, without_e);
  }
  denom.AddEvent(e);
  double with_e = 0.0;
  for (EventIndex p : schedule.EventsAt(t)) {
    AddEventAttendance(instance, denom, p, t, with_e);
  }
  AddEventAttendance(instance, denom, e, t, with_e);
  return with_e - without_e;
}

}  // namespace ses::core
