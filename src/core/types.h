#ifndef SES_CORE_TYPES_H_
#define SES_CORE_TYPES_H_

/// \file
/// Core identifier types of the Social Event Scheduling (SES) problem.
///
/// All entities are referenced by dense indices into the owning
/// SesInstance, which keeps hot loops branch-light and cache-friendly.

#include <cstdint>

namespace ses::core {

/// Index of a user in the instance's user universe U.
using UserIndex = uint32_t;

/// Index of a candidate event in E.
using EventIndex = uint32_t;

/// Index of a (disjoint) time interval in T.
using IntervalIndex = uint32_t;

/// Index of a competing event in C.
using CompetingIndex = uint32_t;

/// Index of an event class: the candidate events that share one interest
/// row (SesInstance::EventClass).
using ClassIndex = uint32_t;

/// Identifier of an event location (stage/venue); two events with equal
/// location cannot share a time interval.
using LocationId = uint32_t;

/// Sentinel for "no index".
inline constexpr uint32_t kInvalidIndex = 0xffffffffu;

/// One event-to-interval assignment alpha_e^t.
struct Assignment {
  EventIndex event = kInvalidIndex;
  IntervalIndex interval = kInvalidIndex;

  friend bool operator==(const Assignment& a, const Assignment& b) {
    return a.event == b.event && a.interval == b.interval;
  }
  friend bool operator<(const Assignment& a, const Assignment& b) {
    if (a.interval != b.interval) return a.interval < b.interval;
    return a.event < b.event;
  }
};

}  // namespace ses::core

#endif  // SES_CORE_TYPES_H_
