#include "ebsn/interest.h"

#include <cstdint>

#include "util/logging.h"

namespace ses::ebsn {

namespace {

/// Per-thread scatter scratch for EventInterests: intersection counts per
/// user. Keyed by thread rather than by model so a shared const
/// InterestModel is safe to query from many threads at once. The
/// invariant — zero everywhere outside a call (reset-as-we-go below) —
/// lets models over different datasets share one buffer; it only ever
/// grows to the largest user universe the thread has seen.
std::vector<uint16_t>& LocalOverlapCounts(size_t num_users) {
  thread_local std::vector<uint16_t> overlap_counts;
  if (overlap_counts.size() < num_users) {
    overlap_counts.resize(num_users, 0);
  }
  return overlap_counts;
}

}  // namespace

InterestModel::InterestModel(const EbsnDataset& dataset)
    : dataset_(&dataset) {
  tag_users_.resize(dataset.tags().size());
  for (EbsnUserId u = 0; u < dataset.users().size(); ++u) {
    for (TagId tag : dataset.users()[u].tags) {
      tag_users_[tag].push_back(u);
    }
  }
  // Users are visited in increasing id order, so the lists are sorted.
}

std::vector<UserInterest> InterestModel::EventInterests(
    const std::vector<TagId>& event_tags, float min_interest) const {
  const auto& users = dataset_->users();
  std::vector<uint16_t>& overlap_counts = LocalOverlapCounts(users.size());
  size_t touched = 0;
  for (TagId tag : event_tags) {
    SES_CHECK_LT(tag, tag_users_.size());
    for (EbsnUserId u : tag_users_[tag]) {
      if (overlap_counts[u]++ == 0) ++touched;
    }
  }
  // One sweep in user order emits the list already sorted by user and
  // leaves every count zero again.
  std::vector<UserInterest> out;
  out.reserve(touched);
  const float event_size = static_cast<float>(event_tags.size());
  for (EbsnUserId u = 0; u < users.size(); ++u) {
    if (overlap_counts[u] == 0) continue;
    const float overlap = static_cast<float>(overlap_counts[u]);
    overlap_counts[u] = 0;  // reset scratch as we go
    const float union_size =
        static_cast<float>(users[u].tags.size()) + event_size - overlap;
    const float jaccard = union_size > 0 ? overlap / union_size : 0.0f;
    if (jaccard >= min_interest && jaccard > 0.0f) {
      out.push_back({u, jaccard});
    }
  }
  return out;
}

float InterestModel::UserEventJaccard(
    EbsnUserId user, const std::vector<TagId>& event_tags) const {
  SES_CHECK_LT(user, dataset_->users().size());
  const auto& user_tags = dataset_->users()[user].tags;
  size_t overlap = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < user_tags.size() && j < event_tags.size()) {
    if (user_tags[i] == event_tags[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (user_tags[i] < event_tags[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t union_size = user_tags.size() + event_tags.size() - overlap;
  if (union_size == 0) return 0.0f;
  return static_cast<float>(overlap) / static_cast<float>(union_size);
}

const std::vector<EbsnUserId>& InterestModel::UsersWithTag(TagId tag) const {
  SES_CHECK_LT(tag, tag_users_.size());
  return tag_users_[tag];
}

}  // namespace ses::ebsn
