#include "ivr/profile/user_profile.h"

#include <algorithm>

#include "ivr/core/string_util.h"

namespace ivr {

void UserProfile::SetInterest(TopicLabel topic, double weight) {
  if (weight <= 0.0) {
    interests_.erase(topic);
    return;
  }
  interests_[topic] = weight;
}

double UserProfile::Interest(TopicLabel topic) const {
  auto it = interests_.find(topic);
  return it == interests_.end() ? 0.0 : it->second;
}

void UserProfile::Normalize() {
  double total = 0.0;
  for (const auto& [topic, w] : interests_) {
    (void)topic;
    total += w;
  }
  if (total <= 0.0) return;
  for (auto& [topic, w] : interests_) {
    (void)topic;
    w /= total;
  }
}

void UserProfile::Reinforce(TopicLabel topic, double amount) {
  if (amount <= 0.0) return;
  interests_[topic] += amount;
}

void UserProfile::Decay(double factor) {
  factor = std::clamp(factor, 0.0, 1.0);
  for (auto it = interests_.begin(); it != interests_.end();) {
    it->second *= factor;
    if (it->second <= 1e-12) {
      it = interests_.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

double InterestTotal(const std::unordered_map<TopicLabel, double>& interests) {
  double total = 0.0;
  for (const auto& [topic, w] : interests) {
    (void)topic;
    total += w;
  }
  return total;
}

/// The affinity formula, over any interest lookup.
template <typename InterestFn>
double Affinity(const Shot& shot, double total, InterestFn interest) {
  if (total <= 0.0) return 0.0;
  double affinity = interest(shot.primary_topic);
  for (size_t c = 0; c < shot.concepts.size(); ++c) {
    if (shot.concepts[c] && static_cast<TopicLabel>(c) != shot.primary_topic) {
      affinity += 0.5 * interest(static_cast<TopicLabel>(c));
    }
  }
  return std::min(affinity / total, 1.0);
}

}  // namespace

double UserProfile::ShotAffinity(const Shot& shot) const {
  return Affinity(shot, InterestTotal(interests_),
                  [this](TopicLabel topic) { return Interest(topic); });
}

ProfileAffinity::ProfileAffinity(const UserProfile& profile)
    : total_(InterestTotal(profile.interests())) {
  for (const auto& [topic, w] : profile.interests()) {
    if (topic >= kDenseTopics) {
      sparse_[topic] = w;
      continue;
    }
    if (topic >= dense_.size()) dense_.resize(topic + 1, 0.0);
    dense_[topic] = w;
  }
}

double ProfileAffinity::operator()(const Shot& shot) const {
  return Affinity(shot, total_, [this](TopicLabel topic) {
    if (topic < dense_.size()) return dense_[topic];
    if (topic < kDenseTopics) return 0.0;
    const auto it = sparse_.find(topic);
    return it == sparse_.end() ? 0.0 : it->second;
  });
}

std::string UserProfile::Serialize() const {
  // Sort topics for stable output.
  std::vector<std::pair<TopicLabel, double>> sorted(interests_.begin(),
                                                    interests_.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> parts;
  parts.reserve(sorted.size());
  for (const auto& [topic, w] : sorted) {
    parts.push_back(StrFormat("%u:%.17g", topic, w));
  }
  return user_id_ + "\t" + Join(parts, ",");
}

Result<UserProfile> UserProfile::Deserialize(const std::string& line) {
  const std::vector<std::string> cols = Split(line, '\t');
  if (cols.empty() || cols[0].empty()) {
    return Status::Corruption("profile line must start with a user id");
  }
  UserProfile profile(cols[0]);
  if (cols.size() >= 2 && !Trim(cols[1]).empty()) {
    for (const std::string& part : Split(cols[1], ',')) {
      const std::vector<std::string> kv = Split(part, ':');
      if (kv.size() != 2) {
        return Status::Corruption("bad interest entry: " + part);
      }
      IVR_ASSIGN_OR_RETURN(int64_t topic, ParseInt(kv[0]));
      IVR_ASSIGN_OR_RETURN(double weight, ParseDouble(kv[1]));
      if (topic < 0) {
        return Status::Corruption("negative topic id: " + part);
      }
      profile.SetInterest(static_cast<TopicLabel>(topic), weight);
    }
  }
  return profile;
}

}  // namespace ivr
