#ifndef IVR_PROFILE_USER_PROFILE_H_
#define IVR_PROFILE_USER_PROFILE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "ivr/core/result.h"
#include "ivr/video/types.h"

namespace ivr {

/// Self-declared registration data, the kind of static personal
/// information the paper's Section 2.1 discusses users entering when they
/// sign up for a service.
struct Demographics {
  std::string occupation;
  std::string region;
  int age = 0;
};

/// A static user profile: demographics plus weighted topic interests
/// ("interested in football" -> high weight on the sports topic). Static
/// here means the profile only changes across sessions (registration,
/// occasional reinforcement), never within one — the within-session signal
/// is implicit feedback's job.
class UserProfile {
 public:
  UserProfile() = default;
  explicit UserProfile(std::string user_id)
      : user_id_(std::move(user_id)) {}

  const std::string& user_id() const { return user_id_; }

  Demographics& demographics() { return demographics_; }
  const Demographics& demographics() const { return demographics_; }

  /// Sets the declared interest weight for a topic (clamped to >= 0).
  void SetInterest(TopicLabel topic, double weight);

  /// Declared interest in a topic, 0 when unknown.
  double Interest(TopicLabel topic) const;

  const std::unordered_map<TopicLabel, double>& interests() const {
    return interests_;
  }

  /// Rescales interests to sum 1 (no-op when all-zero).
  void Normalize();

  /// Cross-session learning: adds evidence mass to a topic.
  void Reinforce(TopicLabel topic, double amount);

  /// Cross-session forgetting: multiplies every interest by `factor`
  /// (clamped to [0,1]).
  void Decay(double factor);

  /// Profile affinity of a shot in [0,1]: the normalised interest mass on
  /// the concepts the shot carries (primary topic counts fully, secondary
  /// concepts half).
  double ShotAffinity(const Shot& shot) const;

  /// One-line TSV serialisation: user<TAB>topic:weight,... .
  std::string Serialize() const;
  static Result<UserProfile> Deserialize(const std::string& line);

 private:
  std::string user_id_;
  Demographics demographics_;
  std::unordered_map<TopicLabel, double> interests_;
};

/// UserProfile::ShotAffinity for scoring many shots against one profile:
/// the interest total and a dense per-topic interest table are built once
/// instead of per shot. Bit-identical to ShotAffinity; the profile may
/// change or go away afterwards.
class ProfileAffinity {
 public:
  explicit ProfileAffinity(const UserProfile& profile);

  double operator()(const Shot& shot) const;

 private:
  /// Topics below this index go in the dense table; larger ids (a
  /// hostile or odd profile file) stay in a map.
  static constexpr TopicLabel kDenseTopics = 1024;

  std::vector<double> dense_;  // by TopicLabel; 0 when undeclared
  std::unordered_map<TopicLabel, double> sparse_;
  double total_ = 0.0;
};

}  // namespace ivr

#endif  // IVR_PROFILE_USER_PROFILE_H_
