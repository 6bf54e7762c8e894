#include "ivr/features/similarity.h"

#include <algorithm>
#include <cmath>

namespace ivr {

double ComputeSimilarity(VisualSimilarity kind, const ColorHistogram& a,
                         const ColorHistogram& b) {
  switch (kind) {
    case VisualSimilarity::kHistogramIntersection:
      return HistogramIntersection(a, b);
    case VisualSimilarity::kCosine:
      return CosineSimilarity(a, b);
    case VisualSimilarity::kInverseL1:
      return 1.0 / (1.0 + L1Distance(a, b));
  }
  return 0.0;
}

std::vector<Neighbor> VisualSearcher::NearestNeighbors(
    const ColorHistogram& query, size_t k) const {
  std::vector<Neighbor> all;
  all.reserve(corpus_.size());
  for (size_t i = 0; i < corpus_.size(); ++i) {
    all.push_back(Neighbor{i, ComputeSimilarity(kind_, query, corpus_[i])});
  }
  auto better = [](const Neighbor& a, const Neighbor& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  };
  if (all.size() > k) {
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k),
                      all.end(), better);
    all.resize(k);
  } else {
    std::sort(all.begin(), all.end(), better);
  }
  return all;
}

std::vector<double> VisualSearcher::ScoreAll(
    const ColorHistogram& query) const {
  std::vector<double> scores;
  scores.reserve(corpus_.size());
  for (const ColorHistogram& h : corpus_) {
    scores.push_back(ComputeSimilarity(kind_, query, h));
  }
  return scores;
}

namespace {

/// Entries scored side by side: their sums are independent dependency
/// chains, so the adds overlap instead of waiting on one another.
constexpr size_t kLanes = 8;

/// Sums term(query[j], entry[j]) over the bins of kLanes entries at once,
/// each sum starting at 0.0 and running in bin order like the scalar
/// HistogramIntersection / L1Distance loops.
template <typename Term>
void SumLanes(const ColorHistogram& query, const ColorHistogram* entries,
              Term term, double* out) {
  const double* q = query.bins().data();
  const double* b[kLanes];
  double sum[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    b[l] = entries[l].bins().data();
    sum[l] = 0.0;
  }
  for (size_t j = 0; j < query.size(); ++j) {
    const double a = q[j];
#pragma GCC unroll 8
    for (size_t l = 0; l < kLanes; ++l) sum[l] += term(a, b[l][j]);
  }
  for (size_t l = 0; l < kLanes; ++l) out[l] = sum[l];
}

}  // namespace

void VisualSearcher::ScoreAllInto(const ColorHistogram& query,
                                  double* out) const {
  const size_t n = corpus_.size();
  size_t i = 0;
  if (kind_ != VisualSimilarity::kCosine) {
    for (; i + kLanes <= n; i += kLanes) {
      const ColorHistogram* entries = &corpus_[i];
      bool same_size = true;
      for (size_t l = 0; l < kLanes; ++l) {
        same_size = same_size && entries[l].size() == query.size();
      }
      if (!same_size) {
        for (size_t l = 0; l < kLanes; ++l) {
          out[i + l] = ComputeSimilarity(kind_, query, entries[l]);
        }
      } else if (kind_ == VisualSimilarity::kHistogramIntersection) {
        SumLanes(query, entries,
                 [](double a, double b) { return std::min(a, b); }, out + i);
      } else {
        SumLanes(query, entries,
                 [](double a, double b) { return std::fabs(a - b); },
                 out + i);
        for (size_t l = 0; l < kLanes; ++l) {
          out[i + l] = 1.0 / (1.0 + out[i + l]);
        }
      }
    }
  }
  for (; i < n; ++i) out[i] = ComputeSimilarity(kind_, query, corpus_[i]);
}

}  // namespace ivr
