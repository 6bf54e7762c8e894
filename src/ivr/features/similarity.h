#ifndef IVR_FEATURES_SIMILARITY_H_
#define IVR_FEATURES_SIMILARITY_H_

#include <cstddef>
#include <vector>

#include "ivr/features/histogram.h"

namespace ivr {

/// A scored neighbour returned by visual search.
struct Neighbor {
  size_t index = 0;     ///< position in the corpus passed to the searcher
  double score = 0.0;   ///< similarity in [0,1]; larger = more similar
};

/// Which similarity function visual search uses.
enum class VisualSimilarity {
  kHistogramIntersection,
  kCosine,
  kInverseL1,  ///< 1 / (1 + L1 distance)
};

double ComputeSimilarity(VisualSimilarity kind, const ColorHistogram& a,
                         const ColorHistogram& b);

/// Brute-force k-nearest-neighbour search over a histogram corpus. The
/// corpus reference must outlive the searcher. Linear scan is adequate for
/// the collection sizes the simulator generates (tens of thousands).
class VisualSearcher {
 public:
  explicit VisualSearcher(
      const std::vector<ColorHistogram>& corpus,
      VisualSimilarity kind = VisualSimilarity::kHistogramIntersection)
      : corpus_(corpus), kind_(kind) {}

  /// Returns the top-k most similar corpus entries to `query`, sorted by
  /// descending score (ties by ascending index).
  std::vector<Neighbor> NearestNeighbors(const ColorHistogram& query,
                                         size_t k) const;

  /// Scores every corpus entry against the query (index-aligned).
  std::vector<double> ScoreAll(const ColorHistogram& query) const;

  /// Same, into out[0..corpus size). Bit-identical to ComputeSimilarity
  /// per entry: each entry's sum runs in bin order, and several entries'
  /// independent sums are interleaved so they overlap in the pipeline.
  void ScoreAllInto(const ColorHistogram& query, double* out) const;

 private:
  const std::vector<ColorHistogram>& corpus_;
  VisualSimilarity kind_;
};

}  // namespace ivr

#endif  // IVR_FEATURES_SIMILARITY_H_
