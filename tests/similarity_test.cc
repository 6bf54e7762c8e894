#include "ivr/features/similarity.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace ivr {
namespace {

std::vector<ColorHistogram> MakeCorpus(Rng* rng, size_t n) {
  std::vector<ColorHistogram> corpus;
  for (size_t i = 0; i < n; ++i) {
    corpus.push_back(ColorHistogram::RandomPrototype(rng));
  }
  return corpus;
}

TEST(VisualSearcherTest, ExactMatchRanksFirst) {
  Rng rng(1);
  const auto corpus = MakeCorpus(&rng, 20);
  const VisualSearcher searcher(corpus);
  const auto nn = searcher.NearestNeighbors(corpus[7], 5);
  ASSERT_FALSE(nn.empty());
  EXPECT_EQ(nn[0].index, 7u);
  EXPECT_NEAR(nn[0].score, 1.0, 1e-9);
}

TEST(VisualSearcherTest, ScoresDescendAndRespectK) {
  Rng rng(2);
  const auto corpus = MakeCorpus(&rng, 30);
  const VisualSearcher searcher(corpus);
  const auto nn = searcher.NearestNeighbors(corpus[0], 10);
  EXPECT_EQ(nn.size(), 10u);
  for (size_t i = 1; i < nn.size(); ++i) {
    EXPECT_GE(nn[i - 1].score, nn[i].score);
  }
}

TEST(VisualSearcherTest, KLargerThanCorpusReturnsAll) {
  Rng rng(3);
  const auto corpus = MakeCorpus(&rng, 4);
  const VisualSearcher searcher(corpus);
  EXPECT_EQ(searcher.NearestNeighbors(corpus[0], 100).size(), 4u);
}

TEST(VisualSearcherTest, EmptyCorpus) {
  const std::vector<ColorHistogram> corpus;
  const VisualSearcher searcher(corpus);
  Rng rng(4);
  const ColorHistogram q = ColorHistogram::RandomPrototype(&rng);
  EXPECT_TRUE(searcher.NearestNeighbors(q, 5).empty());
  EXPECT_TRUE(searcher.ScoreAll(q).empty());
}

TEST(VisualSearcherTest, ScoreAllAlignsWithCorpus) {
  Rng rng(5);
  const auto corpus = MakeCorpus(&rng, 10);
  const VisualSearcher searcher(corpus, VisualSimilarity::kCosine);
  const auto scores = searcher.ScoreAll(corpus[3]);
  ASSERT_EQ(scores.size(), 10u);
  EXPECT_NEAR(scores[3], 1.0, 1e-9);
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        scores[i],
        ComputeSimilarity(VisualSimilarity::kCosine, corpus[3], corpus[i]));
  }
}

TEST(VisualSearcherTest, ScoreAllIntoIsBitIdenticalToComputeSimilarity) {
  // The interleaved kernel must keep every entry's sum in bin order:
  // compare raw bits for each kind, a corpus that is not a multiple of
  // the lane count, and an odd-sized entry mid-block.
  Rng rng(7);
  std::vector<ColorHistogram> corpus = MakeCorpus(&rng, 37);
  corpus[10] = ColorHistogram(std::vector<double>(5, 0.2));
  const ColorHistogram query = ColorHistogram::RandomPrototype(&rng);
  for (const VisualSimilarity kind :
       {VisualSimilarity::kHistogramIntersection, VisualSimilarity::kCosine,
        VisualSimilarity::kInverseL1}) {
    const VisualSearcher searcher(corpus, kind);
    std::vector<double> scores(corpus.size());
    searcher.ScoreAllInto(query, scores.data());
    for (size_t i = 0; i < corpus.size(); ++i) {
      const double expected = ComputeSimilarity(kind, query, corpus[i]);
      EXPECT_EQ(std::memcmp(&scores[i], &expected, sizeof(double)), 0)
          << "kind " << static_cast<int>(kind) << " entry " << i;
    }
  }
}

TEST(ComputeSimilarityTest, AllKindsAgreeOnIdentity) {
  Rng rng(6);
  const ColorHistogram h = ColorHistogram::RandomPrototype(&rng);
  EXPECT_NEAR(ComputeSimilarity(VisualSimilarity::kHistogramIntersection,
                                h, h),
              1.0, 1e-9);
  EXPECT_NEAR(ComputeSimilarity(VisualSimilarity::kCosine, h, h), 1.0,
              1e-9);
  EXPECT_NEAR(ComputeSimilarity(VisualSimilarity::kInverseL1, h, h), 1.0,
              1e-9);
}

TEST(VisualSearcherTest, PerturbedQueryFindsItsPrototypeNeighborhood) {
  Rng rng(7);
  auto corpus = MakeCorpus(&rng, 8);
  // Add 10 perturbed variants of prototype 2 at indices 8..17.
  for (int i = 0; i < 10; ++i) {
    corpus.push_back(corpus[2].Perturb(&rng, 0.2));
  }
  const VisualSearcher searcher(corpus);
  const auto nn = searcher.NearestNeighbors(corpus[2].Perturb(&rng, 0.2),
                                            5);
  // The top neighbours should be from the prototype-2 cluster.
  size_t cluster_hits = 0;
  for (const Neighbor& n : nn) {
    if (n.index == 2 || n.index >= 8) ++cluster_hits;
  }
  EXPECT_GE(cluster_hits, 4u);
}

TEST(VisualSearcherTest, TieBreaksByIndex) {
  std::vector<ColorHistogram> corpus(3,
                                     ColorHistogram(std::vector<double>{
                                         0.5, 0.5}));
  const VisualSearcher searcher(corpus);
  const auto nn = searcher.NearestNeighbors(corpus[0], 3);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0].index, 0u);
  EXPECT_EQ(nn[1].index, 1u);
  EXPECT_EQ(nn[2].index, 2u);
}

}  // namespace
}  // namespace ivr
