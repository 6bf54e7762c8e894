// The flat fuse-and-rank pass (RetrievalEngine::FuseAndRank, behind both
// RetrievalEngine::Search and AdaptiveEngine::Search) must rank
// bit-identically — ids, order and %.17g scores — to the list-at-a-time
// reference it replaced:
//   WeightedLinear({SearchTerms, CombSum(SearchVisual per example),
//                   SearchConcepts}) -> RerankWithProfile -> Truncate(k)
// with a single modality's list taken unnormalised. Randomised queries
// sweep single-shard and segmented engines, pools below and above the
// corpus size, ties at the pool boundary, constant-score modalities,
// 0-3 examples, zero modality weights and profile lambdas 0, 0.3 and 1.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/cache/result_cache.h"
#include "ivr/core/rng.h"
#include "ivr/core/string_util.h"
#include "ivr/profile/profile_reranker.h"
#include "ivr/retrieval/engine.h"
#include "ivr/retrieval/fusion.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace {

std::shared_ptr<const GeneratedCollection> Generate(uint64_t seed,
                                                    size_t videos) {
  GeneratorOptions options;
  options.seed = seed;
  options.num_videos = videos;
  options.num_topics = 5;
  return std::make_shared<const GeneratedCollection>(
      GenerateCollection(options).value());
}

std::string Render(const ResultList& list) {
  std::string out;
  for (const RankedShot& r : list.items()) {
    out += StrFormat("%u:%.17g ", r.shot, r.score);
  }
  return out;
}

/// The list-at-a-time reference, built only from the public operators.
ResultList Reference(const RetrievalEngine& engine, const Query& query,
                     size_t pool, size_t k, const UserProfile* profile,
                     double lambda) {
  const EngineOptions& options = engine.options();
  std::vector<ResultList> lists;
  std::vector<double> weights;
  if (query.HasText()) {
    lists.push_back(engine.SearchTerms(engine.ParseText(query.text), pool));
    weights.push_back(options.text_weight);
  }
  if (query.HasExamples()) {
    std::vector<ResultList> visual;
    for (const ColorHistogram& example : query.examples) {
      visual.push_back(engine.SearchVisual(example, pool));
    }
    lists.push_back(CombSum(visual));
    weights.push_back(options.visual_weight);
  }
  if (query.HasConcepts()) {
    Result<ResultList> concepts = engine.SearchConcepts(query.concepts, pool);
    if (concepts.ok()) {
      lists.push_back(std::move(*concepts));
      weights.push_back(options.concept_weight);
    }
  }
  if (lists.empty()) return ResultList();
  ResultList fused =
      lists.size() == 1 ? lists.front() : WeightedLinear(lists, weights);
  if (profile != nullptr) {
    ProfileRerankOptions rerank;
    rerank.lambda = lambda;
    fused = RerankWithProfile(
        fused, *profile,
        ShotLookup([&engine](ShotId id) { return engine.FindShot(id); }),
        rerank);
  }
  fused.Truncate(k);
  return fused;
}

/// A single-shard engine over `base`, or a segmented one over base plus
/// `extra` (global ids continue where base ends).
std::unique_ptr<RetrievalEngine> MakeEngine(
    const std::shared_ptr<const GeneratedCollection>& base,
    const std::shared_ptr<const GeneratedCollection>& extra,
    const EngineOptions& options) {
  if (extra == nullptr) {
    return RetrievalEngine::Build(base->collection, options).value();
  }
  std::vector<std::shared_ptr<const SubIndex>> shards;
  ShotId offset = 0;
  for (const auto& part : {base, extra}) {
    std::shared_ptr<const VideoCollection> slice(part, &part->collection);
    shards.push_back(SubIndex::Build(slice, options, offset).value());
    offset += static_cast<ShotId>(part->collection.num_shots());
  }
  return RetrievalEngine::BuildSegmented(std::move(shards), options).value();
}

/// One randomised query: 0-3 words of topic-title text, 0-3 examples
/// (topic examples, perturbed keyframes, a one-bin histogram that ties
/// most shots at 0, or the all-zero histogram, a constant-score list),
/// and sometimes concepts.
Query RandomQuery(Rng* rng, const GeneratedCollection& data,
                  bool with_concepts) {
  Query query;
  const auto& topics = data.topics.topics;
  const SearchTopic& topic = topics[rng->UniformInt(0, topics.size() - 1)];
  const std::vector<std::string> words = Split(topic.title, ' ');
  const int64_t num_words = rng->UniformInt(0, 3);
  for (int64_t w = 0; w < num_words && !words.empty(); ++w) {
    if (!query.text.empty()) query.text += " ";
    query.text += words[rng->UniformInt(0, words.size() - 1)];
  }
  const int64_t num_examples = rng->UniformInt(0, 3);
  const auto& shots = data.collection.shots();
  for (int64_t e = 0; e < num_examples; ++e) {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        query.examples.push_back(
            topic.examples[rng->UniformInt(0, topic.examples.size() - 1)]);
        break;
      case 1:
        query.examples.push_back(
            shots[rng->UniformInt(0, shots.size() - 1)].keyframe.Perturb(
                rng, 0.05));
        break;
      case 2: {
        ColorHistogram spike;
        (*spike.mutable_bins())[rng->UniformInt(0, spike.size() - 1)] = 1.0;
        query.examples.push_back(spike);
        break;
      }
      default:
        query.examples.push_back(ColorHistogram());
        break;
    }
  }
  if (with_concepts && rng->UniformInt(0, 1) == 1) {
    const int64_t n = rng->UniformInt(1, 3);
    for (int64_t c = 0; c < n; ++c) {
      query.concepts.push_back(static_cast<ConceptId>(rng->UniformInt(0, 4)));
    }
  }
  return query;
}

UserProfile RandomProfile(Rng* rng) {
  UserProfile profile("u");
  const int64_t n = rng->UniformInt(1, 3);
  for (int64_t i = 0; i < n; ++i) {
    profile.SetInterest(static_cast<TopicLabel>(rng->UniformInt(0, 4)),
                        rng->Uniform(0.1, 2.0));
  }
  return profile;
}

struct Variant {
  const char* name;
  bool segmented;
  size_t pool;  // candidate pool of both the engine and the adaptive layer
  double text_weight;
  double visual_weight;
  bool concepts;
};

// Corpora: 246 shots single-shard, 404 segmented, so a pool of 20, 40 or
// 150 cuts into every modality and 100000 keeps all.
const Variant kVariants[] = {
    {"single-small-pool", false, 20, 0.75, 0.25, false},
    {"single-large-pool", false, 100000, 0.75, 0.25, false},
    {"segmented-small-pool", true, 20, 0.75, 0.25, true},
    {"segmented-mid-pool", true, 150, 0.6, 0.4, true},
    {"segmented-large-pool", true, 100000, 0.75, 0.25, true},
    {"text-weight-zero", true, 40, 0.0, 1.0, false},
    {"visual-weight-zero", false, 40, 1.0, 0.0, true},
};

class FusedRankPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = Generate(2008, 6);
    extra_ = Generate(31, 4);
  }

  std::unique_ptr<RetrievalEngine> Engine(const Variant& v) const {
    EngineOptions options;
    options.candidate_pool = v.pool;
    options.text_weight = v.text_weight;
    options.visual_weight = v.visual_weight;
    options.use_concepts = v.concepts;
    options.concept_weight = v.concepts ? 0.3 : 0.0;
    return MakeEngine(base_, v.segmented ? extra_ : nullptr, options);
  }

  static std::shared_ptr<const GeneratedCollection> base_;
  static std::shared_ptr<const GeneratedCollection> extra_;
};

std::shared_ptr<const GeneratedCollection> FusedRankPropertyTest::base_;
std::shared_ptr<const GeneratedCollection> FusedRankPropertyTest::extra_;

TEST_F(FusedRankPropertyTest, EngineSearchMatchesTheListReference) {
  for (const Variant& v : kVariants) {
    SCOPED_TRACE(v.name);
    const auto engine = Engine(v);
    Rng rng(17);
    for (int i = 0; i < 60; ++i) {
      const Query query = RandomQuery(&rng, *base_, true);
      const size_t k = static_cast<size_t>(rng.UniformInt(1, 250));
      ASSERT_EQ(Render(engine->Search(query, k)),
                Render(Reference(*engine, query, v.pool, k, nullptr, 0.0)))
          << "query " << i << " text '" << query.text << "' examples "
          << query.examples.size() << " concepts " << query.concepts.size();
    }
  }
}

TEST_F(FusedRankPropertyTest, AdaptiveSearchMatchesTheListReference) {
  const double kLambdas[] = {0.0, 0.3, 1.0};
  for (const Variant& v : kVariants) {
    SCOPED_TRACE(v.name);
    const auto engine = Engine(v);
    Rng rng(23);
    for (const double lambda : kLambdas) {
      AdaptiveOptions options;
      options.use_implicit = false;
      options.use_profile = true;
      options.profile_lambda = lambda;
      options.candidate_pool = v.pool;
      for (int i = 0; i < 40; ++i) {
        const UserProfile profile = RandomProfile(&rng);
        const AdaptiveEngine adaptive(*engine, options, &profile);
        SessionContext ctx = adaptive.MakeContext("s", "u");
        const Query query = RandomQuery(&rng, *base_, true);
        const size_t k = static_cast<size_t>(rng.UniformInt(1, 250));
        ASSERT_EQ(
            Render(adaptive.Search(&ctx, query, k)),
            Render(Reference(*engine, query, v.pool, k, &profile, lambda)))
            << "lambda " << lambda << " query " << i << " text '"
            << query.text << "' examples " << query.examples.size();
      }
    }
  }
}

TEST_F(FusedRankPropertyTest, CachedServingMatchesTheListReference) {
  // Cold then warm: the engine path serves F1 hits the second time, the
  // session path (no fused key) takes its text from T1 hits.
  const Variant& v = kVariants[3];
  const auto engine = Engine(v);
  engine->AttachCache(std::make_shared<ResultCache>(ResultCacheOptions()));
  AdaptiveOptions options;
  options.use_implicit = false;
  options.candidate_pool = v.pool;
  const AdaptiveEngine adaptive(*engine, options, nullptr);
  SessionContext ctx = adaptive.MakeContext("s", "u");
  const auto uncached = Engine(v);
  Rng rng(5);
  std::vector<Query> queries;
  for (int i = 0; i < 30; ++i) {
    queries.push_back(RandomQuery(&rng, *base_, true));
  }
  for (int round = 0; round < 2; ++round) {
    for (const Query& query : queries) {
      const std::string expected =
          Render(Reference(*uncached, query, v.pool, 50, nullptr, 0.0));
      ASSERT_EQ(Render(engine->Search(query, 50)), expected);
      ASSERT_EQ(Render(adaptive.Search(&ctx, query, 50)), expected);
    }
  }
}

TEST_F(FusedRankPropertyTest, ConcurrentCallersShareNoScratch) {
  // Threads alternate between engines of different sizes, so each
  // thread's flat scratch is regrown and re-stamped between queries.
  const auto small = Engine(kVariants[0]);
  const auto segmented = Engine(kVariants[3]);
  const RetrievalEngine* engines[] = {small.get(), segmented.get()};
  const size_t pools[] = {kVariants[0].pool, kVariants[3].pool};
  Rng rng(99);
  std::vector<Query> queries;
  std::vector<std::string> expected;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(RandomQuery(&rng, *base_, true));
    const size_t e = static_cast<size_t>(i % 2);
    expected.push_back(
        Render(Reference(*engines[e], queries.back(), pools[e], 30, nullptr,
                         0.0)));
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (i + static_cast<size_t>(t) * 7) % queries.size();
          if (Render(engines[q % 2]->Search(queries[q], 30)) != expected[q]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace ivr
