// E10 — Engine micro-costs (framework viability).
//
// The paper's Section 3 framework must answer queries, absorb feedback
// and re-rank at interactive rates to be usable from a desktop UI or an
// iTV box. These google-benchmark timings regenerate the cost table:
// index construction, query latency vs query length, visual kNN search,
// Rocchio expansion, feedback-adapted search, and metric computation.
//
// Expected shape: queries and feedback updates complete in well under a
// frame budget (milliseconds) on the standard collection; adaptation
// overhead is a small multiple of plain search, not orders of magnitude.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ivr/obs/metrics.h"
#include "ivr/obs/trace.h"
#include "ivr/profile/profile_reranker.h"
#include "ivr/retrieval/rocchio.h"

namespace ivr {
namespace bench {
namespace {

// Shared fixtures, built once (function-local static: benchmarks must not
// regenerate the collection per iteration).
const GeneratedCollection& Fixture() {
  static const GeneratedCollection& g =
      *new GeneratedCollection(MustGenerate(StandardCollectionOptions()));
  return g;
}

const RetrievalEngine& Engine() {
  static const RetrievalEngine& engine =
      *MustBuildEngine(Fixture().collection).release();
  return engine;
}

void BM_CollectionGeneration(benchmark::State& state) {
  GeneratorOptions options = StandardCollectionOptions();
  for (auto _ : state) {
    options.seed++;
    benchmark::DoNotOptimize(MustGenerate(options));
  }
}
BENCHMARK(BM_CollectionGeneration)->Unit(benchmark::kMillisecond);

void BM_IndexBuild(benchmark::State& state) {
  const GeneratedCollection& g = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustBuildEngine(g.collection));
  }
  state.counters["shots"] =
      static_cast<double>(g.collection.num_shots());
}
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMillisecond);

void BM_TextQuery(benchmark::State& state) {
  const GeneratedCollection& g = Fixture();
  const RetrievalEngine& engine = Engine();
  // Query length sweep: 1..8 terms drawn from a topic description.
  const std::vector<std::string> words =
      SplitWhitespace(g.topics.topics[0].description);
  std::string text;
  for (int64_t i = 0; i < state.range(0); ++i) {
    if (i > 0) text += " ";
    text += words[static_cast<size_t>(i) % words.size()];
  }
  Query query;
  query.text = text;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Search(query, 200));
  }
}
BENCHMARK(BM_TextQuery)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMicrosecond);

void BM_BatchSearch(benchmark::State& state) {
  // Sweep-style batched retrieval: every topic title answered at once,
  // fanned out over range(0) workers. Single- vs multi-threaded QPS is
  // the headline number for parallel topic sweeps.
  const GeneratedCollection& g = Fixture();
  const RetrievalEngine& engine = Engine();
  std::vector<Query> queries;
  for (int repeat = 0; repeat < 10; ++repeat) {
    for (const SearchTopic& topic : g.topics.topics) {
      Query query;
      query.text = topic.title;
      queries.push_back(std::move(query));
    }
  }
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.BatchSearch(queries, 200, threads));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_BatchSearch)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_VisualQuery(benchmark::State& state) {
  const GeneratedCollection& g = Fixture();
  const RetrievalEngine& engine = Engine();
  Query query;
  query.examples = g.topics.topics[0].examples;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Search(query, 200));
  }
}
BENCHMARK(BM_VisualQuery)->Unit(benchmark::kMicrosecond);

void BM_FusedSearch(benchmark::State& state) {
  // Text + 2 visual examples at k=200 over the default 1000-entry pool,
  // uncached: the flat fuse-and-rank pass. Arg 1 adds the profile
  // re-rank (AdaptiveEngine::Search with a registered profile).
  const GeneratedCollection& g = Fixture();
  const RetrievalEngine& engine = Engine();
  const SearchTopic& topic = g.topics.topics[0];
  Query query;
  query.text = topic.title;
  query.examples = {topic.examples.at(0), topic.examples.at(1)};
  UserProfile profile("micro");
  profile.SetInterest(topic.target_topic, 1.0);
  AdaptiveOptions options;
  options.use_implicit = false;
  options.use_profile = true;
  options.candidate_pool = engine.options().candidate_pool;
  const AdaptiveEngine adaptive(engine, options, &profile);
  SessionContext ctx = adaptive.MakeContext("micro", "micro");
  for (auto _ : state) {
    if (state.range(0) == 0) {
      benchmark::DoNotOptimize(engine.Search(query, 200));
    } else {
      benchmark::DoNotOptimize(adaptive.Search(&ctx, query, 200));
    }
  }
}
BENCHMARK(BM_FusedSearch)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_ProfileRerank(benchmark::State& state) {
  // The list-at-a-time re-rank (the reference the fused pass matches):
  // RerankWithProfile over a 1000-entry list, then the top 200.
  const GeneratedCollection& g = Fixture();
  const RetrievalEngine& engine = Engine();
  const SearchTopic& topic = g.topics.topics[0];
  const ResultList list = engine.SearchVisual(topic.examples.at(0), 1000);
  UserProfile profile("micro");
  profile.SetInterest(topic.target_topic, 1.0);
  const ShotLookup lookup = [&engine](ShotId id) {
    return engine.FindShot(id);
  };
  for (auto _ : state) {
    ResultList reranked = RerankWithProfile(list, profile, lookup);
    reranked.Truncate(200);
    benchmark::DoNotOptimize(reranked);
  }
  state.counters["entries"] = static_cast<double>(list.size());
}
BENCHMARK(BM_ProfileRerank)->Unit(benchmark::kMicrosecond);

void BM_RocchioExpansion(benchmark::State& state) {
  const GeneratedCollection& g = Fixture();
  const RetrievalEngine& engine = Engine();
  const TermQuery original = engine.ParseText(g.topics.topics[0].title);
  std::vector<FeedbackDoc> positive;
  for (int64_t i = 0; i < state.range(0); ++i) {
    positive.push_back(FeedbackDoc{
        engine.IndexedText(static_cast<ShotId>(i)), 1.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RocchioExpand(original, positive, {},
                                           engine.analyzer()));
  }
}
BENCHMARK(BM_RocchioExpansion)->Arg(3)->Arg(10)->Arg(30)->Unit(
    benchmark::kMicrosecond);

void BM_AdaptedSearch(benchmark::State& state) {
  // Full adaptive round: feedback from `range` engaged shots, then an
  // expanded + reranked query — what one SubmitQuery costs mid-session.
  const GeneratedCollection& g = Fixture();
  const RetrievalEngine& engine = Engine();
  const SearchTopic& topic = g.topics.topics[0];
  UserProfile profile("micro");
  profile.SetInterest(topic.target_topic, 1.0);
  AdaptiveOptions options;
  options.use_profile = true;
  AdaptiveEngine adaptive(engine, options, &profile);
  adaptive.BeginSession();
  const std::vector<ShotId> relevant =
      g.qrels.RelevantShots(topic.id, 2);
  for (int64_t i = 0; i < state.range(0); ++i) {
    InteractionEvent click;
    click.time = i * 1000;
    click.type = EventType::kClickKeyframe;
    click.shot = relevant[static_cast<size_t>(i) % relevant.size()];
    adaptive.ObserveEvent(click);
    InteractionEvent play;
    play.time = i * 1000 + 500;
    play.type = EventType::kPlayStop;
    play.shot = click.shot;
    play.value = 9000.0;
    adaptive.ObserveEvent(play);
  }
  Query query;
  query.text = topic.title;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adaptive.Search(query, 200));
  }
}
BENCHMARK(BM_AdaptedSearch)->Arg(0)->Arg(5)->Arg(20)->Unit(
    benchmark::kMicrosecond);

void BM_ObserveEvent(benchmark::State& state) {
  const RetrievalEngine& engine = Engine();
  AdaptiveEngine adaptive(engine, AdaptiveOptions(), nullptr);
  InteractionEvent ev;
  ev.type = EventType::kClickKeyframe;
  ev.shot = 1;
  for (auto _ : state) {
    adaptive.ObserveEvent(ev);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObserveEvent);

void BM_MetricsComputation(benchmark::State& state) {
  const GeneratedCollection& g = Fixture();
  const RetrievalEngine& engine = Engine();
  Query query;
  query.text = g.topics.topics[0].title;
  const ResultList run = engine.Search(query, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeTopicMetrics(run, g.qrels, g.topics.topics[0].id));
  }
}
BENCHMARK(BM_MetricsComputation)->Unit(benchmark::kMicrosecond);

// E-O1 — observability primitive costs. These bound what the registry
// instrumentation can cost per call site: a cached-pointer counter
// increment and a histogram record are the two hot-path operations the
// engine/adaptive/service layers perform per query, and a span on a
// disabled recorder is what every traced region pays when --trace is not
// given. Under -DIVR_OBS_OFF=ON all three compile to (near) nothing.
void BM_MetricsCounterInc(benchmark::State& state) {
  obs::Counter* counter =
      obs::Registry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Inc();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterInc);

void BM_HistogramRecord(benchmark::State& state) {
  obs::LatencyHistogram* histogram =
      obs::Registry::Global().GetHistogram("bench.histogram");
  int64_t value = 1;
  for (auto _ : state) {
    histogram->Record(value);
    value = (value * 7) & 0xFFFFF;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

void BM_StopwatchRead(benchmark::State& state) {
  // A full Stopwatch round trip (ctor + ElapsedUs): two clock reads
  // through the injectable-clock indirection — the dominant per-site
  // cost of latency instrumentation. A no-op under IVR_OBS_OFF.
  for (auto _ : state) {
    const obs::Stopwatch watch;
    benchmark::DoNotOptimize(watch.ElapsedUs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StopwatchRead);

void BM_ScopedSpanDisabled(benchmark::State& state) {
  // The recorder is off (nobody passed --trace): the span constructor
  // must bail on the enabled check without touching the clock.
  for (auto _ : state) {
    obs::ScopedSpan span("bench.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ScopedSpanDisabled);

void BM_SimulatedSession(benchmark::State& state) {
  const GeneratedCollection& g = Fixture();
  const RetrievalEngine& engine = Engine();
  StaticBackend backend(engine);
  SessionSimulator simulator(g.collection, g.qrels);
  uint64_t seed = 1;
  for (auto _ : state) {
    SessionSimulator::RunConfig config;
    config.seed = seed++;
    benchmark::DoNotOptimize(simulator.Run(&backend, g.topics.topics[0],
                                           NoviceUser(), config, nullptr));
  }
}
BENCHMARK(BM_SimulatedSession)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ivr

BENCHMARK_MAIN();
