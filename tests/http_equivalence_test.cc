// The serving contract of the HTTP front-end: a ranking served over
// ivr_httpd's wire format is bit-identical to the same session calling
// SessionManager directly — concurrently, cache-warm, and in degraded
// (fault-injected) mode. Scores cross the wire as %.17g text, which
// round-trips IEEE doubles exactly, so plain string comparison below IS
// bit comparison.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ivr/adaptive/adaptive_engine.h"
#include "ivr/cache/result_cache.h"
#include "ivr/core/fault_injection.h"
#include "ivr/core/string_util.h"
#include "ivr/net/http_client.h"
#include "ivr/net/http_server.h"
#include "ivr/net/json.h"
#include "ivr/net/service_handler.h"
#include "ivr/retrieval/engine.h"
#include "ivr/service/session_manager.h"
#include "ivr/video/generator.h"

namespace ivr {
namespace net {
namespace {

constexpr size_t kSessions = 6;
constexpr size_t kQueries = 4;
constexpr size_t kTopK = 10;

std::string SessionId(size_t j) { return StrFormat("eq-s%zu", j); }

std::string QueryTextFor(const GeneratedCollection& g, size_t j, size_t q) {
  const auto& topics = g.topics.topics;
  return topics[(j * kQueries + q) % topics.size()].title;
}

/// The per-search feedback event both paths emit: a click on `shot` at a
/// deterministic time. Field-for-field what ServiceHandler decodes from
/// the JSON the HTTP path sends.
InteractionEvent ClickEvent(const std::string& session_id, ShotId shot,
                            size_t j, size_t q) {
  InteractionEvent event;
  event.type = EventType::kClickKeyframe;
  event.session_id = session_id;
  event.shot = shot;
  event.time = static_cast<TimeMs>(j * 100 + q);
  return event;
}

/// Drives session j's whole lifecycle over HTTP and returns its ranking
/// signature: one "q<i> shot:score ..." line per query.
std::string DriveSessionHttp(HttpClient* client,
                             const GeneratedCollection& g, size_t j) {
  const std::string session_id = SessionId(j);
  Result<HttpClientResponse> response = client->Post(
      "/v1/session/open",
      StrFormat("{\"session_id\": %s}", JsonQuote(session_id).c_str()));
  EXPECT_TRUE(response.ok() && response->status == 200);
  std::string signature;
  for (size_t q = 0; q < kQueries; ++q) {
    response = client->Post(
        "/v1/search",
        StrFormat("{\"session_id\": %s, \"query\": {\"text\": %s}, "
                  "\"k\": %zu}",
                  JsonQuote(session_id).c_str(),
                  JsonQuote(QueryTextFor(g, j, q)).c_str(), kTopK));
    if (!response.ok() || response->status != 200) {
      ADD_FAILURE() << "search failed: "
                    << (response.ok() ? response->body
                                      : response.status().ToString());
      return signature;
    }
    const Result<JsonValue> body = JsonValue::Parse(response->body);
    EXPECT_TRUE(body.ok());
    std::string line = StrFormat("q%zu", q);
    long long top_shot = -1;
    const JsonValue* results = body->Find("results");
    if (results != nullptr) {
      for (const JsonValue& entry : results->items()) {
        const unsigned shot =
            static_cast<unsigned>(entry.Find("shot")->number_value());
        if (top_shot < 0) top_shot = shot;
        line += StrFormat(" %u:%.17g", shot,
                          entry.Find("score")->number_value());
      }
    }
    signature += line + "\n";
    if (top_shot >= 0) {
      response = client->Post(
          "/v1/feedback",
          StrFormat("{\"session_id\": %s, \"event\": "
                    "{\"type\": \"click_keyframe\", \"shot\": %lld, "
                    "\"time\": %zu}}",
                    JsonQuote(session_id).c_str(), top_shot,
                    j * 100 + q));
      EXPECT_TRUE(response.ok() && response->status == 200);
    }
  }
  response = client->Post(
      "/v1/session/close",
      StrFormat("{\"session_id\": %s}", JsonQuote(session_id).c_str()));
  EXPECT_TRUE(response.ok() && response->status == 200);
  return signature;
}

/// The same lifecycle via direct SessionManager calls.
std::string DriveSessionDirect(SessionManager* manager,
                               const GeneratedCollection& g, size_t j) {
  const std::string session_id = SessionId(j);
  EXPECT_TRUE(manager->BeginSession(session_id, "").ok());
  std::string signature;
  for (size_t q = 0; q < kQueries; ++q) {
    Query query;
    query.text = QueryTextFor(g, j, q);
    const Result<ResultList> results =
        manager->Search(session_id, query, kTopK);
    if (!results.ok()) {
      ADD_FAILURE() << results.status().ToString();
      return signature;
    }
    std::string line = StrFormat("q%zu", q);
    for (const RankedShot& entry : results->items()) {
      line += StrFormat(" %u:%.17g", static_cast<unsigned>(entry.shot),
                        entry.score);
    }
    signature += line + "\n";
    if (results->size() > 0) {
      EXPECT_TRUE(
          manager
              ->ObserveEvent(session_id,
                             ClickEvent(session_id, results->at(0).shot, j,
                                        q))
              .ok());
    }
  }
  EXPECT_TRUE(manager->EndSession(session_id).ok());
  return signature;
}

/// Runs every session over HTTP on `threads` client threads (each session
/// driven end to end by one thread) and returns signatures in session
/// order.
std::vector<std::string> RunHttpWorkload(int port,
                                         const GeneratedCollection& g,
                                         size_t threads) {
  std::vector<std::string> signatures(kSessions);
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
    for (size_t j = next++; j < kSessions; j = next++) {
      signatures[j] = DriveSessionHttp(&client, g, j);
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  return signatures;
}

std::vector<std::string> RunDirectWorkload(SessionManager* manager,
                                           const GeneratedCollection& g) {
  std::vector<std::string> signatures(kSessions);
  for (size_t j = 0; j < kSessions; ++j) {
    signatures[j] = DriveSessionDirect(manager, g, j);
  }
  return signatures;
}

class HttpEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.seed = 2008;
    options.num_videos = 8;
    options.num_topics = 5;
    g_ = new GeneratedCollection(GenerateCollection(options).value());
    engine_ = RetrievalEngine::Build(g_->collection).value().release();
    adaptive_ = new AdaptiveEngine(*engine_, AdaptiveOptions(), nullptr);
  }

  /// Serves `manager` on an ephemeral port; returns the port.
  int Serve(SessionManager* manager) {
    handler_ = std::make_unique<ServiceHandler>(manager);
    HttpServerOptions options;
    options.num_workers = 3;
    server_ = std::make_unique<HttpServer>(
        options, [this](const HttpRequest& request) {
          return handler_->Handle(request);
        });
    EXPECT_TRUE(server_->Start().ok());
    return server_->port();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    FaultInjector::Global().Disable();
  }

  static GeneratedCollection* g_;
  static RetrievalEngine* engine_;
  static AdaptiveEngine* adaptive_;
  std::unique_ptr<ServiceHandler> handler_;
  std::unique_ptr<HttpServer> server_;
};

GeneratedCollection* HttpEquivalenceTest::g_ = nullptr;
RetrievalEngine* HttpEquivalenceTest::engine_ = nullptr;
AdaptiveEngine* HttpEquivalenceTest::adaptive_ = nullptr;

TEST_F(HttpEquivalenceTest, ConcurrentHttpMatchesDirectBitForBit) {
  SessionManager http_manager(*adaptive_, SessionManagerOptions());
  const int port = Serve(&http_manager);
  const std::vector<std::string> http_sigs =
      RunHttpWorkload(port, *g_, /*threads=*/3);

  SessionManager direct_manager(*adaptive_, SessionManagerOptions());
  const std::vector<std::string> direct_sigs =
      RunDirectWorkload(&direct_manager, *g_);

  for (size_t j = 0; j < kSessions; ++j) {
    EXPECT_FALSE(http_sigs[j].empty());
    EXPECT_EQ(http_sigs[j], direct_sigs[j]) << "session " << j;
  }
}

TEST_F(HttpEquivalenceTest, CacheWarmServingStaysBitIdentical) {
  // A dedicated engine so the shared result cache is this test's own:
  // the concurrent HTTP run warms it, the direct run then serves from it.
  auto cached_engine = RetrievalEngine::Build(g_->collection).value();
  ResultCacheOptions cache_options;
  cache_options.max_bytes = 4u << 20;
  auto cache = std::make_shared<ResultCache>(cache_options);
  cached_engine->AttachCache(cache);
  const AdaptiveEngine adaptive(*cached_engine, AdaptiveOptions(), nullptr);

  SessionManager http_manager(adaptive, SessionManagerOptions());
  const int port = Serve(&http_manager);
  const std::vector<std::string> http_sigs =
      RunHttpWorkload(port, *g_, /*threads=*/3);
  EXPECT_GT(cache->Stats().entries, 0u);

  SessionManager direct_manager(adaptive, SessionManagerOptions());
  const std::vector<std::string> direct_sigs =
      RunDirectWorkload(&direct_manager, *g_);

  for (size_t j = 0; j < kSessions; ++j) {
    EXPECT_FALSE(http_sigs[j].empty());
    EXPECT_EQ(http_sigs[j], direct_sigs[j]) << "cache-warm session " << j;
  }
}

TEST_F(HttpEquivalenceTest, DegradedModalityServingMatchesOverHttp) {
  // Sequential on both sides with the injector re-armed (same spec, same
  // seed) between phases: per-site fault ordinals reset, so consult #n of
  // "adaptive.feedback" (the degradation site on the serving path — a
  // faulted feedback backend serves the unexpanded query) fires
  // identically in both runs, and even the DEGRADED rankings must match
  // bit for bit. Uses the uncached engine so the ranking work itself is
  // recomputed, not replayed.
  constexpr const char* kSpec = "adaptive.feedback:0.4";
  constexpr uint64_t kSeed = 99;

  ASSERT_TRUE(FaultInjector::Global().Configure(kSpec, kSeed).ok());
  SessionManager http_manager(*adaptive_, SessionManagerOptions());
  const int port = Serve(&http_manager);
  const std::vector<std::string> http_sigs =
      RunHttpWorkload(port, *g_, /*threads=*/1);
  server_->Stop();
  server_.reset();
  EXPECT_GT(FaultInjector::Global().num_injected(), 0u)
      << "fault spec never fired; the degraded case was not exercised\n"
      << FaultInjector::Global().Summary();

  ASSERT_TRUE(FaultInjector::Global().Configure(kSpec, kSeed).ok());
  SessionManager direct_manager(*adaptive_, SessionManagerOptions());
  const std::vector<std::string> direct_sigs =
      RunDirectWorkload(&direct_manager, *g_);
  FaultInjector::Global().Disable();

  for (size_t j = 0; j < kSessions; ++j) {
    EXPECT_EQ(http_sigs[j], direct_sigs[j]) << "degraded session " << j;
  }
}

/// One search over HTTP, rendered "shot:score ..." (%.17g).
std::string SearchOverHttp(HttpClient* client, const std::string& session,
                           const std::string& query_json, size_t k) {
  const Result<HttpClientResponse> response = client->Post(
      "/v1/search",
      StrFormat("{\"session_id\": %s, \"query\": %s, \"k\": %zu}",
                JsonQuote(session).c_str(), query_json.c_str(), k));
  if (!response.ok() || response->status != 200) {
    ADD_FAILURE() << "search failed: "
                  << (response.ok() ? response->body
                                    : response.status().ToString());
    return "";
  }
  const Result<JsonValue> body = JsonValue::Parse(response->body);
  EXPECT_TRUE(body.ok());
  std::string out;
  for (const JsonValue& entry : body->Find("results")->items()) {
    out += StrFormat("%u:%.17g ",
                     static_cast<unsigned>(entry.Find("shot")->number_value()),
                     entry.Find("score")->number_value());
  }
  return out;
}

std::string Render(const ResultList& list) {
  std::string out;
  for (const RankedShot& r : list.items()) {
    out += StrFormat("%u:%.17g ", r.shot, r.score);
  }
  return out;
}

TEST_F(HttpEquivalenceTest, ConceptQueriesAreFusedOverHttpAndDirect) {
  // Sessions serve concept evidence exactly as RetrievalEngine::Search
  // does: fused at concept_weight when the engine has a concept index.
  EngineOptions options;
  options.use_concepts = true;
  auto engine = RetrievalEngine::Build(g_->collection, options).value();
  const AdaptiveEngine adaptive(*engine, AdaptiveOptions(), nullptr);
  SessionManager manager(adaptive, SessionManagerOptions());
  const int port = Serve(&manager);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(manager.BeginSession("c", "").ok());

  const std::vector<ConceptId> concepts = {1, 3};
  const std::string title = g_->topics.topics[0].title;
  Query concepts_only;
  concepts_only.concepts = concepts;
  Query fused;
  fused.text = title;
  fused.concepts = concepts;
  Query text_only;
  text_only.text = title;

  const std::string over_http =
      SearchOverHttp(&client, "c", "{\"concepts\": [1, 3]}", kTopK);
  const ResultList direct = manager.Search("c", concepts_only, kTopK).value();
  ASSERT_GT(direct.size(), 0u) << "concepts-only query served empty";
  EXPECT_EQ(over_http, Render(direct));
  EXPECT_EQ(Render(direct), Render(engine->Search(concepts_only, kTopK)));

  const std::string fused_http = SearchOverHttp(
      &client, "c",
      StrFormat("{\"text\": %s, \"concepts\": [1, 3]}",
                JsonQuote(title).c_str()),
      kTopK);
  const ResultList fused_direct = manager.Search("c", fused, kTopK).value();
  EXPECT_EQ(fused_http, Render(fused_direct));
  EXPECT_EQ(Render(fused_direct), Render(engine->Search(fused, kTopK)));
  EXPECT_NE(Render(fused_direct),
            Render(manager.Search("c", text_only, kTopK).value()))
      << "concept evidence did not move the fused ranking";
  EXPECT_EQ(engine->Health().concepts_dropped, 0u);
  EXPECT_EQ(engine->num_degraded_queries(), 0u);
}

TEST_F(HttpEquivalenceTest, ConceptQueriesWithoutAConceptIndexAreCounted) {
  // No concept index: the concept modality is dropped, counted in
  // concepts_dropped and marked degraded — never silently ignored.
  auto engine = RetrievalEngine::Build(g_->collection).value();
  const AdaptiveEngine adaptive(*engine, AdaptiveOptions(), nullptr);
  SessionManager manager(adaptive, SessionManagerOptions());
  const int port = Serve(&manager);
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(manager.BeginSession("d", "").ok());

  EXPECT_EQ(SearchOverHttp(&client, "d", "{\"concepts\": [2]}", kTopK), "");
  EXPECT_EQ(engine->Health().concepts_dropped, 1u);
  EXPECT_EQ(engine->num_degraded_queries(), 1u);

  Query concepts_only;
  concepts_only.concepts = {2};
  EXPECT_EQ(manager.Search("d", concepts_only, kTopK).value().size(), 0u);
  EXPECT_EQ(engine->Health().concepts_dropped, 2u);
  EXPECT_EQ(engine->num_degraded_queries(), 2u);

  // Text still answers; the dropped concepts leave it unchanged.
  const std::string title = g_->topics.topics[0].title;
  Query text_only;
  text_only.text = title;
  Query with_concepts = text_only;
  with_concepts.concepts = {2};
  const std::string over_http = SearchOverHttp(
      &client, "d",
      StrFormat("{\"text\": %s, \"concepts\": [2]}",
                JsonQuote(title).c_str()),
      kTopK);
  EXPECT_EQ(over_http,
            Render(manager.Search("d", with_concepts, kTopK).value()));
  EXPECT_EQ(over_http, Render(manager.Search("d", text_only, kTopK).value()));
  EXPECT_EQ(engine->Health().concepts_dropped, 4u);
  EXPECT_EQ(engine->num_degraded_queries(), 4u);
}

}  // namespace
}  // namespace net
}  // namespace ivr
