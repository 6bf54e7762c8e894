#include "ivr/adaptive/adaptive_engine.h"

#include <utility>

#include "ivr/core/fault_injection.h"
#include "ivr/core/logging.h"
#include "ivr/obs/trace.h"

namespace ivr {
namespace {

std::shared_ptr<const WeightingScheme> ResolveScheme(
    const std::string& name) {
  std::shared_ptr<const WeightingScheme> scheme = MakeWeightingScheme(name);
  if (scheme == nullptr) {
    // Unknown name: fall back to the linear default rather than failing a
    // constructor; callers can always inject explicitly.
    scheme = std::make_shared<LinearWeighting>();
  }
  return scheme;
}

}  // namespace

AdaptiveEngine::AdaptiveEngine(const RetrievalEngine& engine,
                               AdaptiveOptions options,
                               const UserProfile* profile)
    : AdaptiveEngine(engine, std::move(options),
                     profile == nullptr
                         ? std::shared_ptr<const UserProfile>()
                         : std::make_shared<const UserProfile>(*profile)) {}

AdaptiveEngine::AdaptiveEngine(const RetrievalEngine& engine,
                               AdaptiveOptions options,
                               std::shared_ptr<const UserProfile> profile)
    : engine_(&engine),
      options_(std::move(options)),
      profile_(std::move(profile)) {
  scheme_ = ResolveScheme(options_.weighting_scheme);
  obs::Registry& registry = obs::Registry::Global();
  metrics_.searches = registry.GetCounter("adaptive.searches");
  metrics_.feedback_expansions =
      registry.GetCounter("adaptive.feedback_expansions");
  metrics_.feedback_skipped =
      registry.GetCounter("adaptive.feedback_skipped");
  metrics_.profile_reranks = registry.GetCounter("adaptive.profile_reranks");
  metrics_.profile_reranks_skipped =
      registry.GetCounter("adaptive.profile_reranks_skipped");
  metrics_.implicit_session_opens =
      registry.GetCounter("adaptive.implicit_session_opens");
  metrics_.search_us = registry.GetHistogram("adaptive.search_us");
  for (size_t i = 0; i < kNumEventTypes; ++i) {
    metrics_.events[i] = registry.GetCounter(
        "adaptive.events." +
        std::string(EventTypeName(static_cast<EventType>(i))));
  }
}

void AdaptiveEngine::SetWeightingScheme(const WeightingScheme* scheme) {
  if (scheme != nullptr) {
    // Legacy non-owning injection: alias with a no-op deleter; the caller
    // guarantees the scheme outlives the engine.
    scheme_ = std::shared_ptr<const WeightingScheme>(
        scheme, [](const WeightingScheme*) {});
  }
}

void AdaptiveEngine::SetWeightingScheme(
    std::shared_ptr<const WeightingScheme> scheme) {
  if (scheme != nullptr) scheme_ = std::move(scheme);
}

SessionContext AdaptiveEngine::MakeContext(std::string session_id,
                                           std::string user_id) const {
  SessionContext ctx;
  ctx.session_id = std::move(session_id);
  ctx.user_id = std::move(user_id);
  ctx.open = true;
  return ctx;
}

void AdaptiveEngine::BeginSession(SessionContext* ctx) const {
  ctx->Reset();
}

void AdaptiveEngine::ObserveEvent(SessionContext* ctx,
                                  const InteractionEvent& event) const {
  const size_t type = static_cast<size_t>(event.type);
  if (type < kNumEventTypes) metrics_.events[type]->Inc();
  ctx->events.push_back(event);
}

std::vector<RelevanceEvidence> AdaptiveEngine::CurrentEvidence(
    const SessionContext& ctx) const {
  ImplicitRelevanceEstimator::Options opts;
  opts.use_ostensive = options_.use_ostensive;
  opts.ostensive_half_life_ms = options_.ostensive_half_life_ms;
  const ImplicitRelevanceEstimator estimator(SchemeFor(ctx), opts);
  const RetrievalEngine* engine = engine_;
  return estimator.Estimate(
      ctx.events,
      ShotLookup([engine](ShotId id) { return engine->FindShot(id); }));
}

const std::vector<RelevanceEvidence>& AdaptiveEngine::CachedEvidence(
    SessionContext* ctx) const {
  if (ctx->evidence_events != ctx->events.size()) {
    ctx->evidence_cache = CurrentEvidence(*ctx);
    ctx->evidence_events = ctx->events.size();
  }
  return ctx->evidence_cache;
}

void AdaptiveEngine::EvidenceToFeedbackDocs(
    const std::vector<RelevanceEvidence>& evidence,
    std::vector<FeedbackDoc>* positive,
    std::vector<FeedbackDoc>* negative) const {
  for (const RelevanceEvidence& e : evidence) {
    const std::string text = engine_->IndexedText(e.shot);
    if (text.empty()) continue;
    if (e.weight > 0.0) {
      positive->push_back(FeedbackDoc{text, e.weight});
    } else if (e.weight < 0.0) {
      negative->push_back(FeedbackDoc{text, -e.weight});
    }
  }
}

ResultList AdaptiveEngine::Search(SessionContext* ctx, const Query& query,
                                  size_t k) const {
  obs::ScopedSpan span("adaptive.search");
  const obs::Stopwatch total;
  metrics_.searches->Inc();
  FusionRequest request;
  request.candidate_pool = options_.candidate_pool;
  FaultInjector& faults = FaultInjector::Global();
  TermQuery terms;
  if (query.HasText()) {
    terms = engine_->ParseText(query.text);
    if (options_.use_implicit) {
      // A faulted feedback backend degrades to the unexpanded query —
      // the user still gets an answer, just a non-adapted one.
      if (faults.enabled() && faults.ShouldFail("adaptive.feedback")) {
        ++ctx->feedback_skipped;
        metrics_.feedback_skipped->Inc();
      } else {
        std::vector<FeedbackDoc> positive;
        std::vector<FeedbackDoc> negative;
        EvidenceToFeedbackDocs(CachedEvidence(ctx), &positive, &negative);
        if (!positive.empty() || !negative.empty()) {
          terms = RocchioExpand(terms, positive, negative,
                                engine_->analyzer(), options_.rocchio);
          metrics_.feedback_expansions->Inc();
          span.Annotate("expanded", "true");
        }
      }
    }
    request.text = &terms;
  }
  request.examples = &query.examples;
  request.concepts = &query.concepts;
  if (!query.HasText() && !query.HasExamples() && !query.HasConcepts()) {
    metrics_.search_us->Record(total.ElapsedUs());
    return ResultList();
  }

  const UserProfile* profile = ProfileFor(*ctx);
  if (options_.use_profile && profile != nullptr) {
    if (faults.enabled() && faults.ShouldFail("adaptive.profile")) {
      ++ctx->profile_reranks_skipped;
      metrics_.profile_reranks_skipped->Inc();
    } else {
      const RetrievalEngine* engine = engine_;
      request.rerank_lambda = options_.profile_lambda;
      request.affinity = [engine, affinity = ProfileAffinity(*profile)](
                             ShotId id) {
        const Shot* shot = engine->FindShot(id);
        return shot == nullptr ? 0.0 : affinity(*shot);
      };
      metrics_.profile_reranks->Inc();
    }
  }
  FusedRanking fused = engine_->FuseAndRank(request, k);
  if (fused.degraded) span.Annotate("degraded", "true");
  metrics_.search_us->Record(total.ElapsedUs());
  return std::move(fused.results);
}

HealthReport AdaptiveEngine::Health(const SessionContext& ctx) const {
  HealthReport report = engine_->Health();
  report.profile_available =
      !options_.use_profile || ProfileFor(ctx) != nullptr;
  report.feedback_skipped = ctx.feedback_skipped;
  report.profile_reranks_skipped = ctx.profile_reranks_skipped;
  return report;
}

// --- SearchBackend compatibility adapter ---

ResultList AdaptiveEngine::Search(const Query& query, size_t k) {
  return Search(&bound_, query, k);
}

void AdaptiveEngine::BeginSession() { BeginSession(&bound_); }

void AdaptiveEngine::ObserveEvent(const InteractionEvent& event) {
  if (!bound_.open) {
    // The pre-refactor engine silently accumulated such events into
    // whatever state was lying around. Opening explicitly keeps the event
    // (callers relied on that) but makes the lifecycle violation visible.
    IVR_LOG(Warning) << "ObserveEvent before BeginSession on '" << name()
                     << "': implicitly opening a fresh session";
    ++implicit_session_opens_;
    metrics_.implicit_session_opens->Inc();
    BeginSession(&bound_);
  }
  ObserveEvent(&bound_, event);
}

std::string AdaptiveEngine::name() const {
  std::string n = "adaptive";
  if (options_.use_implicit) {
    n += "+implicit(" + SchemeFor(bound_).name() + ")";
  }
  if (options_.use_profile) n += "+profile";
  if (options_.use_ostensive) n += "+ostensive";
  if (!options_.use_implicit && !options_.use_profile) n += "(passthrough)";
  return n;
}

}  // namespace ivr
