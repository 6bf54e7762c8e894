// The flat fuse-and-rank pass (RetrievalEngine::FuseAndRank).
//
// Bit-identity with the list-at-a-time reference rests on three facts:
//  * every per-shot floating-point operation happens in the reference's
//    order: examples in query order, modalities text -> visual -> concept,
//    and a fused or summed slot starts as `0.0 + x` like a fresh
//    unordered_map entry does;
//  * min-max bounds are order-free except between +0.0 and -0.0, where
//    std::min/max keep the first value seen. The reference walks a list
//    in rank order (score desc, id asc). Raw modality scores are walked
//    here in rank order (text, concepts) or ascending id order (visual),
//    which sees the same element of each equal-score group first; summed
//    slots start at 0.0 + x and are never -0.0;
//  * top-n selection uses the reference's strict total order (score desc,
//    id asc), so the selected set is unique and no sort order leaks in.

#include <algorithm>
#include <numeric>

#include "ivr/core/logging.h"
#include "ivr/obs/metrics.h"
#include "ivr/retrieval/engine.h"

namespace ivr {
namespace {

/// Epoch-stamped flat scores over the global ShotId space, the
/// ScoreAccumulator idiom with the reference's `0.0 + x` first add. Reset
/// is O(1): a slot whose stamp is stale reads as untouched.
class ShotSlots {
 public:
  void Reset(size_t num_shots) {
    if (stamps_.size() < num_shots) {
      stamps_.resize(num_shots, 0);
      scores_.resize(num_shots, 0.0);
    }
    ids_.clear();
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  void Add(ShotId shot, double x) {
    if (stamps_[shot] != epoch_) {
      stamps_[shot] = epoch_;
      scores_[shot] = 0.0 + x;
      ids_.push_back(shot);
    } else {
      scores_[shot] += x;
    }
  }

  /// The touched shots with their scores, in first-touch order.
  const std::vector<RankedShot>& Entries() {
    ranked_.clear();
    for (const ShotId id : ids_) ranked_.push_back(RankedShot{id, scores_[id]});
    return ranked_;
  }

 private:
  std::vector<double> scores_;
  std::vector<uint32_t> stamps_;
  std::vector<ShotId> ids_;
  std::vector<RankedShot> ranked_;
  uint32_t epoch_ = 0;
};

/// Per-thread scratch: steady-state serving allocates only the output.
struct FusionScratch {
  std::vector<double> similarity;  // one example's score per shot
  std::vector<ShotId> order;       // selection buffer
  ShotSlots visual;                // CombSum over examples
  ShotSlots fused;                 // weighted fusion
};

/// MinMaxNormalize's bounds and mapping, over `range` in walk order.
struct Bounds {
  double lo = 0.0;
  double span = 0.0;

  template <typename Range, typename ScoreFn>
  static Bounds Of(const Range& range, ScoreFn score) {
    Bounds b;
    double hi = 0.0;
    bool first = true;
    for (const auto& entry : range) {
      const double s = score(entry);
      if (first) {
        b.lo = hi = s;
        first = false;
      }
      b.lo = std::min(b.lo, s);
      hi = std::max(hi, s);
    }
    b.span = hi - b.lo;
    return b;
  }

  double Normalize(double s) const {
    return span > 0.0 ? (s - lo) / span : 0.5;
  }
};

double ScoreOf(const RankedShot& r) { return r.score; }

bool Better(const RankedShot& a, const RankedShot& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.shot < b.shot;
}

}  // namespace

FusedRanking RetrievalEngine::FuseAndRank(
    const FusionRequest& request, size_t k,
    SearchDiagnostics* diagnostics) const {
  static thread_local FusionScratch scratch;
  const size_t pool = request.candidate_pool;
  FusedRanking out;
  out.degraded = request.degraded;

  // The fused modalities in the reference's list order; `list` is set for
  // a modality that arrives as a ranked ResultList.
  struct Modality {
    const std::vector<RankedShot>* items;
    double weight;
    ResultList* list;
  };
  Modality modalities[3];
  size_t num_modalities = 0;

  const double lambda = std::clamp(request.rerank_lambda, 0.0, 1.0);
  const bool rerank = request.affinity && lambda != 0.0;
  const bool has_examples =
      request.examples != nullptr && !request.examples->empty();
  const bool has_concepts =
      request.concepts != nullptr && !request.concepts->empty();

  ResultList text;
  if (request.text != nullptr) {
    const obs::Stopwatch timer;
    // Alone and not re-ranked, text's top k is the answer: copy only
    // that much out of a cached pool.
    const bool alone =
        !rerank && !has_examples && !(has_concepts && concepts_available_);
    text = SearchTermsPrefix(*request.text, pool, alone ? k : pool);
    modalities[num_modalities++] = {&text.items(), options_.text_weight,
                                    &text};
    metrics_.text_us->Record(timer.ElapsedUs());
  }

  if (has_examples) {
    const obs::Stopwatch timer;
    std::vector<double>& sim = scratch.similarity;
    std::vector<ShotId>& order = scratch.order;
    sim.resize(num_shots_);
    scratch.visual.Reset(num_shots_);
    const auto better = [&sim](ShotId a, ShotId b) {
      if (sim[a] != sim[b]) return sim[a] > sim[b];
      return a < b;
    };
    for (const ColorHistogram& example : *request.examples) {
      for (size_t s = 0; s < shards_.size(); ++s) {
        VisualSearcher(shards_[s]->keyframes(), options_.visual_similarity)
            .ScoreAllInto(example, sim.data() + index_segments_[s].doc_offset);
      }
      // The example's top `pool` is every shot no worse than the pool-th
      // best, walked in ascending id order.
      order.resize(num_shots_);
      std::iota(order.begin(), order.end(), ShotId{0});
      if (num_shots_ > pool) {
        ShotId boundary = 0;
        if (pool > 0) {
          std::nth_element(order.begin(), order.begin() + (pool - 1),
                           order.end(), better);
          boundary = order[pool - 1];
        }
        order.clear();
        for (ShotId id = 0; pool > 0 && id < num_shots_; ++id) {
          if (id == boundary || better(id, boundary)) order.push_back(id);
        }
      }
      const Bounds bounds =
          Bounds::Of(order, [&sim](ShotId id) { return sim[id]; });
      for (const ShotId id : order) {
        scratch.visual.Add(id, bounds.Normalize(sim[id]));
      }
    }
    modalities[num_modalities++] = {&scratch.visual.Entries(),
                                    options_.visual_weight, nullptr};
    metrics_.visual_us->Record(timer.ElapsedUs());
  }

  ResultList concepts;
  if (has_concepts) {
    if (!concepts_available_) {
      NoteConceptsDropped(diagnostics);
      out.degraded = true;
    } else {
      const obs::Stopwatch timer;
      concepts = SearchConceptsMerged(*request.concepts, pool);
      modalities[num_modalities++] = {&concepts.items(),
                                      options_.concept_weight, &concepts};
      metrics_.concept_us->Record(timer.ElapsedUs());
    }
  }

  if (out.degraded) {
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
    metrics_.degraded_queries->Inc();
  }
  if (num_modalities == 0) return out;

  // Fuse: one modality is taken as is, several are weighted and summed.
  std::vector<RankedShot> ranked;
  if (num_modalities == 1) {
    const Modality& only = modalities[0];
    if (only.list != nullptr && !rerank) {
      // A ranked list's prefix is its own top k.
      out.results = std::move(*only.list);
      out.results.Truncate(k);
      return out;
    }
    ranked = *only.items;
  } else {
    ShotSlots& fused = scratch.fused;
    fused.Reset(num_shots_);
    for (size_t m = 0; m < num_modalities; ++m) {
      const double weight = modalities[m].weight;
      if (weight == 0.0) continue;
      const std::vector<RankedShot>& items = *modalities[m].items;
      const Bounds bounds = Bounds::Of(items, ScoreOf);
      for (const RankedShot& r : items) {
        fused.Add(r.shot, weight * bounds.Normalize(r.score));
      }
    }
    ranked = fused.Entries();
  }

  if (rerank && !ranked.empty()) {
    const Bounds bounds = Bounds::Of(ranked, ScoreOf);
    for (RankedShot& r : ranked) {
      r.score = (1.0 - lambda) * bounds.Normalize(r.score) +
                lambda * request.affinity(r.shot);
    }
  }
  // Select the top k once.
  if (ranked.size() > k) {
    std::nth_element(ranked.begin(), ranked.begin() + k, ranked.end(),
                     Better);
    ranked.resize(k);
  }
  std::sort(ranked.begin(), ranked.end(), Better);
  out.results = ResultList::FromRanked(std::move(ranked));
  return out;
}

void RetrievalEngine::NoteConceptsDropped(
    SearchDiagnostics* diagnostics) const {
  // Degrade loudly, not silently: the query asked for a modality this
  // engine cannot serve, which biases any evaluation built on it.
  concepts_dropped_.fetch_add(1, std::memory_order_relaxed);
  metrics_.concepts_dropped->Inc();
  if (diagnostics != nullptr) diagnostics->concepts_dropped = true;
  if (!degradation_logged_.exchange(true, std::memory_order_relaxed)) {
    IVR_LOG(Warning)
        << "concept query on an engine without a concept index; "
           "concept evidence dropped from fusion (logged once; see "
           "num_degraded_queries())";
  }
}

}  // namespace ivr
