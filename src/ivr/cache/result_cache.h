#ifndef IVR_CACHE_RESULT_CACHE_H_
#define IVR_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ivr/core/result.h"
#include "ivr/obs/metrics.h"
#include "ivr/retrieval/result_list.h"

namespace ivr {

class ArgParser;

struct ResultCacheOptions {
  /// Total byte budget across all shards (entries are charged for their
  /// key bytes, their RankedShot storage and fixed bookkeeping overhead).
  size_t max_bytes = 64u << 20;
  /// Shard count; lookups on distinct shards never contend. Clamped to
  /// at least 1.
  size_t num_shards = 8;
};

/// Point-in-time counters for one cache (aggregated over shards).
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Inserts dropped because the value alone exceeds a shard's byte
  /// budget.
  uint64_t rejected_inserts = 0;
  /// Lookups that failed through the "cache.lookup" fault-injection site
  /// (each degraded to an uncached search; results stay correct).
  uint64_t lookup_faults = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

/// Sharded, memory-budgeted LRU cache for base (pre-personalisation)
/// retrieval rankings. Keys are opaque canonical fingerprints built by the
/// caller (RetrievalEngine) — the cache compares them byte-for-byte, so a
/// hit can only ever return the exact ResultList that was inserted:
/// cached and uncached serving are bit-identical by construction.
///
/// Nothing is ever invalidated: a live collection's engines prefix their
/// keys with a segment-set epoch (RetrievalEngine::SetCacheKeyEpoch), so a
/// new generation simply stops hitting the old entries and LRU ages them
/// out. Session feedback never invalidates either — adaptive re-ranking
/// happens above the engine, on top of the cached base ranking.
///
/// Thread safety: all methods are safe to call concurrently. Each shard
/// has its own mutex; a key's shard is fixed by a hash of its bytes (the
/// hash routes only — matching is always a full key compare).
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = ResultCacheOptions());

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Copies the cached value for `key` — its first `max_entries` entries
  /// — into `*out` and refreshes its LRU position. False on miss — or
  /// when the "cache.lookup" fault site fires, which degrades the call to
  /// a miss (the caller recomputes; served results stay correct).
  bool Lookup(const std::string& key, ResultList* out,
              size_t max_entries = std::numeric_limits<size_t>::max());

  /// Inserts a copy of `value`, evicting least-recently-used entries in
  /// the key's shard until it fits. Dropped (rejected_inserts) when the
  /// entry alone exceeds the shard budget. Re-inserting an existing key
  /// replaces its value.
  void Insert(const std::string& key, const ResultList& value);

  ResultCacheStats Stats() const;

  const ResultCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string key;
    ResultList value;
    size_t bytes = 0;
  };
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key);
  static size_t EntryBytes(const std::string& key, const ResultList& value);

  ResultCacheOptions options_;
  size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> rejected_inserts_{0};
  std::atomic<uint64_t> lookup_faults_{0};

  /// Registry pointers resolved once at construction (obs contract).
  struct Metrics {
    obs::Counter* hits;
    obs::Counter* misses;
    obs::Counter* insertions;
    obs::Counter* evictions;
    obs::Counter* rejected_inserts;
    obs::Counter* lookup_faults;
    obs::Gauge* bytes;
    obs::Gauge* entries;
    obs::LatencyHistogram* lookup_us;
    obs::LatencyHistogram* insert_us;
  };
  Metrics metrics_;
};

/// Tool glue: builds a cache from `--cache-mb N` (megabytes; absent or 0
/// disables caching and returns nullptr) and optional `--cache-shards S`.
/// InvalidArgument on malformed or negative values.
Result<std::shared_ptr<ResultCache>> ResultCacheFromArgs(
    const ArgParser& args);

}  // namespace ivr

#endif  // IVR_CACHE_RESULT_CACHE_H_
