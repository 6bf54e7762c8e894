#include "ivr/cache/result_cache.h"

#include <functional>

#include "ivr/core/args.h"
#include "ivr/core/fault_injection.h"

namespace ivr {
namespace {

/// Fixed per-entry bookkeeping charge (list node, index slot, Entry
/// struct). An estimate, but a deterministic one: eviction decisions are
/// a pure function of the insert sequence, never of allocator state.
constexpr size_t kEntryOverheadBytes = 128;

}  // namespace

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  shard_budget_ = options_.max_bytes / options_.num_shards;
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  obs::Registry& registry = obs::Registry::Global();
  metrics_.hits = registry.GetCounter("cache.hits");
  metrics_.misses = registry.GetCounter("cache.misses");
  metrics_.insertions = registry.GetCounter("cache.insertions");
  metrics_.evictions = registry.GetCounter("cache.evictions");
  metrics_.rejected_inserts = registry.GetCounter("cache.rejected_inserts");
  metrics_.lookup_faults = registry.GetCounter("cache.lookup_faults");
  metrics_.bytes = registry.GetGauge("cache.bytes");
  metrics_.entries = registry.GetGauge("cache.entries");
  metrics_.lookup_us = registry.GetHistogram("cache.lookup_us");
  metrics_.insert_us = registry.GetHistogram("cache.insert_us");
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  // The hash only routes to a shard; matching is a full key compare, so a
  // collision can never serve the wrong entry.
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

size_t ResultCache::EntryBytes(const std::string& key,
                               const ResultList& value) {
  return key.size() + value.MemoryBytes() + kEntryOverheadBytes;
}

bool ResultCache::Lookup(const std::string& key, ResultList* out,
                         size_t max_entries) {
  const obs::Stopwatch watch;
  FaultInjector& faults = FaultInjector::Global();
  if (faults.enabled() && faults.ShouldFail("cache.lookup")) {
    // Degrade to an uncached search: report a miss without touching the
    // shard, so the caller recomputes and serving stays correct.
    lookup_faults_.fetch_add(1, std::memory_order_relaxed);
    metrics_.lookup_faults->Inc();
    misses_.fetch_add(1, std::memory_order_relaxed);
    metrics_.misses->Inc();
    metrics_.lookup_us->Record(watch.ElapsedUs());
    return false;
  }
  Shard& shard = ShardFor(key);
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      const std::vector<RankedShot>& items = it->second->value.items();
      if (items.size() <= max_entries) {
        *out = it->second->value;
      } else {
        *out = ResultList::FromRanked(std::vector<RankedShot>(
            items.begin(), items.begin() + max_entries));
      }
      hit = true;
    }
  }
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics_.hits->Inc();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    metrics_.misses->Inc();
  }
  metrics_.lookup_us->Record(watch.ElapsedUs());
  return hit;
}

void ResultCache::Insert(const std::string& key, const ResultList& value) {
  const obs::Stopwatch watch;
  const size_t bytes = EntryBytes(key, value);
  if (bytes > shard_budget_) {
    rejected_inserts_.fetch_add(1, std::memory_order_relaxed);
    metrics_.rejected_inserts->Inc();
    metrics_.insert_us->Record(watch.ElapsedUs());
    return;
  }
  Shard& shard = ShardFor(key);
  uint64_t evicted = 0;
  int64_t bytes_delta = 0;
  int64_t entries_delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      bytes_delta -= static_cast<int64_t>(it->second->bytes);
      shard.bytes -= it->second->bytes;
      shard.lru.erase(it->second);
      shard.index.erase(it);
      --entries_delta;
    }
    while (!shard.lru.empty() && shard.bytes + bytes > shard_budget_) {
      const Entry& victim = shard.lru.back();
      bytes_delta -= static_cast<int64_t>(victim.bytes);
      shard.bytes -= victim.bytes;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      --entries_delta;
      ++evicted;
    }
    shard.lru.push_front(Entry{key, value, bytes});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    bytes_delta += static_cast<int64_t>(bytes);
    ++entries_delta;
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  metrics_.insertions->Inc();
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    metrics_.evictions->Inc(evicted);
  }
  metrics_.bytes->Add(bytes_delta);
  metrics_.entries->Add(entries_delta);
  metrics_.insert_us->Record(watch.ElapsedUs());
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.rejected_inserts =
      rejected_inserts_.load(std::memory_order_relaxed);
  stats.lookup_faults = lookup_faults_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

Result<std::shared_ptr<ResultCache>> ResultCacheFromArgs(
    const ArgParser& args) {
  IVR_ASSIGN_OR_RETURN(const int64_t mb, args.GetInt("cache-mb", 0));
  if (mb < 0) {
    return Status::InvalidArgument("--cache-mb must be >= 0");
  }
  if (mb == 0) return std::shared_ptr<ResultCache>();
  IVR_ASSIGN_OR_RETURN(const int64_t shards, args.GetInt("cache-shards", 8));
  if (shards <= 0) {
    return Status::InvalidArgument("--cache-shards must be > 0");
  }
  ResultCacheOptions options;
  options.max_bytes = static_cast<size_t>(mb) << 20;
  options.num_shards = static_cast<size_t>(shards);
  return std::make_shared<ResultCache>(options);
}

}  // namespace ivr
