#ifndef TDMATCH_SERVE_RESULT_CACHE_H_
#define TDMATCH_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace tdmatch {
namespace serve {

struct ResultCacheOptions {
  /// Cached responses; 0 disables the cache entirely (Get always misses,
  /// Put is a no-op).
  size_t capacity = 0;
};

/// \brief LRU cache of rendered query responses for hot queries: one
/// list under one mutex, evicting the least recently used entry once
/// `capacity` entries are held.
///
/// Keyed by the full query identity (resolved label + k + mode + effective
/// nprobe — the serving layer builds the key) and stamped with the
/// snapshot version the response was computed from: Get refuses an entry
/// whose stamp differs from the current epoch, and Clear() drops
/// everything on reload, so a cached body can never outlive the snapshot
/// it answered for. Hit/miss/eviction counters feed /v1/stats.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});

  bool enabled() const { return options_.capacity > 0; }

  /// Copies the cached body into `*body` and returns true on a
  /// same-version hit; bumps the entry to most-recently-used. A version
  /// mismatch erases the stale entry and misses.
  bool Get(const std::string& key, uint64_t version, std::string* body);

  /// Inserts (or refreshes) `key` → `body` stamped with `version`,
  /// evicting the least-recently-used entry past capacity.
  void Put(const std::string& key, uint64_t version, std::string body);

  /// Drops every entry (snapshot swap invalidation).
  void Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Entries currently cached.
  size_t size() const;

 private:
  struct Entry {
    std::string key;
    uint64_t version;
    std::string body;
  };

  ResultCacheOptions options_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace serve
}  // namespace tdmatch

#endif  // TDMATCH_SERVE_RESULT_CACHE_H_
