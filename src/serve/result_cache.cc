#include "serve/result_cache.h"

#include <utility>

namespace tdmatch {
namespace serve {

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {}

bool ResultCache::Get(const std::string& key, uint64_t version,
                      std::string* body) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (it->second->version != version) {
    // Stale epoch: a reload happened between Put and this Get. Drop the
    // entry so the cache never fills with unservable bodies.
    lru_.erase(it->second);
    index_.erase(it);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *body = it->second->body;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResultCache::Put(const std::string& key, uint64_t version,
                      std::string body) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->version = version;
    it->second->body = std::move(body);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, version, std::move(body)});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > options_.capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace serve
}  // namespace tdmatch
