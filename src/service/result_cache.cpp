#include "service/result_cache.h"

#include <algorithm>

#include "common/digest.h"

namespace rfly::service {

std::uint64_t ResultCache::key_digest(const std::string& text,
                                      std::uint64_t seed) {
  // Seed folded first so sweeps over one scenario spread across the table.
  return digest_string(digest_word(0x7273'6c74'6361'6368ull, seed), text);
}

bool ResultCache::lookup(const std::string& scenario_text, std::uint64_t seed,
                         std::string& out) {
  const std::uint64_t digest = key_digest(scenario_text, seed);
  std::lock_guard<std::mutex> lock(mu_);
  auto bucket = index_.find(digest);
  if (bucket != index_.end()) {
    for (std::size_t id : bucket->second) {
      if (id < evicted_front_) continue;  // stale: entry already evicted
      const Entry& entry = entries_[id - evicted_front_];
      // Digests are hints; the full (text, seed) compare is the contract.
      if (entry.seed == seed && entry.text == scenario_text) {
        out = entry.bytes;
        ++hits_;
        return true;
      }
    }
  }
  ++misses_;
  return false;
}

void ResultCache::insert(const std::string& scenario_text, std::uint64_t seed,
                         std::string result_bytes) {
  if (capacity_ == 0) return;
  const std::uint64_t digest = key_digest(scenario_text, seed);
  std::lock_guard<std::mutex> lock(mu_);
  auto& bucket = index_[digest];
  for (std::size_t id : bucket) {
    if (id < evicted_front_) continue;
    const Entry& entry = entries_[id - evicted_front_];
    if (entry.seed == seed && entry.text == scenario_text) {
      return;  // racing executors produced the same bits; first one wins
    }
  }
  bucket.push_back(evicted_front_ + entries_.size());
  entries_.push_back({scenario_text, seed, std::move(result_bytes)});
  while (entries_.size() > capacity_) {
    const Entry& victim = entries_.front();
    const std::uint64_t victim_digest = key_digest(victim.text, victim.seed);
    auto it = index_.find(victim_digest);
    if (it != index_.end()) {
      auto& ids = it->second;
      ids.erase(std::remove_if(ids.begin(), ids.end(),
                               [&](std::size_t id) {
                                 return id <= evicted_front_;
                               }),
                ids.end());
      if (ids.empty()) index_.erase(it);
    }
    entries_.pop_front();
    ++evicted_front_;
    ++evictions_;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {hits_, misses_, evictions_, entries_.size()};
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  evicted_front_ += entries_.size();
  entries_.clear();
  index_.clear();
}

}  // namespace rfly::service
