#include "service/cache.hpp"

namespace drcm::service {

bool repair_capable(const rcm::DistRcmOptions& resolved) {
  return !resolved.load_balance &&
         resolved.ordering.algorithm == rcm::OrderingAlgorithm::kRcm;
}

const CacheEntry* OrderingCache::find(const PatternFingerprint& fp) const {
  const auto it = entries_.find(fp);
  return it == entries_.end() ? nullptr : &it->second;
}

std::optional<RepairCandidate> OrderingCache::repair_candidate(
    const RefinedFingerprint& rf, const rcm::OrderingSpec& spec) const {
  std::optional<RepairCandidate> best;
  for (const auto& [fp, entry] : entries_) {
    // The cached labels must come from the SAME resolved ordering the
    // request wants: splicing across algorithms or peripheral modes would
    // break the repair's bit-identity-with-cold contract.
    if (entry.recipe.empty() || entry.rf.fp.n != rf.fp.n ||
        entry.spec.algorithm != spec.algorithm ||
        entry.spec.peripheral_mode != spec.peripheral_mode) {
      continue;
    }
    RepairCandidate c{&entry, fp, 0, {}};
    for (int w = 0; w < kFingerprintWindows; ++w) {
      if (entry.rf.windows[static_cast<std::size_t>(w)] !=
          rf.windows[static_cast<std::size_t>(w)]) {
        c.changed_rows.push_back(fingerprint_window_rows(w, rf.fp.n));
      }
    }
    c.changed_windows = static_cast<int>(c.changed_rows.size());
    if (c.changed_windows < 1 || c.changed_windows > kRepairMaxWindows) {
      continue;
    }
    // Fewest windows first, ties to most recently used: a deterministic
    // tie-break (map order is not).
    if (!best || c.changed_windows < best->changed_windows ||
        (c.changed_windows == best->changed_windows &&
         entry.last_use_tick > best->entry->last_use_tick)) {
      best = std::move(c);
    }
  }
  return best;
}

const CacheEntry* OrderingCache::serve(const PatternFingerprint& fp) {
  const auto it = entries_.find(fp);
  if (it == entries_.end()) return nullptr;
  it->second.last_use_tick = ++tick_;
  pinned_.insert(fp);
  return &it->second;
}

void OrderingCache::insert(const PatternFingerprint& fp, CacheEntry entry) {
  if (capacity_ == 0) return;
  // A pattern can reach the insert twice across waves (a relaunched miss
  // whose twin already landed); keep the first — it is the entry twins
  // were served from.
  if (entries_.find(fp) != entries_.end()) return;
  while (entries_.size() >= capacity_) {
    // Age in ticks since last insert-or-serve: an expensive ordering
    // outlives a stream of cheap one-offs.
    auto victim = entries_.end();
    double victim_score = 0.0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (pinned_.find(it->first) != pinned_.end()) continue;
      const double age =
          static_cast<double>(tick_ - it->second.last_use_tick) + 1.0;
      const double score = it->second.cost_wall / age;
      if (victim == entries_.end() || score < victim_score ||
          (score == victim_score &&
           it->second.last_use_tick < victim->second.last_use_tick)) {
        victim = it;
        victim_score = score;
      }
    }
    if (victim == entries_.end()) break;  // everything pinned: overflow
    entries_.erase(victim);
  }
  entry.last_use_tick = ++tick_;
  entries_.emplace(fp, std::move(entry));
}

}  // namespace drcm::service
