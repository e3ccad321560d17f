// The reordering service's ordering cache: pattern fingerprint -> label
// permutation, with repair candidacy and cost/recency eviction. Only this
// type touches the map. The service reads it while ranks run and mutates
// it only after a launch has joined, so lanes never see it move.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rcm/rcm_driver.hpp"
#include "service/fingerprint.hpp"

namespace drcm::service {

/// Window-diff cap for repair candidacy: a near-miss differing from every
/// cached entry in more row windows than this recomputes cold.
inline constexpr int kRepairMaxWindows = 8;
static_assert(kRepairMaxWindows <= kFingerprintWindows);

/// Whether a request with these RESOLVED options can seed or take an
/// incremental repair: unbalanced kRcm only. Sloan and GPS capture no
/// recipe, and a balanced ordering's recipe is in the relabeled work
/// numbering, so neither has anything sound to splice.
bool repair_capable(const rcm::DistRcmOptions& resolved);

struct CacheEntry {
  std::vector<index_t> labels;
  /// Unsalted refined fingerprint of the pattern the labels order: the
  /// row-window sub-sums near-miss classification diffs against.
  RefinedFingerprint rf{};
  /// Level structure captured with the labels. Non-empty exactly when the
  /// entry can seed repairs (only repair_capable runs capture one).
  rcm::OrderingRecipe recipe;
  /// The RESOLVED ordering spec that produced the labels. A repair source
  /// must match the request's exactly: splicing a Sloan or bi-criteria
  /// entry into an RCM repair would break bit-identity with cold.
  rcm::OrderingSpec spec{};
  /// Max over lane ranks of the ordering-phase wall that produced the
  /// labels: the numerator of the cost/recency eviction score.
  double cost_wall = 0.0;
  /// Logical clock of the last insert-or-serve (eviction recency).
  std::uint64_t last_use_tick = 0;
};

/// The cached entry a near-miss repairs from, and where the two differ.
struct RepairCandidate {
  const CacheEntry* entry = nullptr;
  PatternFingerprint fp{};
  int changed_windows = 0;
  std::vector<std::pair<index_t, index_t>> changed_rows;
};

class OrderingCache {
 public:
  /// `capacity` patterns; 0 disables caching (and with it repair).
  explicit OrderingCache(std::size_t capacity) : capacity_(capacity) {}

  const CacheEntry* find(const PatternFingerprint& fp) const;
  /// Among entries with a recipe, the same n and the same `spec`: the one
  /// differing from `rf` in the FEWEST row windows (1..kRepairMaxWindows),
  /// ties to the most recently used.
  std::optional<RepairCandidate> repair_candidate(
      const RefinedFingerprint& rf, const rcm::OrderingSpec& spec) const;
  /// A request was served from `fp` (a hit or a repair source): bumps its
  /// recency and pins it until unpin_all(). Null when not resident.
  const CacheEntry* serve(const PatternFingerprint& fp);
  /// Inserts under cost/recency eviction: the victim minimizes
  /// cost_wall / age, ties to least recently used, never a pinned entry;
  /// when everything resident is pinned the cache briefly overflows
  /// capacity. A fingerprint already resident keeps its entry.
  void insert(const PatternFingerprint& fp, CacheEntry entry);
  void unpin_all() { pinned_.clear(); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::size_t capacity_;
  std::unordered_map<PatternFingerprint, CacheEntry, PatternFingerprintHash>
      entries_;
  std::unordered_set<PatternFingerprint, PatternFingerprintHash> pinned_;
  /// Logical clock behind last_use_tick: bumped on every insert and serve.
  std::uint64_t tick_ = 0;
};

}  // namespace drcm::service
