// Sample statistics, the in-memory span recorder and the result ledger of
// one benchmark run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. With fewer than 11 samples it is the largest (and the
/// caller reports the sample count, so such a tail is recognisable).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};

inline Tail tail_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t at = n > 10 ? n - 11 : n - 1;
  return {v[at], 100.0 * static_cast<double>(at + 1) / static_cast<double>(n)};
}

// ---------------------------------------------------------------------------
// Spans. Recorded only in a traced run, kept in memory and written out as a
// Chrome trace when the run ends. A root span (a request or an ordering
// call) gets its children from the per-phase ledger the call returns; the
// part of the root not covered by children is its unattributed time.

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  double start_s = 0.0;      ///< since the recorder was created
  double dur_s = 0.0;
  std::string kind;  ///< request kind or rank count, for the reader
  bool from_ledger = false;  ///< duration taken from a returned ledger
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// Records a finished span; returns its id (0 when tracing is off).
  std::uint64_t add(std::string name, std::uint64_t parent, double start_s,
                    double dur_s, std::string kind = {},
                    bool from_ledger = false) {
    if (!enabled_) return 0;
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({std::move(name), id, parent, start_s, dur_s,
                      std::move(kind), from_ledger});
    return id;
  }

  /// Ledger children laid end to end from the parent's start, in phase
  /// order (the ledger has durations, not timestamps).
  void add_ledger_children(std::uint64_t parent, double parent_start,
                           const std::vector<std::pair<std::string, double>>&
                               phases) {
    double at = parent_start;
    for (const auto& [name, dur] : phases) {
      if (dur <= 0.0) continue;
      add(name, parent, at, dur, {}, true);
      at += dur;
    }
  }

  /// Per root span with children: (root duration − children) ÷ root
  /// duration.
  std::vector<double> unattributed_shares() const {
    std::map<std::uint64_t, double> covered;
    for (const auto& s : spans_) {
      if (s.parent != 0) covered[s.parent] += s.dur_s;
    }
    std::vector<double> out;
    for (const auto& s : spans_) {
      const auto it = covered.find(s.id);
      if (s.parent == 0 && it != covered.end() && s.dur_s > 0.0) {
        out.push_back(std::max(0.0, s.dur_s - it->second) / s.dur_s);
      }
    }
    return out;
  }

  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Result ledger

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

class Report {
 public:
  void metric(std::string name, std::string unit, double value,
              std::size_t samples) {
    metrics_.push_back({std::move(name), std::move(unit), value, samples});
  }

  /// An exact counter: it must repeat bit for bit across runs of a seed.
  void counter(const std::string& name, std::uint64_t value) {
    counters_[name] = value;
  }

  void info(const std::string& key, std::string value) {
    info_[key] = std::move(value);
  }

  /// One checked operation; a failed check is recorded with its reason.
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The run's single JSON line (run.py reads it).
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
