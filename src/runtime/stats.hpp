// Low-overhead measurement primitives for the benchmark harness.
//
// A TM's counters live in its pooled sessions (core::SessionStats), one
// cache-line-aligned cell per session, so counting commits and aborts does
// not itself create the shared hot spots this repo exists to measure.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/taxonomy.hpp"

namespace oftm::runtime {

// A counter that one thread bumps and any thread may read. With a single
// writer, add() is a relaxed load and store, not a locked read-modify-write;
// a reader sees some recent value, never a torn one. add() sits on every
// counted read and write, and GCC stops inlining it in the translation
// units that instantiate every backend (--param inline-unit-growth), so
// it is forced inline.
class OwnedCounter {
 public:
  [[gnu::always_inline]] void add(std::uint64_t delta = 1) noexcept {
    n_.store(n_.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
  }
  std::uint64_t read() const noexcept {
    return n_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { n_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> n_{0};
};

// Log2-bucketed latency histogram (single-threaded accumulation; merge
// across threads with operator+=).
class Log2Histogram {
 public:
  static constexpr int kBuckets = 64;

  // Bucket index for a value: bucket 0 holds {0}, bucket b >= 1 holds
  // [2^(b-1), 2^b). Values with bit 63 set (bit_width 64) are clamped into
  // the top bucket — without the clamp they would index one past the array.
  static constexpr int bucket_of(std::uint64_t v) noexcept {
    const int b = v == 0 ? 0 : 64 - __builtin_clzll(v);
    return b < kBuckets ? b : kBuckets - 1;
  }

  void record(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  Log2Histogram& operator+=(const Log2Histogram& o) noexcept {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
    return *this;
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }
  // Upper bound of the bucket containing quantile q (0 < q <= 1).
  std::uint64_t quantile(double q) const noexcept;

  std::string to_string() const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// Aggregated per-run STM statistics, merged across sessions and runs.
//
// A TM counts each abort once, under its obs::AbortReason; `aborts` and
// `forced_aborts` are sums of those reason counts (core::SessionStats), so
// the reasons always sum exactly to `aborts`. The phase and heat-map
// fields are present regardless of OFTM_OBS so report consumers see a
// stable schema; with the gate off they stay zero/empty.
struct TxStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;           // application-visible abort events
  std::uint64_t forced_aborts = 0;    // aborts not requested via tryA
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t cm_backoffs = 0;      // contention-manager pauses
  std::uint64_t victim_kills = 0;     // times we aborted somebody else

  // Abort attribution: aborts partitioned by obs::AbortReason.
  std::uint64_t abort_reason[obs::kNumAbortReasons] = {};
  // Phase profile: sampled time (ns) and interval count per obs::Phase.
  std::uint64_t phase_ns[obs::kNumPhases] = {};
  std::uint64_t phase_count[obs::kNumPhases] = {};
  // Merged conflict heat map, heaviest first.
  std::vector<obs::HotVar> hot_vars;

  // Merge another session's / run's view into this one.
  TxStats& merge(const TxStats& o) {
    commits += o.commits;
    aborts += o.aborts;
    forced_aborts += o.forced_aborts;
    reads += o.reads;
    writes += o.writes;
    cm_backoffs += o.cm_backoffs;
    victim_kills += o.victim_kills;
    for (std::size_t i = 0; i < obs::kNumAbortReasons; ++i) {
      abort_reason[i] += o.abort_reason[i];
    }
    for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
      phase_ns[i] += o.phase_ns[i];
      phase_count[i] += o.phase_count[i];
    }
    merge_hot_vars(o.hot_vars);
    return *this;
  }

  double abort_ratio() const noexcept {
    const double total = static_cast<double>(commits + aborts);
    return total == 0 ? 0.0 : static_cast<double>(aborts) / total;
  }

  // Share of aborts the TM forced (vs. requested via tryA): the
  // conflict-pressure signal, separated from programmatic retries.
  double forced_abort_ratio() const noexcept {
    return aborts == 0
               ? 0.0
               : static_cast<double>(forced_aborts) /
                     static_cast<double>(aborts);
  }

  std::uint64_t abort_reason_total() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t n : abort_reason) total += n;
    return total;
  }

  // True when the reason taxonomy reconciles with the abort count. Holds
  // by construction for a TM's stats(), and merge keeps it.
  bool abort_reasons_consistent() const noexcept {
    return abort_reason_total() == aborts;
  }

  std::string to_string() const;

 private:
  void merge_hot_vars(const std::vector<obs::HotVar>& other);
};

}  // namespace oftm::runtime
