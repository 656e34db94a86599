// Per-TM observability state: phase histograms, abort-reason counters and
// the conflict heat map, all striped per thread.
//
// Memory discipline: the per-thread cells holding phase histograms and
// heat-map slots are allocated *lazily*, on a thread's first sampled
// phase scope (or first attributed abort) against a given TM instance.
// That keeps TM construction cheap — the sim explorer builds thousands of
// backends per test — and keeps the steady state allocation-free: the one
// cell allocation per (TM, thread) happens during warm-up, never again.
// Abort-reason counters are embedded statically (one cache line per
// thread slot — all reasons fit in one line) because they are exact, not
// sampled: the reconciliation invariant `sum(reasons) == aborts` must
// hold without a cell ever having been materialized.
//
// All cells are written with relaxed atomics by their owning thread only
// and read by collect() on quiescent paths (driver after join, tests), so
// concurrent collection is racy-but-benign *and* TSan-clean.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/phase_timer.hpp"
#include "obs/taxonomy.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/thread_registry.hpp"

namespace oftm::obs {

#if OFTM_OBS

// Log2 histogram over relaxed atomics — same bucketing as
// runtime::Log2Histogram, but safe to read while the owner records.
// 48 buckets cover intervals up to ~2^48 ticks (>1 day); bigger values
// clamp into the top bucket.
class AtomicLog2Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t value) noexcept {
    std::size_t b =
        value == 0 ? 0
                   : static_cast<std::size_t>(64 - __builtin_clzll(value));
    if (b >= kBuckets) b = kBuckets - 1;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// Bounded per-thread conflict heat map: top-K contended keys by forced-
// abort count, space-saving style — a miss evicts the minimum-count slot
// and inherits its count, so heavy hitters always surface while memory
// stays fixed. Single-writer (the owning thread); collect() reads
// relaxed.
class HeatMap {
 public:
  static constexpr std::size_t kSlots = 16;

  void hit(std::uint64_t key) noexcept {
    std::size_t min_i = 0;
    std::uint64_t min_n = ~std::uint64_t{0};
    for (std::size_t i = 0; i < kSlots; ++i) {
      const std::uint64_t n = hits_[i].load(std::memory_order_relaxed);
      if (n != 0 && keys_[i].load(std::memory_order_relaxed) == key) {
        hits_[i].store(n + 1, std::memory_order_relaxed);
        return;
      }
      if (n < min_n) {
        min_n = n;
        min_i = i;
      }
    }
    keys_[min_i].store(key, std::memory_order_relaxed);
    hits_[min_i].store(min_n + 1, std::memory_order_relaxed);
  }

  void collect_into(std::vector<HotVar>& out) const {
    for (std::size_t i = 0; i < kSlots; ++i) {
      const std::uint64_t n = hits_[i].load(std::memory_order_relaxed);
      if (n != 0) {
        out.push_back({keys_[i].load(std::memory_order_relaxed), n});
      }
    }
  }

  void reset() noexcept {
    for (auto& h : hits_) h.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> keys_[kSlots] = {};
  std::atomic<std::uint64_t> hits_[kSlots] = {};
};

// The lazily allocated per-(TM, thread) cell: one histogram per phase
// plus the thread's heat map, cache-line aligned so neighbouring threads
// never share a line.
struct alignas(runtime::kCacheLineSize) ObsCell {
  AtomicLog2Histogram phase_ticks[kNumPhases];
  HeatMap heat;
};

// --- Thread-local plumbing shared by every TM's instrumentation. -------

// Phase sampling: recording a phase interval costs two rdtsc reads and a
// histogram update; doing that for every transaction measurably skews
// the release numbers the bench baselines pin. Backends tick this gate
// once per begun transaction and every scope checks the resulting flag.
// The stride comes from $OFTM_OBS_SAMPLE (default 8, minimum 1 — i.e.
// every transaction).
std::uint64_t phase_sample_stride() noexcept;

namespace detail {
struct TlsObs {
  std::uint64_t tx_counter = 0;
  bool sampled = false;
  AbortReason hint = AbortReason::kUserRequested;
  AbortReason last = AbortReason::kUserRequested;
};
inline TlsObs& tls() noexcept {
  thread_local TlsObs t;
  return t;
}
}  // namespace detail

// Called once per begun transaction (backend prepare()); decides whether
// this transaction's phase scopes record.
inline void tick_tx_sample() noexcept {
  auto& t = detail::tls();
  t.sampled = (t.tx_counter++ % phase_sample_stride()) == 0;
}

inline bool tx_sampled() noexcept { return detail::tls().sampled; }

// Abort-attribution hints: try_abort() is one entry point serving both
// "the program cancelled" and "the program asked to retry"; the caller
// that knows the difference (TxView::retry) parks the reason here and
// the backend's requested-abort counter consumes it.
inline void hint_abort(AbortReason r) noexcept { detail::tls().hint = r; }
inline AbortReason take_abort_hint() noexcept {
  auto& t = detail::tls();
  const AbortReason r = t.hint;
  t.hint = AbortReason::kUserRequested;
  return r;
}

// The reason of the calling thread's most recent counted abort, for the
// trace exporter (the driver records the span after the attempt ends).
inline void note_last_abort(AbortReason r) noexcept { detail::tls().last = r; }
inline AbortReason last_abort_reason() noexcept { return detail::tls().last; }

// --- Per-TM state, embedded in core::PooledTm. -------------------------

// Exact per-reason abort counters, striped per thread. All reasons fit
// one cache line per slot, so the whole table is kMaxThreads lines.
class ReasonCounters {
 public:
  void add(AbortReason r) noexcept {
    cells_[runtime::ThreadRegistry::current_id()]
        .n[static_cast<std::size_t>(r)]
        .fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t read(std::size_t reason) const noexcept {
    std::uint64_t total = 0;
    const int hw = runtime::ThreadRegistry::high_watermark();
    for (int i = 0; i < hw; ++i) {
      total += cells_[i].n[reason].load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() noexcept {
    for (auto& c : cells_) {
      for (auto& n : c.n) n.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(runtime::kCacheLineSize) Cell {
    std::atomic<std::uint64_t> n[kNumAbortReasons] = {};
  };
  static_assert(sizeof(std::atomic<std::uint64_t>) * kNumAbortReasons <=
                runtime::kCacheLineSize);
  Cell cells_[runtime::ThreadRegistry::kMaxThreads] = {};
};

// Everything one TM instance accumulates: reason counters (static),
// phase histograms and heat maps (lazy cells).
class TmObs {
 public:
  TmObs() = default;
  ~TmObs() {
    for (auto& slot : cells_) {
      delete slot.load(std::memory_order_relaxed);
    }
  }
  TmObs(const TmObs&) = delete;
  TmObs& operator=(const TmObs&) = delete;

  ReasonCounters& reasons() noexcept { return reasons_; }
  const ReasonCounters& reasons() const noexcept { return reasons_; }

  // The calling thread's cell, materializing it on first use (warm-up
  // path; see header comment).
  ObsCell& cell() {
    auto& slot = cells_[runtime::ThreadRegistry::current_id()];
    ObsCell* c = slot.load(std::memory_order_acquire);
    if (c == nullptr) {
      auto owned = std::make_unique<ObsCell>();
      if (slot.compare_exchange_strong(c, owned.get(),
                                       std::memory_order_acq_rel)) {
        c = owned.release();
      }
      // A lost race (impossible for a per-thread slot, but cheap to
      // tolerate) keeps the winner and drops ours.
    }
    return *c;
  }

  // Aggregate phase totals (converted to ns) and the merged heat map.
  void collect(std::uint64_t (&phase_ns)[kNumPhases],
               std::uint64_t (&phase_count)[kNumPhases],
               std::vector<HotVar>& hot_vars,
               std::size_t top_k = 8) const {
    const double ratio = ns_per_tick();
    std::vector<HotVar> merged;
    const int hw = runtime::ThreadRegistry::high_watermark();
    for (int t = 0; t < hw; ++t) {
      const ObsCell* c = cells_[t].load(std::memory_order_acquire);
      if (c == nullptr) continue;
      for (std::size_t p = 0; p < kNumPhases; ++p) {
        phase_ns[p] += static_cast<std::uint64_t>(
            static_cast<double>(c->phase_ticks[p].sum()) * ratio);
        phase_count[p] += c->phase_ticks[p].count();
      }
      c->heat.collect_into(merged);
    }
    // Merge duplicate keys across threads, keep the top_k heaviest.
    std::vector<HotVar> combined;
    for (const HotVar& h : merged) {
      bool found = false;
      for (HotVar& c : combined) {
        if (c.key == h.key) {
          c.hits += h.hits;
          found = true;
          break;
        }
      }
      if (!found) combined.push_back(h);
    }
    std::sort(combined.begin(), combined.end(),
              [](const HotVar& a, const HotVar& b) {
                return a.hits != b.hits ? a.hits > b.hits : a.key < b.key;
              });
    if (combined.size() > top_k) combined.resize(top_k);
    for (const HotVar& h : combined) hot_vars.push_back(h);
  }

  void reset() noexcept {
    reasons_.reset();
    for (auto& slot : cells_) {
      if (ObsCell* c = slot.load(std::memory_order_acquire)) {
        for (auto& h : c->phase_ticks) h.reset();
        c->heat.reset();
      }
    }
  }

 private:
  ReasonCounters reasons_;
  std::atomic<ObsCell*> cells_[runtime::ThreadRegistry::kMaxThreads] = {};
};

// RAII phase interval: records ticks into the calling thread's cell of
// the given TM, only when this transaction was elected by the sampling
// gate. Safe to nest (inclusive timing, documented in taxonomy.hpp).
class ScopedPhase {
 public:
  ScopedPhase(TmObs& obs, Phase phase) noexcept
      : cell_(tx_sampled() ? &obs.cell() : nullptr),
        phase_(phase),
        start_(cell_ != nullptr ? now_ticks() : 0) {}
  ~ScopedPhase() {
    if (cell_ != nullptr) {
      cell_->phase_ticks[static_cast<std::size_t>(phase_)].record(
          now_ticks() - start_);
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  ObsCell* cell_;
  Phase phase_;
  std::uint64_t start_;
};

#define OFTM_OBS_CONCAT_IMPL(a, b) a##b
#define OFTM_OBS_CONCAT(a, b) OFTM_OBS_CONCAT_IMPL(a, b)
// Scope the rest of the enclosing block as the given phase.
#define OFTM_OBS_PHASE(obs_obj, phase)                        \
  ::oftm::obs::ScopedPhase OFTM_OBS_CONCAT(oftm_phase_scope_, \
                                           __LINE__)((obs_obj), (phase))

#else  // !OFTM_OBS

#define OFTM_OBS_PHASE(obs_obj, phase) static_cast<void>(0)

#endif  // OFTM_OBS

}  // namespace oftm::obs
