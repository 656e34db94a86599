// Per-session observability pieces and the thread-local plumbing every
// backend's instrumentation shares.
//
// Each pooled session's statistics cell (core::SessionStats) embeds one
// PhaseSums and one HeatMap. Only the thread using the session writes
// them, with relaxed loads and stores; stats() reads them with relaxed
// loads at any time, so a mid-run read is racy-but-benign *and*
// TSan-clean. Nothing here allocates, so the steady state stays
// allocation-free.
//
// The types compile in both gate settings; with OFTM_OBS off the session
// cell leaves them out and OFTM_OBS_PHASE expands to nothing. The
// abort-reason hint below is ungated: reasons are always counted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/phase_timer.hpp"
#include "obs/taxonomy.hpp"
#include "runtime/stats.hpp"

namespace oftm::obs {

// Sampled time per phase: the sum of interval ticks and the interval
// count. Converted to ns only when collected.
class PhaseSums {
 public:
  void record(Phase phase, std::uint64_t ticks) noexcept {
    const auto p = static_cast<std::size_t>(phase);
    ticks_[p].add(ticks);
    count_[p].add();
  }

  void collect(std::uint64_t (&phase_ns)[kNumPhases],
               std::uint64_t (&phase_count)[kNumPhases]) const {
    const double ratio = ns_per_tick();
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      phase_ns[p] += static_cast<std::uint64_t>(
          static_cast<double>(ticks_[p].read()) * ratio);
      phase_count[p] += count_[p].read();
    }
  }

  void reset() noexcept {
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      ticks_[p].reset();
      count_[p].reset();
    }
  }

 private:
  runtime::OwnedCounter ticks_[kNumPhases];
  runtime::OwnedCounter count_[kNumPhases];
};

// Bounded per-session conflict heat map: top-K contended keys by forced-
// abort count, space-saving style — a miss evicts the minimum-count slot
// and inherits its count, so heavy hitters always surface while memory
// stays fixed. Single-writer; collect_into() reads relaxed.
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

// --- Thread-local plumbing shared by every TM's instrumentation. -------

// Phase sampling: recording a phase interval costs two rdtsc reads and a
// counter update; doing that for every transaction measurably skews the
// release numbers the bench baselines pin. Backends tick this gate once
// per begun transaction and every scope checks the resulting flag. The
// stride comes from $OFTM_OBS_SAMPLE (default 8, minimum 1 — i.e. every
// transaction).
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

// Called once per begun transaction; decides whether this transaction's
// phase scopes record.
inline void tick_tx_sample() noexcept {
  auto& t = detail::tls();
  t.sampled = (t.tx_counter++ % phase_sample_stride()) == 0;
}

inline bool tx_sampled() noexcept { return detail::tls().sampled; }

// Abort-attribution hints: try_abort() is one entry point serving both
// "the program cancelled" and "the program asked to retry"; the caller
// that knows the difference (TxView::retry) parks the reason here and
// the backend's requested-abort count consumes it.
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

// RAII phase interval: records ticks into the given session's phase sums,
// only when this transaction was elected by the sampling gate. Safe to
// nest (inclusive timing, documented in taxonomy.hpp). Every scope on the
// read path pays its constructor and destructor, so both are forced
// inline, like OwnedCounter::add.
class ScopedPhase {
 public:
  [[gnu::always_inline]] ScopedPhase(PhaseSums& sums, Phase phase) noexcept
      : sums_(tx_sampled() ? &sums : nullptr),
        phase_(phase),
        start_(sums_ != nullptr ? now_ticks() : 0) {}
  [[gnu::always_inline]] ~ScopedPhase() {
    if (sums_ != nullptr) sums_->record(phase_, now_ticks() - start_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseSums* sums_;
  Phase phase_;
  std::uint64_t start_;
};

#if OFTM_OBS
#define OFTM_OBS_CONCAT_IMPL(a, b) a##b
#define OFTM_OBS_CONCAT(a, b) OFTM_OBS_CONCAT_IMPL(a, b)
// Scope the rest of the enclosing block as the given phase.
#define OFTM_OBS_PHASE(phase_sums, phase)                     \
  ::oftm::obs::ScopedPhase OFTM_OBS_CONCAT(oftm_phase_scope_, \
                                           __LINE__)((phase_sums), (phase))
#else
#define OFTM_OBS_PHASE(phase_sums, phase) static_cast<void>(0)
#endif

}  // namespace oftm::obs
