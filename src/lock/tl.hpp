// TL: encounter-time two-phase-locking STM with per-t-variable versioned
// locks and deferred (write-back) updates.
//
// This is the paper's canonical *strictly disjoint-access-parallel*
// baseline: "Lock-based TM implementations, most of which use some variant
// of the known two-phase locking protocol, are usually strictly
// disjoint-access-parallel (e.g., TL [11])." Every base object it touches
// (lock word + value word) belongs to exactly one t-variable, so
// transactions on disjoint t-variable sets never conflict on a base object
// — the DAP experiments verify this with the simulator's conflict journal.
//
// It is deliberately NOT obstruction-free: a writer that stalls while
// holding encounter-time locks blocks every later conflicting transaction
// (they spin out their patience and self-abort, forever). Figure 2's
// scenario run on TL demonstrates exactly this contrast with DSTM.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/tm.hpp"
#include "lock/versioned_lock.hpp"
#include "runtime/assert.hpp"
#include "runtime/cacheline.hpp"

namespace oftm::lock {

struct TlOptions {
  // How many lock-acquisition/validation retries before a transaction
  // gives up and aborts itself (deadlock/livelock avoidance).
  int patience = 64;
};

template <typename P>
class Tl final : public core::PooledTm<Tl<P>, P> {
  using Base = core::PooledTm<Tl, P>;
  template <typename T>
  using Atomic = typename P::template Atomic<T>;

 public:
  class Txn final : public core::StatusTxn<Base> {
   private:
    friend class Tl;
    struct ReadEntry {
      core::TVarId x;
      std::uint64_t version;
    };
    struct WriteEntry {
      core::TVarId x;
      std::uint64_t base_version;  // version observed when locking
      core::Value value;
    };

    std::vector<ReadEntry> reads_;
    std::vector<WriteEntry> writes_;
  };

  explicit Tl(std::size_t num_tvars, TlOptions options = {})
      : options_(options), num_tvars_(num_tvars) {
    slots_ = std::make_unique<Slot[]>(num_tvars);
  }

  std::optional<core::Value> read(core::Transaction& t,
                                  core::TVarId x) override {
    auto& tx = this->txn_cast(t);
    this->stats_of(tx).reads.add();
    OFTM_ASSERT(x < num_tvars_);
    if (tx.status_ != core::TxStatus::kActive) return std::nullopt;

    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kReadLookup);
      for (const auto& w : tx.writes_) {
        if (w.x == x) return w.value;
      }
    }

    typename P::Backoff backoff;
    Slot& s = slots_[x];
    for (int spin = 0;; ++spin) {
      const std::uint64_t w1 = s.lock.load(std::memory_order_acquire);
      if (!LockWord::locked(w1)) {
        const core::Value v = s.value.load(std::memory_order_relaxed);
        // acquire fence via re-load: value is only valid if the lock word
        // did not move underneath us (seqlock pattern).
        const std::uint64_t w2 = s.lock.load(std::memory_order_acquire);
        if (w1 == w2) {
          bool known = false;
          for (const auto& r : tx.reads_) {
            if (r.x == x) {
              known = true;
              if (r.version != LockWord::version(w1)) {
                rollback_abort(tx, obs::AbortReason::kReadValidation, x);
                return std::nullopt;
              }
              break;
            }
          }
          if (!known) {
            tx.reads_.push_back({x, LockWord::version(w1)});
          }
          if (!validate(tx)) {
            rollback_abort(tx, obs::AbortReason::kReadValidation);
            return std::nullopt;
          }
          return v;
        }
      }
      if (spin >= options_.patience) {
        // A (possibly suspended) lock holder is in the way; lock-based TMs
        // cannot revoke it — we sacrifice ourselves. This is the
        // non-obstruction-freedom the paper contrasts OFTMs against.
        rollback_abort(tx, obs::AbortReason::kLockTimeout, x);
        return std::nullopt;
      }
      this->stats_of(tx).cm_backoffs.add();
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kBackoff);
      backoff.pause();
    }
  }

  bool write(core::Transaction& t, core::TVarId x, core::Value v) override {
    auto& tx = this->txn_cast(t);
    this->stats_of(tx).writes.add();
    OFTM_ASSERT(x < num_tvars_);
    if (tx.status_ != core::TxStatus::kActive) return false;

    for (auto& w : tx.writes_) {
      if (w.x == x) {
        w.value = v;
        return true;
      }
    }

    typename P::Backoff backoff;
    Slot& s = slots_[x];
    OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kCommitLock);
    for (int spin = 0;; ++spin) {
      std::uint64_t w1 = s.lock.load(std::memory_order_acquire);
      if (!LockWord::locked(w1)) {
        const std::uint64_t locked =
            LockWord::pack(LockWord::version(w1), true);
        if (s.lock.compare_exchange_strong(w1, locked,
                                           std::memory_order_acq_rel)) {
          // Encounter-time read validation: if we read x earlier, the
          // version must not have moved.
          for (const auto& r : tx.reads_) {
            if (r.x == x && r.version != LockWord::version(w1)) {
              s.lock.store(w1, std::memory_order_release);  // undo lock
              rollback_abort(tx, obs::AbortReason::kReadValidation, x);
              return false;
            }
          }
          tx.writes_.push_back({x, LockWord::version(w1), v});
          if (!validate(tx)) {
            rollback_abort(tx, obs::AbortReason::kReadValidation);
            return false;
          }
          return true;
        }
      }
      if (spin >= options_.patience) {
        rollback_abort(tx, obs::AbortReason::kLockTimeout, x);
        return false;
      }
      this->stats_of(tx).cm_backoffs.add();
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kBackoff);
      backoff.pause();
    }
  }

  bool try_commit(core::Transaction& t) override {
    auto& tx = this->txn_cast(t);
    if (tx.status_ != core::TxStatus::kActive) return false;
    if (!validate(tx)) {
      rollback_abort(tx, obs::AbortReason::kReadValidation);
      return false;
    }
    // Write back and release: bump each version (2PL shrink phase).
    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kWriteBack);
      for (const auto& w : tx.writes_) {
        Slot& s = slots_[w.x];
        s.value.store(w.value, std::memory_order_relaxed);
        s.lock.store(LockWord::pack(w.base_version + 1, false),
                     std::memory_order_release);
      }
    }
    tx.status_ = core::TxStatus::kCommitted;
    this->stats_of(tx).commits.add();
    return true;
  }

  void try_abort(core::Transaction& t) override {
    auto& tx = this->txn_cast(t);
    if (tx.status_ != core::TxStatus::kActive) return;
    finish(tx);
    this->count_requested_abort(tx);
  }

  std::size_t num_tvars() const override { return num_tvars_; }

  core::Value read_quiescent(core::TVarId x) const override {
    return slots_[x].value.load(std::memory_order_acquire);
  }

  std::string name() const override { return "tl"; }

 private:
  friend Base;

  struct alignas(runtime::kCacheLineSize) Slot {
    Atomic<std::uint64_t> lock{LockWord::pack(0, false)};
    Atomic<core::Value> value{0};
  };

  void prepare(Txn& tx, core::TxId id) {
    tx.id_ = id;
    tx.status_ = core::TxStatus::kActive;
    tx.reads_.clear();
    tx.writes_.clear();
  }

  // Release every encounter-time lock without publishing values. An
  // abandoned transaction must not leave them behind either.
  void finish(Txn& tx) noexcept {
    if (tx.status_ != core::TxStatus::kActive) return;
    for (const auto& w : tx.writes_) {
      slots_[w.x].lock.store(LockWord::pack(w.base_version, false),
                             std::memory_order_release);
    }
    tx.writes_.clear();
    tx.status_ = core::TxStatus::kAborted;
  }

  bool validate(Txn& tx) {
    OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kValidation);
    for (const auto& r : tx.reads_) {
      bool own = false;
      for (const auto& w : tx.writes_) {
        if (w.x == r.x) {
          own = true;
          if (w.base_version != r.version) return false;
          break;
        }
      }
      if (own) continue;
      const std::uint64_t w = slots_[r.x].lock.load(std::memory_order_acquire);
      if (LockWord::locked(w) || LockWord::version(w) != r.version) {
        return false;
      }
    }
    return true;
  }

  void rollback_abort(Txn& tx, obs::AbortReason reason,
                      std::uint64_t key = obs::kNoKey) {
    finish(tx);
    this->count_forced_abort(tx, reason, key);
  }

  const TlOptions options_;
  const std::size_t num_tvars_;
  std::unique_ptr<Slot[]> slots_;
};

using HwTl = Tl<core::HwPlatform>;

}  // namespace oftm::lock
