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
#include <string>
#include <vector>

#include "core/addressing.hpp"
#include "core/platform.hpp"
#include "core/tm.hpp"
#include "lock/versioned_lock.hpp"

namespace oftm::lock {

struct TlOptions {
  // How many lock-acquisition/validation retries before a transaction
  // gives up and aborts itself (deadlock/livelock avoidance).
  int patience = 64;
};

// A t-variable's lock word is its boxed slot's metadata word, on the same
// cache line as its value (core::BoxedSlots, shared with boxed TL2 and
// NOrec).
template <typename P>
class Tl final : public core::PooledTm<Tl<P>, P> {
  using Base = core::PooledTm<Tl, P>;

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
      : options_(options), mem_(num_tvars) {}

  std::optional<core::Value> read(core::Transaction& t,
                                  core::TVarId x) override {
    auto& tx = this->txn_cast(t);
    this->stats_of(tx).reads.add();
    auto& lock = mem_.meta(mem_.loc(x));
    if (tx.status_ != core::TxStatus::kActive) return std::nullopt;

    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kReadLookup);
      for (const auto& w : tx.writes_) {
        if (w.x == x) return w.value;
      }
    }

    typename P::Backoff backoff;
    for (int spin = 0;; ++spin) {
      const std::uint64_t w1 = lock.load(std::memory_order_acquire);
      if (!LockWord::locked(w1)) {
        const core::Value v = mem_.load(x, std::memory_order_relaxed);
        // acquire fence via re-load: value is only valid if the lock word
        // did not move underneath us (seqlock pattern).
        const std::uint64_t w2 = lock.load(std::memory_order_acquire);
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
    auto& lock = mem_.meta(mem_.loc(x));
    if (tx.status_ != core::TxStatus::kActive) return false;

    for (auto& w : tx.writes_) {
      if (w.x == x) {
        w.value = v;
        return true;
      }
    }

    typename P::Backoff backoff;
    OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kCommitLock);
    for (int spin = 0;; ++spin) {
      std::uint64_t w1 = lock.load(std::memory_order_acquire);
      if (!LockWord::locked(w1)) {
        const std::uint64_t locked =
            LockWord::pack(LockWord::version(w1), true);
        if (lock.compare_exchange_strong(w1, locked,
                                         std::memory_order_acq_rel)) {
          // Encounter-time read validation: if we read x earlier, the
          // version must not have moved.
          for (const auto& r : tx.reads_) {
            if (r.x == x && r.version != LockWord::version(w1)) {
              lock.store(w1, std::memory_order_release);  // undo lock
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
        mem_.store(w.x, w.value, std::memory_order_relaxed);
        mem_.meta(w.x).store(LockWord::pack(w.base_version + 1, false),
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

  std::size_t num_tvars() const override { return mem_.num_tvars(); }

  core::Value read_quiescent(core::TVarId x) const override {
    return mem_.load(x, std::memory_order_acquire);
  }

  std::string name() const override { return "tl"; }

 private:
  friend Base;

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
      mem_.meta(w.x).store(LockWord::pack(w.base_version, false),
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
      const std::uint64_t w = mem_.meta(r.x).load(std::memory_order_acquire);
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
  core::BoxedSlots<P> mem_;
};

using HwTl = Tl<core::HwPlatform>;

}  // namespace oftm::lock
