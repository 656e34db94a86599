// Coarse: one global lock around every transaction.
//
// The paper's introduction motivates TM as "as easy to use as coarse-grained
// locking"; this backend *is* coarse-grained locking behind the TM
// interface — the zero-parallelism baseline every scalability bench is
// anchored to. Trivially serializable (transactions are literally
// sequential), maximally non-disjoint-access-parallel (a single base
// object shared by everything), and as non-obstruction-free as it gets (a
// suspended lock holder halts the world).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/tm.hpp"
#include "runtime/assert.hpp"
#include "runtime/cacheline.hpp"

namespace oftm::lock {

template <typename P>
class Coarse final : public core::PooledTm<Coarse<P>, P> {
  using Base = core::PooledTm<Coarse, P>;
  template <typename T>
  using Atomic = typename P::template Atomic<T>;

 public:
  class Txn final : public core::StatusTxn<Base> {
   private:
    friend class Coarse;
    struct Undo {
      core::TVarId x;
      core::Value old_value;
    };
    std::vector<Undo> undo_;
  };

  explicit Coarse(std::size_t num_tvars) : num_tvars_(num_tvars) {
    values_ = std::make_unique<Atomic<core::Value>[]>(num_tvars);
  }

  std::optional<core::Value> read(core::Transaction& t,
                                  core::TVarId x) override {
    auto& tx = this->txn_cast(t);
    this->stats_of(tx).reads.add();
    OFTM_ASSERT(x < num_tvars_);
    if (tx.status_ != core::TxStatus::kActive) return std::nullopt;
    return values_[x].load(std::memory_order_relaxed);
  }

  bool write(core::Transaction& t, core::TVarId x, core::Value v) override {
    auto& tx = this->txn_cast(t);
    this->stats_of(tx).writes.add();
    OFTM_ASSERT(x < num_tvars_);
    if (tx.status_ != core::TxStatus::kActive) return false;
    // In-place update with undo log (rolled back on abort).
    tx.undo_.push_back({x, values_[x].load(std::memory_order_relaxed)});
    values_[x].store(v, std::memory_order_relaxed);
    return true;
  }

  bool try_commit(core::Transaction& t) override {
    auto& tx = this->txn_cast(t);
    if (tx.status_ != core::TxStatus::kActive) return false;
    tx.status_ = core::TxStatus::kCommitted;
    release();
    this->stats_of(tx).commits.add();
    return true;
  }

  void try_abort(core::Transaction& t) override {
    auto& tx = this->txn_cast(t);
    if (tx.status_ != core::TxStatus::kActive) return;
    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kWriteBack);
      finish(tx);
    }
    this->count_requested_abort(tx);
  }

  std::size_t num_tvars() const override { return num_tvars_; }
  core::Value read_quiescent(core::TVarId x) const override {
    return values_[x].load(std::memory_order_acquire);
  }
  std::string name() const override { return "coarse"; }

 private:
  friend Base;

  // Re-arm a pooled descriptor and take the global TTAS lock; transactions
  // execute one at a time.
  void prepare(Txn& tx, core::TxId id) {
    tx.id_ = id;
    tx.undo_.clear();
    typename P::Backoff backoff;
    OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kCommitLock);
    for (;;) {
      bool expected = false;
      if (lock_.value.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
        break;
      }
      this->stats_of(tx).cm_backoffs.add();
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kBackoff);
      backoff.pause();
    }
    tx.status_ = core::TxStatus::kActive;
  }

  // Roll back the in-place writes and release the global lock. An
  // abandoned transaction still holds it: left alone, the world stays
  // halted, and a hot-tier begin on the same thread would self-deadlock.
  void finish(Txn& tx) noexcept {
    if (tx.status_ != core::TxStatus::kActive) return;
    for (auto it = tx.undo_.rbegin(); it != tx.undo_.rend(); ++it) {
      values_[it->x].store(it->old_value, std::memory_order_relaxed);
    }
    tx.undo_.clear();
    tx.status_ = core::TxStatus::kAborted;
    release();
  }

  void release() { lock_.value.store(false, std::memory_order_release); }

  const std::size_t num_tvars_;
  std::unique_ptr<Atomic<core::Value>[]> values_;
  runtime::CacheAligned<Atomic<bool>> lock_{false};
};

using HwCoarse = Coarse<core::HwPlatform>;

}  // namespace oftm::lock
