// FOCTM — Algorithm 2 of the paper: an OFTM built from fo-consensus objects
// and registers (Lemma 8; opacity proof in Appendix B).
//
// Faithful mapping of the pseudocode:
//
//   Owner[x, version]  -> per-t-variable unbounded chain of one-shot
//                         fo-consensus objects over transaction-descriptor
//                         pointers (segmented growable array — the paper's
//                         "infinite arrays" made allocatable).
//   State[Tk]          -> one fo-consensus object over {committed, aborted}
//                         embedded in Tk's descriptor. Committing is
//                         proposing `committed` to one's own State;
//                         aborting somebody is proposing `aborted` to
//                         theirs (lines 17, 31).
//   TVar[x, Tk]        -> registers inside Tk's descriptor, written only by
//                         Tk before it completes and read by others only
//                         after State[Tk] decides committed (Claim 16 makes
//                         this single-writer/after-publication safe).
//   Aborted[Tk]        -> register in the descriptor: losers learn ASAP
//                         that they lost an ownership (line 28).
//   V[x]               -> per-t-variable register stamped by each new owner
//                         (line 26); the line-21 re-check bounds the
//                         version walk and gives wait-freedom.
//
// The paper's own footnote 6 calls this construction "rather impractical"
// (unbounded memory, high time complexity): bench_foctm_overhead quantifies
// exactly that. Two modes:
//
//   faithful — every acquire restarts the version walk at 1, as written in
//     the paper: O(total versions) per open.
//   hinted   — a per-t-variable hint register caches (version v, folded
//     value of slots < v) once all owners below v have *decided* states;
//     since fo-consensus decisions are immutable, every walker folds the
//     same prefix value, so starting at the hint is safe. An ablation, not
//     a change to the protocol's decisions.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "core/tm.hpp"
#include "foc/fo_consensus.hpp"
#include "runtime/assert.hpp"
#include "runtime/cacheline.hpp"

namespace oftm::foctm {

// State[Tk] votes. kNone is the fo-consensus empty sentinel.
enum class Vote : std::uint32_t { kNone = 0, kCommitted = 1, kAborted = 2 };

struct FoctmOptions {
  bool use_hints = false;
};

template <typename P, typename FocPolicy>
class Foctm final : public core::PooledTm<Foctm<P, FocPolicy>, P> {
  using Base = core::PooledTm<Foctm, P>;
  template <typename T>
  using Atomic = typename P::template Atomic<T>;

 public:
  struct TxDesc;
  using StateFoc =
      typename FocPolicy::template Object<Vote, Vote::kNone>;
  using OwnerFoc =
      typename FocPolicy::template Object<TxDesc*, nullptr>;

  struct TxDesc {
    StateFoc state;                   // State[Tk]
    Atomic<bool> aborted_flag{false};  // Aborted[Tk]
    // TVar[x, Tk]: written only by the owning transaction before its State
    // decides; read by others only afterwards (Claim 16).
    std::vector<std::pair<core::TVarId, core::Value>> tvals;

    void set_tval(core::TVarId x, core::Value v) {
      for (auto& [var, val] : tvals) {
        if (var == x) {
          val = v;
          return;
        }
      }
      tvals.emplace_back(x, v);
    }

    core::Value tval(core::TVarId x) const {
      for (const auto& [var, val] : tvals) {
        if (var == x) return val;
      }
      // A committed owner has a TVar entry for every t-variable it opened.
      OFTM_ASSERT_MSG(false, "TVar[x, Tk] read from non-opening owner");
      return 0;
    }
  };

  class Txn final : public core::StatusTxn<Base> {
   public:
    // A decided State[Tk] overrides what the owner itself knows.
    core::TxStatus status() const override {
      switch (desc_->state.peek()) {
        case Vote::kCommitted: return core::TxStatus::kCommitted;
        case Vote::kAborted: return core::TxStatus::kAborted;
        case Vote::kNone: break;
      }
      return this->status_;
    }

   private:
    friend class Foctm;
    TxDesc* desc_ = nullptr;
    std::vector<core::TVarId> wset_;
    // Every TxDesc this descriptor minted, desc_ last. Owner chains
    // reference them indefinitely, so they live as long as the descriptor:
    // until the TM is destroyed (the paper's unbounded-memory caveat,
    // footnote 6).
    std::vector<std::unique_ptr<TxDesc>> minted_;
  };

  Foctm(std::size_t num_tvars, FoctmOptions options = {})
      : options_(options), num_tvars_(num_tvars) {
    vars_ = std::make_unique<TVarState[]>(num_tvars);
  }

  ~Foctm() override {
    for (std::size_t i = 0; i < num_tvars_; ++i) {
      Segment* seg = vars_[i].head.next.load(std::memory_order_relaxed);
      while (seg != nullptr) {
        Segment* next = seg->next.load(std::memory_order_relaxed);
        delete seg;
        seg = next;
      }
      delete vars_[i].hint.load(std::memory_order_relaxed);
    }
  }

  std::optional<core::Value> read(core::Transaction& t,
                                  core::TVarId x) override {
    auto& tx = this->txn_cast(t);
    this->stats_of(tx).reads.add();
    if (tx.status_ != core::TxStatus::kActive) return std::nullopt;
    return acquire(tx, x);  // line 2: return acquire(Tk, x)
  }

  bool write(core::Transaction& t, core::TVarId x, core::Value v) override {
    auto& tx = this->txn_cast(t);
    this->stats_of(tx).writes.add();
    if (tx.status_ != core::TxStatus::kActive) return false;
    const auto s = acquire(tx, x);          // line 4
    if (!s.has_value()) return false;       // line 5
    tx.desc_->set_tval(x, v);               // line 6: TVar[x, Tk] <- v
    return true;                            // line 7
  }

  bool try_commit(core::Transaction& t) override {
    auto& tx = this->txn_cast(t);
    if (tx.status_ != core::TxStatus::kActive) return false;
    const auto s = tx.desc_->state.propose(Vote::kCommitted);  // line 31
    if (s.has_value() && *s == Vote::kCommitted) {             // line 32
      tx.status_ = core::TxStatus::kCommitted;
      this->stats_of(tx).commits.add();
      return true;
    }
    // ⊥ (propose aborted under contention) or someone voted us aborted.
    tx.status_ = core::TxStatus::kAborted;
    this->count_forced_abort(tx, obs::AbortReason::kCmKill);
    return false;  // line 33
  }

  void try_abort(core::Transaction& t) override {
    auto& tx = this->txn_cast(t);
    if (tx.status_ != core::TxStatus::kActive) return;
    // Lines 34-35: just return A_k. The undecided State is resolved to
    // `aborted` by the next transaction that meets one of our ownerships;
    // only we could ever propose `committed`, and we never will.
    tx.status_ = core::TxStatus::kAborted;
    this->count_requested_abort(tx);
  }

  std::size_t num_tvars() const override { return num_tvars_; }

  core::Value read_quiescent(core::TVarId x) const override {
    const TVarState& var = vars_[x];
    core::Value state = 0;
    const Segment* seg = &var.head;
    for (std::size_t version = 1;; ++version) {
      const std::size_t idx = (version - 1) % kSegSize;
      if (version != 1 && idx == 0) {
        seg = seg->next.load(std::memory_order_acquire);
        if (seg == nullptr) break;
      }
      const TxDesc* owner = seg->slots[idx].peek();
      if (owner == nullptr) break;
      if (owner->state.peek() == Vote::kCommitted) state = owner->tval(x);
    }
    return state;
  }

  std::string name() const override {
    return std::string("foctm[") + FocPolicy::kName +
           (options_.use_hints ? ",hinted]" : ",faithful]");
  }

  // Base-object addresses for the DAP instrumentation: a transaction's
  // State object is the shared location Theorem 13's proof pivots on.
  static const void* state_object_of(const core::Transaction& t) {
    return &static_cast<const Txn&>(t).desc_->state;
  }

 private:
  friend Base;

  static constexpr std::size_t kSegSize = 16;

  struct Segment {
    std::array<OwnerFoc, kSegSize> slots;
    Atomic<Segment*> next{nullptr};
  };

  struct HintRec {
    std::size_t version;
    core::Value value;
  };

  struct alignas(runtime::kCacheLineSize) TVarState {
    Segment head;
    Atomic<TxDesc*> v_reg{nullptr};  // V[x]
    Atomic<HintRec*> hint{nullptr};
  };

  // Re-arm a pooled descriptor. The wrapper (write-set vector) is reused;
  // the TxDesc must be fresh per transaction, and the descriptor keeps it.
  void prepare(Txn& tx, core::TxId id) {
    tx.id_ = id;
    tx.minted_.push_back(std::make_unique<TxDesc>());
    tx.desc_ = tx.minted_.back().get();
    tx.wset_.clear();
    tx.status_ = core::TxStatus::kActive;
  }

  // An abandoned transaction ends like a requested abort (lines 34-35),
  // uncounted: only its owner could ever propose `committed`.
  void finish(Txn& tx) noexcept {
    if (tx.status_ == core::TxStatus::kActive) {
      tx.status_ = core::TxStatus::kAborted;
    }
  }

  OwnerFoc& slot(TVarState& var, std::size_t version) {
    std::size_t idx = version - 1;
    Segment* seg = &var.head;
    while (idx >= kSegSize) {
      Segment* next = seg->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        auto* fresh = new Segment;
        Segment* expected = nullptr;
        if (seg->next.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel)) {
          next = fresh;
        } else {
          delete fresh;
          next = expected;
        }
      }
      seg = next;
      idx -= kSegSize;
    }
    return seg->slots[idx];
  }

  // Lines 8-29 of Algorithm 2.
  std::optional<core::Value> acquire(Txn& tx, core::TVarId x) {
    OFTM_ASSERT(x < num_tvars_);
    TVarState& var = vars_[x];
    core::Value state;

    bool in_wset = false;
    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kReadLookup);
      for (core::TVarId w : tx.wset_) {
        if (w == x) {
          in_wset = true;
          break;
        }
      }
    }

    if (!in_wset) {                                    // line 9
      // The version walk doubles as ownership acquisition (lines 13-23):
      // attribute it to the commit-lock phase like the other backends'
      // acquire loops.
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kCommitLock);
      std::size_t version = 1;                         // line 10
      state = 0;                                       // line 11 (initial)
      if (options_.use_hints) {
        [[maybe_unused]] typename P::Reclaimer::Guard guard;
        if (const HintRec* h = var.hint.load(std::memory_order_acquire)) {
          version = h->version;
          state = h->value;
        }
      }
      TxDesc* vcap = var.v_reg.load(std::memory_order_acquire);  // line 12
      for (;;) {                                                 // line 13
        const auto owner_opt = slot(var, version).propose(tx.desc_);
        if (!owner_opt.has_value()) {                            // line 15
          return forced_abort(tx, obs::AbortReason::kCmKill, x);
        }
        TxDesc* owner = *owner_opt;
        if (owner != tx.desc_) {                                 // line 16
          const auto s = owner->state.propose(Vote::kAborted);   // line 17
          if (!s.has_value()) {                                  // line 18
            return forced_abort(tx, obs::AbortReason::kCmKill, x);
          }
          if (*s == Vote::kCommitted) {                          // line 19
            state = owner->tval(x);
          } else {                                               // line 20
            owner->aborted_flag.store(true, std::memory_order_release);
          }
        }
        if (var.v_reg.load(std::memory_order_acquire) != vcap) { // line 21
          return forced_abort(tx, obs::AbortReason::kSnapshotChanged, x);
        }
        if (owner == tx.desc_) break;                            // line 23
        ++version;                                               // line 22
      }
      if (options_.use_hints) publish_hint(var, version, state);
      tx.wset_.push_back(x);                                     // line 24
      tx.desc_->set_tval(x, state);                              // line 25
      var.v_reg.store(tx.desc_, std::memory_order_release);      // line 26
    } else {
      state = tx.desc_->tval(x);                                 // line 27
    }

    if (tx.desc_->aborted_flag.load(std::memory_order_acquire)) {  // line 28
      return forced_abort(tx, obs::AbortReason::kCmKill, x);
    }
    return state;                                                  // line 29
  }

  std::optional<core::Value> forced_abort(Txn& tx, obs::AbortReason reason,
                                          std::uint64_t key = obs::kNoKey) {
    tx.status_ = core::TxStatus::kAborted;
    this->count_forced_abort(tx, reason, key);
    return std::nullopt;
  }

  // Hinted mode: all Owner slots below `version` are decided and their
  // owners' States are decided, so `value` is the unique fold of that
  // prefix; cache it for future walkers.
  void publish_hint(TVarState& var, std::size_t version, core::Value value) {
    [[maybe_unused]] typename P::Reclaimer::Guard guard;
    HintRec* cur = var.hint.load(std::memory_order_acquire);
    if (cur != nullptr && cur->version >= version) return;
    auto* fresh = new HintRec{version, value};
    if (var.hint.compare_exchange_strong(cur, fresh,
                                         std::memory_order_acq_rel)) {
      if (cur != nullptr) P::Reclaimer::template retire<HintRec>(cur);
    } else {
      delete fresh;
    }
  }

  const FoctmOptions options_;
  const std::size_t num_tvars_;
  std::unique_ptr<TVarState[]> vars_;
};

}  // namespace oftm::foctm
