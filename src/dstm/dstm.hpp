// DSTM — the paper's "typical OFTM" (Section 1), reproduced in full.
//
// Design, following Herlihy, Luchangco, Moir & Scherer [18] as summarized by
// the paper:
//
//   * Every t-variable points (via one CAS word) to a *locator*:
//     { owner transaction descriptor, old value, new value }.
//   * To update x, a transaction acquires exclusive-but-revocable ownership
//     by CASing in a fresh locator whose owner is its own descriptor.
//     "From this moment on, x contains the information that it is owned by
//     Ti and points to the transaction descriptor of Ti."
//   * The current value of x resolves through the owner's status:
//     committed -> new value, aborted/active -> old value.
//   * A transaction meeting a live owner consults the contention manager;
//     it may back off "to give Ti a chance, but eventually Tk must be able
//     to abort Ti ... without any interaction with Ti" — the abort is a CAS
//     on the victim's status field.
//   * Reads are invisible: the reader records (t-var, locator, value) and
//     revalidates its whole read set on every subsequent open and at commit
//     ("the state of y is re-read to ensure that Ti still observes a
//     consistent state"), which also gives opacity.
//   * Commit is a single CAS of the own status from active to committed.
//
// Obstruction-freedom (Definition 2) holds: a transaction is forcefully
// aborted only by another process's status CAS or by failed validation,
// both of which require steps by other processes inside its lifetime. The
// sim-instantiated test suite checks this against the step-contention
// oracle.
//
// Non-obvious liveness/memory points:
//   * Locators are immutable except `new_val`, written only by the owner
//     before its commit CAS (release) and read by others only after an
//     acquire load of status == committed.
//   * Replaced locators are retired through the platform reclaimer (EBR on
//     hardware); a locator holds a reference on its owner descriptor, so a
//     descriptor dies only after every locator naming it is reclaimed and
//     its transaction handle is gone.
//   * This is also where the paper's Theorem 13 bites: the descriptor is a
//     base object shared by *all* t-variables a transaction touched —
//     transactions on disjoint t-variable sets CAS the same descriptor
//     status word. The DAP instrumentation counts exactly those conflicts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cm/contention_manager.hpp"
#include "core/platform.hpp"
#include "core/tm.hpp"
#include "runtime/assert.hpp"
#include "runtime/cacheline.hpp"

namespace oftm::dstm {

struct DstmOptions {
  // Ablation (DESIGN.md §6): when a resolver finds a locator whose owner is
  // already completed, it may collapse it to an ownerless value locator,
  // shortening descriptor lifetimes at the cost of extra CASes.
  bool eager_collapse = false;
  // Ablation: visible reads. Readers additionally register their descriptor
  // in a bounded per-t-variable reader table; an acquiring writer aborts
  // every registered live reader before installing its locator, so doomed
  // readers stop early instead of running to a failed validation. Purely an
  // early-abort optimization: invisible-read validation stays on, so safety
  // is unaffected even when the table overflows (reads fall back to
  // invisible) or a racing reader registers after the writer's sweep. The
  // original DSTM [18] offered the same switch; it also adds reader-side
  // base-object traffic per t-variable — measured by the DAP experiments.
  bool visible_reads = false;
};

template <typename P>
class Dstm final : public core::PooledTm<Dstm<P>, P> {
  using Base = core::PooledTm<Dstm, P>;
  template <typename T>
  using Atomic = typename P::template Atomic<T>;

 public:
  struct TxDesc {
    Atomic<core::TxStatus> status{core::TxStatus::kActive};
    Atomic<std::uint32_t> refs{1};  // one reference held by the Txn handle
    core::TxId id = 0;

    void ref() { refs.fetch_add(1, std::memory_order_relaxed); }
    // acq_rel: the reclaiming thread must observe all writes made through
    // other references. Descriptors are *retired*, not deleted: besides
    // locators, the visible-reads reader tables hold raw descriptor
    // pointers that concurrent writers dereference under an epoch guard.
    static void unref(TxDesc* d) {
      if (d->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        P::Reclaimer::template retire<TxDesc>(d);
      }
    }
  };

  struct Locator {
    TxDesc* const owner;  // null => value locator (resolved constant)
    const core::Value old_val;
    Atomic<core::Value> new_val;

    Locator(TxDesc* o, core::Value oldv, core::Value newv)
        : owner(o), old_val(oldv), new_val(newv) {
      if (owner != nullptr) owner->ref();
    }
    ~Locator() {
      if (owner != nullptr) TxDesc::unref(owner);
    }
  };

  class Txn final : public core::PooledTxn<Base> {
   public:
    ~Txn() override {
      // Pool teardown (TM destruction): drop the handle's descriptor
      // reference; locators still naming it keep it alive via their own.
      if (desc_ != nullptr) TxDesc::unref(desc_);
    }

    core::TxStatus status() const override {
      return desc_->status.load(std::memory_order_acquire);
    }
    core::TxId id() const override { return desc_->id; }

   private:
    friend class Dstm;
    struct ReadEntry {
      core::TVarId x;
      const Locator* seen;  // identity only; never dereferenced later
      core::Value val;
    };
    struct WriteEntry {
      core::TVarId x;
      Locator* loc;  // owned by the slot once installed
    };
    struct VisibleEntry {
      core::TVarId x;
      std::size_t slot_index;
    };

    TxDesc* desc_ = nullptr;
    std::vector<ReadEntry> reads_;
    std::vector<WriteEntry> writes_;
    std::vector<VisibleEntry> visible_;  // reader-table registrations
    int cm_tid_ = 0;
    // The epoch pin, held from prepare until the owner learns the
    // transaction is over. Validation compares locator addresses, so a
    // locator the transaction read must not be reclaimed (and its address
    // reused) while the transaction can still validate against it. The
    // pin is the beginning thread's, so the transaction must end on that
    // thread, and before it exits (see TransactionalMemory::begin).
    std::optional<typename P::Reclaimer::Guard> pin_;
  };

  Dstm(std::size_t num_tvars, std::shared_ptr<cm::ContentionManager> cm,
       DstmOptions options = {})
      : cm_(std::move(cm)), options_(options), num_tvars_(num_tvars) {
    OFTM_ASSERT(cm_ != nullptr);
    slots_ = std::make_unique<Slot[]>(num_tvars);
    for (std::size_t i = 0; i < num_tvars; ++i) {
      slots_[i].value.store(new Locator(nullptr, 0, 0),
                            std::memory_order_relaxed);
    }
  }

  ~Dstm() override {
    // Destruction implies quiescence: free the linked locators directly.
    for (std::size_t i = 0; i < num_tvars_; ++i) {
      delete slots_[i].value.load(std::memory_order_relaxed);
    }
  }

  std::optional<core::Value> read(core::Transaction& t, core::TVarId x) override {
    auto& tx = this->txn_cast(t);
    this->stats_of(tx).reads.add();
    OFTM_ASSERT(x < num_tvars_);

    // The pin (taken at begin) precedes this status check: a displacing
    // writer force-aborts us first and only then retires our locator, so
    // observing kActive proves the retire (if any) lands after the pin —
    // the new_val dereference below cannot race reclamation.
    if (tx.status() != core::TxStatus::kActive) {
      on_forced_abort(tx);
      return std::nullopt;
    }

    // Own pending write?
    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kReadLookup);
      for (const auto& w : tx.writes_) {
        if (w.x == x) return w.loc->new_val.load(std::memory_order_relaxed);
      }
      // Cached snapshot read? (Repeating it keeps the snapshot consistent.)
      for (const auto& r : tx.reads_) {
        if (r.x == x) return r.val;
      }
    }

    typename P::Backoff backoff;
    int attempt = 0;
    for (;;) {
      Locator* loc = slots_[x].value.load(std::memory_order_acquire);
      core::Value value;
      switch (resolve(tx, x, loc, attempt, value)) {
        case Resolve::kSelfAborted:
          return std::nullopt;
        case Resolve::kRetry:
          if (tx.status() != core::TxStatus::kActive) {
            on_forced_abort(tx, x);
            return std::nullopt;
          }
          {
            OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kBackoff);
            backoff.pause();
          }
          continue;
        case Resolve::kResolved:
          break;
      }
      if (options_.visible_reads) register_reader(tx, x);
      tx.reads_.push_back({x, loc, value});
      if (!validate(tx)) {
        abort_self(tx, obs::AbortReason::kReadValidation, x);
        return std::nullopt;
      }
      cm_->on_open(tx.cm_tid_);
      return value;
    }
  }

  bool write(core::Transaction& t, core::TVarId x, core::Value v) override {
    auto& tx = this->txn_cast(t);
    this->stats_of(tx).writes.add();
    OFTM_ASSERT(x < num_tvars_);

    // Same reclamation argument as read(): the locator we are about to
    // store into cannot be reclaimed between this check and the store.
    if (tx.status() != core::TxStatus::kActive) {
      on_forced_abort(tx);
      return false;
    }

    for (const auto& w : tx.writes_) {
      if (w.x == x) {
        w.loc->new_val.store(v, std::memory_order_relaxed);
        return true;
      }
    }

    typename P::Backoff backoff;
    int attempt = 0;
    // Ownership acquisition.
    OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kCommitLock);
    for (;;) {
      Locator* loc = slots_[x].value.load(std::memory_order_acquire);
      core::Value value;
      switch (resolve(tx, x, loc, attempt, value)) {
        case Resolve::kSelfAborted:
          return false;
        case Resolve::kRetry:
          if (tx.status() != core::TxStatus::kActive) {
            on_forced_abort(tx, x);
            return false;
          }
          {
            OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kBackoff);
            backoff.pause();
          }
          continue;
        case Resolve::kResolved:
          break;
      }
      auto* mine = new Locator(tx.desc_, value, v);
      Locator* expected = loc;
      if (slots_[x].value.compare_exchange_strong(expected, mine,
                                                  std::memory_order_acq_rel)) {
        P::Reclaimer::retire(loc);
        if (options_.visible_reads) sweep_readers(tx, x);
        // If x was read earlier, the read is still valid only if it came
        // from the locator we just displaced; then our own locator carries
        // the snapshot forward.
        for (auto& r : tx.reads_) {
          if (r.x == x) {
            if (r.seen != loc) {
              abort_self(tx, obs::AbortReason::kReadValidation, x);
              return false;
            }
            r.seen = mine;
            break;
          }
        }
        tx.writes_.push_back({x, mine});
        cm_->on_open(tx.cm_tid_);
        if (!validate(tx)) {
          abort_self(tx, obs::AbortReason::kReadValidation, x);
          return false;
        }
        return true;
      }
      delete mine;  // lost the race; destructor drops the descriptor ref
    }
  }

  bool try_commit(core::Transaction& t) override {
    auto& tx = this->txn_cast(t);
    if (!validate(tx)) {
      abort_self(tx, obs::AbortReason::kReadValidation);
      return false;
    }
    core::TxStatus expected = core::TxStatus::kActive;
    // release on success: all new_val stores become visible to readers that
    // acquire-load the committed status.
    if (tx.desc_->status.compare_exchange_strong(
            expected, core::TxStatus::kCommitted,
            std::memory_order_acq_rel)) {
      this->stats_of(tx).commits.add();
      cm_->on_commit(tx.cm_tid_);
      // Collapsing dereferences our locators: still pinned. (Collapse and
      // visible reads are separate recipes, so the order of the two is
      // invisible to the simulator.)
      if (options_.eager_collapse) collapse_writes(tx);
      release(tx);
      return true;
    }
    on_forced_abort(tx);  // somebody aborted us first
    return false;
  }

  void try_abort(core::Transaction& t) override {
    auto& tx = this->txn_cast(t);
    core::TxStatus expected = core::TxStatus::kActive;
    if (tx.desc_->status.compare_exchange_strong(
            expected, core::TxStatus::kAborted, std::memory_order_acq_rel)) {
      this->count_requested_abort(tx);
    }
    release(tx);
  }

  std::size_t num_tvars() const override { return num_tvars_; }

  core::Value read_quiescent(core::TVarId x) const override {
    const Locator* loc = slots_[x].value.load(std::memory_order_acquire);
    if (loc->owner == nullptr) return loc->old_val;
    return loc->owner->status.load(std::memory_order_acquire) ==
                   core::TxStatus::kCommitted
               ? loc->new_val.load(std::memory_order_relaxed)
               : loc->old_val;
  }

  std::string name() const override {
    std::string n = "dstm";
    if (options_.eager_collapse) n += "+collapse";
    if (options_.visible_reads) n += "+visible";
    return n;
  }

  // Address of the descriptor status word of a live transaction — exposed
  // for the DAP experiments, which need to point at the shared base object
  // Theorem 13 predicts.
  static const void* descriptor_of(const core::Transaction& t) {
    return &static_cast<const Txn&>(t).desc_->status;
  }

 private:
  friend Base;

  // Bounded reader table used by the visible-reads ablation.
  static constexpr std::size_t kReaderSlots = 8;

  struct alignas(runtime::kCacheLineSize) Slot {
    Atomic<Locator*> value{nullptr};
    Atomic<TxDesc*> readers[kReaderSlots] = {};
  };

  // Re-arm a pooled descriptor. The read/write/visible sets keep their
  // capacity; the TxDesc itself is a fresh heap object by protocol
  // necessity — locators may outlive the transaction that installed them
  // (the paper's shared-descriptor base object, Theorem 13).
  void prepare(Txn& tx, core::TxId id) {
    tx.pin_.emplace();
    tx.desc_ = new TxDesc;
    tx.desc_->id = id;
    tx.reads_.clear();
    tx.writes_.clear();
    tx.visible_.clear();
    tx.cm_tid_ = P::thread_id();
    cm_->on_tx_begin(tx.cm_tid_, tx.desc_->id);
  }

  // An abandoned live transaction is aborted, so it cannot be committed
  // through a stale descriptor by a late status read; then it lets go of
  // everything, including the handle's TxDesc reference.
  void finish(Txn& tx) noexcept {
    if (tx.desc_ == nullptr) return;
    core::TxStatus expected = core::TxStatus::kActive;
    tx.desc_->status.compare_exchange_strong(
        expected, core::TxStatus::kAborted, std::memory_order_acq_rel);
    release(tx);
    TxDesc::unref(tx.desc_);
    tx.desc_ = nullptr;
  }

  // The owner learned its transaction is over: drop its reader-table
  // registrations and its epoch pin. Idempotent; every completion path
  // funnels through here.
  void release(Txn& tx) {
    for (const auto& v : tx.visible_) {
      TxDesc* cur = tx.desc_;
      if (slots_[v.x].readers[v.slot_index].compare_exchange_strong(
              cur, nullptr, std::memory_order_acq_rel)) {
        TxDesc::unref(tx.desc_);
      }
    }
    tx.visible_.clear();
    tx.pin_.reset();
  }

  enum class Resolve { kResolved, kRetry, kSelfAborted };

  // Resolve `loc` to the current committed value of x. On kResolved, `loc`
  // may have been updated to a collapsed value locator (the one the caller
  // should record/CAS against). kRetry means the contention manager told us
  // to wait; kSelfAborted means it sacrificed us (already accounted).
  Resolve resolve(Txn& tx, core::TVarId x, Locator*& loc, int& attempt,
                  core::Value& value) {
    if (loc->owner == nullptr) {
      value = loc->old_val;
      return Resolve::kResolved;
    }
    const core::TxStatus st = loc->owner->status.load(std::memory_order_acquire);
    if (st == core::TxStatus::kCommitted) {
      value = loc->new_val.load(std::memory_order_relaxed);
      if (Locator* flat = maybe_collapse(x, loc, value)) loc = flat;
      return Resolve::kResolved;
    }
    if (st == core::TxStatus::kAborted) {
      value = loc->old_val;
      if (Locator* flat = maybe_collapse(x, loc, value)) loc = flat;
      return Resolve::kResolved;
    }
    // Live owner. The paper: Tk cannot get blocked waiting for Ti; the
    // contention manager arbitrates and Tk can always force the abort.
    OFTM_ASSERT_MSG(loc->owner != tx.desc_,
                    "own writes are resolved through the write set");
    cm::Conflict c;
    c.self_tid = tx.cm_tid_;
    c.victim_tid = core::tx_id_thread(loc->owner->id);
    c.self_tx = tx.desc_->id;
    c.victim_tx = loc->owner->id;
    c.attempt = attempt;
    switch (cm_->on_conflict(c)) {
      case cm::Decision::kAbortVictim: {
        core::TxStatus expected = core::TxStatus::kActive;
        if (loc->owner->status.compare_exchange_strong(
                expected, core::TxStatus::kAborted,
                std::memory_order_acq_rel)) {
          this->stats_of(tx).victim_kills.add();
        }
        // Owner is now resolved either way; re-resolve without pausing.
        const core::TxStatus st2 =
            loc->owner->status.load(std::memory_order_acquire);
        value = st2 == core::TxStatus::kCommitted
                    ? loc->new_val.load(std::memory_order_relaxed)
                    : loc->old_val;
        if (Locator* flat = maybe_collapse(x, loc, value)) loc = flat;
        return Resolve::kResolved;
      }
      case cm::Decision::kWait:
        this->stats_of(tx).cm_backoffs.add();
        ++attempt;
        return Resolve::kRetry;
      case cm::Decision::kAbortSelf:
        abort_self(tx, obs::AbortReason::kCmKill, x);
        return Resolve::kSelfAborted;
    }
    return Resolve::kRetry;  // unreachable
  }

  // Invisible-read revalidation: every recorded read must still be the
  // current locator of its t-variable. Pointer identity suffices: a locator
  // is recorded only once its resolution is stable, and resolved locators
  // never change value.
  bool validate(Txn& tx) {
    OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kValidation);
    for (const auto& r : tx.reads_) {
      if (slots_[r.x].value.load(std::memory_order_acquire) != r.seen) {
        return false;
      }
    }
    return tx.status() != core::TxStatus::kAborted;
  }

  // The abort paths are cold: they stay out of the hot operation bodies.
  [[gnu::cold]] void abort_self(Txn& tx, obs::AbortReason reason,
                                std::uint64_t key = obs::kNoKey) {
    core::TxStatus expected = core::TxStatus::kActive;
    if (tx.desc_->status.compare_exchange_strong(
            expected, core::TxStatus::kAborted, std::memory_order_acq_rel)) {
      this->count_forced_abort(tx, reason, key);  // not requested via tryA
      release(tx);
    } else {
      on_forced_abort(tx, key);  // another process aborted us first
    }
  }

  // Another process aborted us (a contention-manager kill, or a
  // visible-reads sweep) and the owner learns it here: count a cm_kill.
  // Only a transaction still holding its epoch pin is counted; release()
  // drops the pin on every completion path, so each transaction is counted
  // at most once, and a committed one never.
  [[gnu::cold]] void on_forced_abort(Txn& tx,
                                     std::uint64_t key = obs::kNoKey) {
    if (tx.pin_) this->count_forced_abort(tx, obs::AbortReason::kCmKill, key);
    release(tx);
  }

  // ---- Visible reads (ablation) ----------------------------------------

  // Best-effort registration in the bounded reader table; overflow falls
  // back to purely invisible reading (validation covers it either way).
  void register_reader(Txn& tx, core::TVarId x) {
    Slot& s = slots_[x];
    // The table entry owns one reference, taken BEFORE publishing: a
    // concurrent sweeper may deregister-and-unref the entry the instant the
    // CAS lands, and that unref must have a matching ref to consume.
    tx.desc_->ref();
    for (std::size_t i = 0; i < kReaderSlots; ++i) {
      TxDesc* expected = nullptr;
      if (s.readers[i].compare_exchange_strong(expected, tx.desc_,
                                               std::memory_order_acq_rel)) {
        tx.visible_.push_back({x, i});
        return;
      }
    }
    TxDesc::unref(tx.desc_);  // table full: reference not needed after all
  }

  // Writer side: abort and deregister every registered live reader of x
  // (the whole point of visibility — doomed readers stop immediately).
  void sweep_readers(Txn& tx, core::TVarId x) {
    Slot& s = slots_[x];
    for (std::size_t i = 0; i < kReaderSlots; ++i) {
      TxDesc* reader = s.readers[i].load(std::memory_order_acquire);
      if (reader == nullptr || reader == tx.desc_) continue;
      core::TxStatus expected = core::TxStatus::kActive;
      if (reader->status.compare_exchange_strong(
              expected, core::TxStatus::kAborted,
              std::memory_order_acq_rel)) {
        this->stats_of(tx).victim_kills.add();
      }
      // Whoever nulls the entry drops its reference.
      TxDesc* cur = reader;
      if (s.readers[i].compare_exchange_strong(cur, nullptr,
                                               std::memory_order_acq_rel)) {
        TxDesc::unref(reader);
      }
    }
  }

  // Optionally replace a resolved locator with an ownerless value locator;
  // returns the installed value locator, or null if collapsing is off or
  // the CAS lost.
  Locator* maybe_collapse(core::TVarId x, Locator* loc, core::Value value) {
    if (!options_.eager_collapse || loc->owner == nullptr) return nullptr;
    auto* flat = new Locator(nullptr, value, value);
    Locator* expected = loc;
    if (slots_[x].value.compare_exchange_strong(expected, flat,
                                                std::memory_order_acq_rel)) {
      P::Reclaimer::retire(loc);
      return flat;
    }
    delete flat;
    return nullptr;
  }

  void collapse_writes(Txn& tx) {
    for (const auto& w : tx.writes_) {
      maybe_collapse(w.x, w.loc,
                     w.loc->new_val.load(std::memory_order_relaxed));
    }
  }

  std::shared_ptr<cm::ContentionManager> cm_;
  const DstmOptions options_;
  const std::size_t num_tvars_;
  std::unique_ptr<Slot[]> slots_;
};

using HwDstm = Dstm<core::HwPlatform>;

}  // namespace oftm::dstm
