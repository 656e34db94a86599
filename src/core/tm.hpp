// The TM-as-a-shared-object interface of Section 2.2, exposed as a
// two-tier execution surface.
//
// Operations map 1:1 onto the paper's model:
//   read(Tk, x)    -> value or abort event A_k        (std::nullopt)
//   write(Tk,x,v)  -> ok or abort event A_k           (false)
//   try_commit(Tk) -> commit event C_k or abort A_k   (true / false)
//   try_abort(Tk)  -> abort event A_k                 (always)
//
// Hot tier (pooled sessions). `session(slot)` hands out one TmSession per
// thread slot; `begin(TmSession&)` resets and reuses that session's pooled
// transaction descriptor in place. Read/write-set capacity survives
// retries, so after warm-up a transaction costs zero heap allocations on
// the backends without inherently allocating protocols (NOrec, TL/TL2,
// Coarse — DSTM locators and FOCTM descriptors are part of the algorithms
// being measured and still allocate). core::atomically() and the workload
// driver run on this tier; tests/alloc_free_test.cpp pins the
// zero-allocation property.
//
// Portability tier. The virtual `TxnPtr begin()` interface is a thin
// adapter over the same per-thread pools: it checks a descriptor out of
// the calling thread's session free list and the returned handle's
// releaser checks it back in. Descriptors are recycled, never freed, so
// the steady state is also allocation-free — but every operation is a
// virtual call. The conformance harness, history recorder and checkers
// drive all backends through this tier unchanged; hot-path benches use
// workload::visit_tm to reach concrete backend types instead.
//
// The virtual-dispatch cost of the portability tier is identical across
// backends and thus cancels in every comparison this repo makes; the hot
// tier exists so the *absolute* numbers are not dominated by harness
// overhead (the methodological trap the cost-of-obstruction-freedom
// comparison must avoid).
//
// Both tiers run one transaction lifecycle, written once for every
// backend in PooledTm below: sessions, both begin entry points, tx ids,
// statistics, and the abandonment rule.
//
// Statistics are per-thread state, so they live in the session too: each
// pooled session holds one cache-line-aligned SessionStats cell that only
// the thread using the session writes, and stats() sums the cells of the
// session table. Each abort is counted once, under its reason; the abort
// totals are sums of the reason counts.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "obs/profile.hpp"
#include "obs/taxonomy.hpp"
#include "runtime/assert.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_registry.hpp"

namespace oftm::core {

// Index of a per-thread session within a TM instance. Backends map their
// platform's thread id onto this; any value in [0, kMaxThreads) is valid
// (the conformance harness leases arbitrary slots).
using ThreadSlot = int;

// Backend-specific per-transaction state. Obtained from begin(); passed by
// reference to every subsequent operation of that transaction. A
// descriptor must not outlive its TM and is not thread-safe (the paper:
// transactions at any single process are never concurrent). Descriptors
// are pooled: the same object is reset and reused across transactions of
// its thread slot, so a reference is only meaningful until the next
// begin() on the same session / handle release.
class Transaction {
 public:
  virtual ~Transaction() = default;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  virtual TxStatus status() const = 0;
  virtual TxId id() const = 0;

 protected:
  Transaction() = default;

  // Invoked when a portability-tier handle (TxnPtr) drops this descriptor.
  // A pooled descriptor (PooledTxn) finishes its transaction and returns
  // to its session's free list; a wrapper descriptor frees itself.
  virtual void handle_released() noexcept = 0;

 private:
  friend struct TxnReleaser;
};

// Deleter of the portability tier's handle: recycles the descriptor
// instead of freeing it.
struct TxnReleaser {
  void operator()(Transaction* t) const noexcept {
    if (t != nullptr) t->handle_released();
  }
};

using TxnPtr = std::unique_ptr<Transaction, TxnReleaser>;

// A per-thread execution session: owns the pooled transaction
// descriptor(s) for one thread slot of one TM instance. Obtained from
// TransactionalMemory::session(); a session (and everything begun on it)
// must only be used by one thread at a time.
class TmSession {
 public:
  virtual ~TmSession() = default;
  TmSession(const TmSession&) = delete;
  TmSession& operator=(const TmSession&) = delete;

  ThreadSlot slot() const noexcept { return slot_; }

 protected:
  explicit TmSession(ThreadSlot slot) noexcept : slot_(slot) {}

 private:
  const ThreadSlot slot_;
};

// One session's statistics: commits, reads, writes, backoffs, victim
// kills, the abort count per obs::AbortReason, and (with OFTM_OBS) the
// sampled phase sums and the conflict heat map. One cache-line-aligned
// cell per session, so no two sessions share a line. Only the thread using
// the session writes it (relaxed loads and stores); stats() may read it
// at any time, reset() only at quiescent points.
struct alignas(runtime::kCacheLineSize) SessionStats {
  runtime::OwnedCounter commits;
  runtime::OwnedCounter reads;
  runtime::OwnedCounter writes;
  runtime::OwnedCounter cm_backoffs;
  runtime::OwnedCounter victim_kills;
  runtime::OwnedCounter aborts[obs::kNumAbortReasons];  // by reason
#if OFTM_OBS
  obs::PhaseSums phases;
  obs::HeatMap heat;
#endif

  // Add this session's counts to `s`; TxStats::aborts and forced_aborts
  // are computed here, as sums of the reason counts. The heat-map entries
  // go to `hot` unmerged (see PooledTm::stats).
  void add_to(runtime::TxStats& s, std::vector<obs::HotVar>& hot) const;
  void reset() noexcept;
};

// The pooled session every backend uses: one dedicated hot-tier descriptor
// (stable identity, reset in place by begin(TmSession&)), the portability
// tier's free list, and the session's statistics. Owns every descriptor it
// ever created; they live until the TM is destroyed, and each reaches this
// session (and so its statistics) through its session_ pointer.
class PooledTmSession final : public TmSession {
 public:
  explicit PooledTmSession(ThreadSlot slot) : TmSession(slot) {}

  // Hot tier: the session's dedicated descriptor. Never enters the free
  // list, so its address is stable across transactions — the descriptor
  // reuse the conformance suite pins down.
  template <typename TxnT>
  TxnT& hot() {
    if (hot_ == nullptr) hot_ = &create<TxnT>();
    return static_cast<TxnT&>(*hot_);
  }

  // Portability tier: check a descriptor out of the free list; releasing
  // the handle checks it back in. Allocates only when every owned
  // descriptor is simultaneously live.
  template <typename TxnT>
  TxnT& checkout() {
    if (free_.empty()) return create<TxnT>();
    auto& t = static_cast<TxnT&>(*free_.back());
    free_.pop_back();
    return t;
  }

  SessionStats& stats() noexcept { return stats_; }
  const SessionStats& stats() const noexcept { return stats_; }

 private:
  template <typename>
  friend class PooledTxn;

  template <typename TxnT>
  TxnT& create() {
    auto fresh = std::make_unique<TxnT>();
    TxnT& t = *fresh;
    t.session_ = this;
    owned_.push_back(std::move(fresh));
    // Keep the check-in allocation-free (it runs inside a noexcept
    // releaser).
    free_.reserve(owned_.size());
    return t;
  }

  SessionStats stats_;
  std::vector<std::unique_ptr<Transaction>> owned_;
  std::vector<Transaction*> free_;
  Transaction* hot_ = nullptr;
};

namespace detail {

// Lazily built slot -> session table. Creation is mutex-guarded (it
// happens once per thread per TM); lookups after that are one atomic load.
struct SessionTableState {
  std::array<std::atomic<TmSession*>, runtime::ThreadRegistry::kMaxThreads>
      cells{};
  std::mutex mu;
  std::vector<std::unique_ptr<TmSession>> owned;
};

// Fallback session used by TMs that do not override make_session (wrappers
// like the history recorder): the "pooled descriptor" is whatever the
// virtual begin() hands out, held alive until the next begin on the
// session.
struct FallbackSession final : TmSession {
  explicit FallbackSession(ThreadSlot slot) noexcept : TmSession(slot) {}
  TxnPtr held;
};

}  // namespace detail

class TransactionalMemory {
 public:
  virtual ~TransactionalMemory() = default;

  // ---- Hot tier --------------------------------------------------------

  // The calling thread's pooled session for `slot`. Created on first use;
  // the reference stays valid for the life of the TM.
  TmSession& session(ThreadSlot slot);

  // The session of the calling thread's platform slot. Virtual so
  // simulator-instantiated backends can key it by simulated process id
  // rather than host thread.
  virtual TmSession& this_thread_session();

  // Start a transaction on `session`, resetting and reusing its pooled
  // descriptor (zero allocations after warm-up). At most one transaction
  // per session may be in use at a time: beginning again finishes whatever
  // the previous transaction left behind. The returned reference is valid
  // until the next begin on the same session. A transaction must end on
  // the thread that began it — by commit, abort, or that thread beginning
  // the session again — before the session moves to another thread or
  // the thread exits: DSTM and the region recipes hold that thread's epoch
  // pin until the transaction ends.
  virtual Transaction& begin(TmSession& session);

  // ---- Portability tier ------------------------------------------------

  // Start a new transaction on the calling thread. The handle's releaser
  // recycles the descriptor into the thread's session pool; handles may be
  // live concurrently on one thread (they check out distinct descriptors)
  // and may finish in any order, but must be released on the thread that
  // began them.
  virtual TxnPtr begin() = 0;

  // Read t-variable x within txn. nullopt == abort event A_k: the
  // transaction is aborted and no further operation may be issued in it.
  virtual std::optional<Value> read(Transaction& txn, TVarId x) = 0;

  // Write v to t-variable x within txn. false == abort event A_k.
  virtual bool write(Transaction& txn, TVarId x, Value v) = 0;

  // tryC(Tk): request commit. true == C_k, false == A_k.
  virtual bool try_commit(Transaction& txn) = 0;

  // tryA(Tk): request abort; always succeeds (returns A_k).
  virtual void try_abort(Transaction& txn) = 0;

  // ---- Word tier (optional capability) ---------------------------------
  //
  // Region-backed TMs additionally transact over raw heap words: the
  // ds:: memory-model layer (core/memory_model.hpp) programs against these
  // to lay containers out as tx_alloc'd pointer-linked nodes and
  // contiguous word arrays instead of boxed TVarId arithmetic. The
  // default implementations assert: callers must gate on
  // has_word_access() first (core::RegionMemory does).

  // True iff this TM exposes the word-granular region heap below.
  virtual bool has_word_access() const { return false; }

  // Read/write the heap word at `addr` within txn. Same abort semantics
  // as the TVarId operations: nullopt / false == abort event A_k.
  virtual std::optional<Value> read_word(Transaction& txn, const Value* addr);
  virtual bool write_word(Transaction& txn, Value* addr, Value v);

  // Transactionally allocate a zeroed block (private until commit) /
  // free a block (deferred until commit; forgotten on abort). tx_alloc
  // returns nullptr on arena exhaustion — not an abort: retrying will not
  // help, the caller decides.
  virtual void* tx_alloc(Transaction& txn, std::size_t bytes);
  virtual bool tx_free(Transaction& txn, void* p);

  // Setup-time (quiescent) heap allocation for container roots and word
  // arrays; lives until the TM is destroyed.
  virtual void* alloc_quiescent(std::size_t bytes);

  // Committed value of a heap word observed outside any transaction
  // (quiescence guaranteed by the caller, as with read_quiescent).
  virtual Value read_word_quiescent(const Value* addr) const;

  // Number of t-variables this instance was created with.
  virtual std::size_t num_tvars() const = 0;

  // Committed value of x observed outside any transaction. Only meaningful
  // when the caller can guarantee quiescence (test assertions, warm-up).
  virtual Value read_quiescent(TVarId x) const = 0;

  // Human-readable backend name for reports.
  virtual std::string name() const = 0;

  // Aggregated statistics since construction (or last reset).
  virtual runtime::TxStats stats() const = 0;
  virtual void reset_stats() = 0;

 protected:
  // Backend hook behind session(): build the pooled session for one slot.
  // The default builds a FallbackSession driven through the virtual
  // begin(), so wrappers keep working without knowing about pooling.
  virtual std::unique_ptr<TmSession> make_session(ThreadSlot slot);

  // Tear down every session now (releasing any descriptor handle a
  // fallback session still holds). Wrappers whose transactions reference
  // derived-class state must call this from their own destructor — the
  // base destructor would release those handles only after that state is
  // gone. Not thread-safe; callers guarantee quiescence.
  void release_sessions() noexcept;

  // Calls fn(TmSession&) on every session created so far. Safe while
  // other threads create sessions and run transactions on them.
  template <typename Fn>
  void for_each_session(Fn&& fn) const {
    for (const auto& cell : sessions_.cells) {
      if (TmSession* s = cell.load(std::memory_order_acquire)) fn(*s);
    }
  }

 private:
  detail::SessionTableState sessions_;
};

template <typename Tm>
class PooledTxn;

// The transaction lifecycle, written once for every backend: a CRTP base
// over the backend D on platform P. It owns the pooled sessions, both
// begin entry points, tx-id minting and the statistics; D supplies its
// descriptor type D::Txn (derived from PooledTxn), its protocol
// operations, and two hooks it befriends this base for:
//
//   prepare(Txn&, TxId)  arm a descriptor for a new transaction;
//   finish(Txn&)         end an active transaction: give back whatever it
//                        still holds, mark it aborted, count nothing.
//
// The abandonment rule: a transaction is left unfinished when its handle
// drops or its session begins again. At both points the base calls
// finish. An abandoned transaction is not an abort — finish never counts
// one — and finish is idempotent, so it may run on a transaction that
// already committed or aborted.
//
// Statistics are per session: D counts through stats_of(tx), the cell of
// the session the transaction runs on, and stats() sums the cells.
template <typename D, typename P>
class PooledTm : public TransactionalMemory {
 public:
  TmSession& this_thread_session() final { return session(P::thread_id()); }

  Transaction& begin(TmSession& session) final {
    return start(
        static_cast<PooledTmSession&>(session).hot<typename D::Txn>());
  }

  TxnPtr begin() final {
    return TxnPtr(&start(static_cast<PooledTmSession&>(this_thread_session())
                             .checkout<typename D::Txn>()));
  }

  runtime::TxStats stats() const final {
    runtime::TxStats s;
    runtime::TxStats heat;
    for_each_session([&](const TmSession& session) {
      static_cast<const PooledTmSession&>(session).stats().add_to(
          s, heat.hot_vars);
    });
    // One merge over every session's heat-map entries: duplicate keys
    // summed, then the heaviest 8 kept.
    return s.merge(heat);
  }

  // Quiescent points only: a session's owner may be counting.
  void reset_stats() final {
    for_each_session([](TmSession& session) {
      static_cast<PooledTmSession&>(session).stats().reset();
    });
  }

 protected:
  std::unique_ptr<TmSession> make_session(ThreadSlot slot) final {
    return std::make_unique<PooledTmSession>(slot);
  }

  static auto& txn_cast(Transaction& t) {
    return static_cast<typename D::Txn&>(t);
  }

  // The statistics cell of the session tx runs on.
  static SessionStats& stats_of(PooledTxn<PooledTm>& tx) {
    return tx.session_->stats();
  }

  // Abort funnels: every abort a backend counts goes through exactly one
  // of these, under exactly one reason.

  // An abort the program asked for via tryA. The reason comes from the
  // thread's pending hint: TxView::retry() stamps kExplicitRetry before
  // calling down; a bare tryA defaults to kUserRequested.
  static void count_requested_abort(PooledTxn<PooledTm>& tx) {
    count_abort(tx, obs::take_abort_hint());
  }

  // An abort the TM forced, with its cause and — when one location is
  // blamable — the contended key (TVarId, stripe index, word key) for
  // the conflict heat map.
  static void count_forced_abort(PooledTxn<PooledTm>& tx,
                                 obs::AbortReason reason,
                                 std::uint64_t key = obs::kNoKey) {
#if OFTM_OBS
    if (key != obs::kNoKey) stats_of(tx).heat.hit(key);
#else
    static_cast<void>(key);
#endif
    count_abort(tx, reason);
  }

 private:
  friend class PooledTxn<PooledTm>;

  static void count_abort(PooledTxn<PooledTm>& tx, obs::AbortReason reason) {
    stats_of(tx).aborts[static_cast<std::size_t>(reason)].add();
    OFTM_OBS_ONLY(obs::note_last_abort(reason);)
  }

  // Both begin entry points: finish what the descriptor's previous
  // transaction left behind, then arm it. Adds no shared-memory step, so
  // a simulated begin is exactly the backend's prepare.
  template <typename Txn>
  Txn& start(Txn& tx) {
    // Elects (or not) this transaction for phase-interval sampling.
    OFTM_OBS_ONLY(obs::tick_tx_sample();)
    D& self = static_cast<D&>(*this);
    self.finish(tx);
    tx.tm_ = this;
    self.prepare(tx, next_tx_id());
    return tx;
  }

  void finish_released(PooledTxn<PooledTm>& t) noexcept {
    static_cast<D&>(*this).finish(static_cast<typename D::Txn&>(t));
  }

  // Footnote 3 id discipline: the thread slot in the high bits, a
  // per-thread counter in the low bits.
  static TxId next_tx_id() {
    thread_local std::uint64_t counter = 0;
    return make_tx_id(P::thread_id(), ++counter);
  }
};

// The descriptor half of PooledTm: every backend's descriptor derives from
// it (Tm is the backend's PooledTm).
template <typename Tm>
class PooledTxn : public Transaction {
 protected:
  PooledTxn() = default;

 private:
  friend Tm;
  friend class PooledTmSession;

  // Only checked-out descriptors reach here; the hot one is never handed
  // out as a handle.
  void handle_released() noexcept final {
    tm_->finish_released(*this);
    session_->free_.push_back(this);
  }

  Tm* tm_ = nullptr;                    // set by every begin
  PooledTmSession* session_ = nullptr;  // the session that created it
};

// Identity and status held in the descriptor itself: every backend but
// DSTM, whose status lives in the TxDesc other transactions CAS.
template <typename Tm>
class StatusTxn : public PooledTxn<Tm> {
 public:
  TxStatus status() const override { return status_; }
  TxId id() const override { return id_; }

 protected:
  TxId id_ = 0;
  // A pooled descriptor is born finished; the backend's prepare arms it.
  TxStatus status_ = TxStatus::kAborted;
};

}  // namespace oftm::core
