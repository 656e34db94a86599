// TL2: commit-time locking with a global version clock [10].
//
// The paper singles this design out as the *exception* among lock-based
// TMs: "Notable exceptions are those TMs that use global timestamps in
// order to speed up the read validation process, e.g., TL2 [10] ... every
// transaction has to access a common memory location to determine its
// timestamp." — i.e., TL2 is NOT strictly disjoint-access-parallel by
// construction (the global clock is a base object shared by all
// transactions), but for the benign reason of a read-mostly-shared counter
// rather than DSTM's read-write descriptor hot spots. The DAP experiments
// report TL2's clock conflicts separately to make that distinction visible.
//
// Written once over an addressing policy A (core/addressing.hpp). TL2 owns
// its lock metadata through A's meta word: boxed slots keep the versioned
// lock inside each slot (the conflict unit is the t-variable); region
// words keep it in a lock::StripeTable hashed from the address (the
// conflict unit is the stripe — aliasing can only manufacture conflicts,
// never hide one).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/addressing.hpp"
#include "core/platform.hpp"
#include "core/region.hpp"
#include "core/tm.hpp"
#include "lock/stripe_table.hpp"
#include "lock/versioned_lock.hpp"
#include "runtime/cacheline.hpp"

namespace oftm::lock {

// Spins per commit-time lock before the committer self-aborts.
inline constexpr int kTl2LockPatience = 64;

struct Tl2Options {
  // Read-version extension: on a stale read (version > rv), revalidate the
  // read set against the current clock and, if every recorded version is
  // untouched, adopt the new clock value as rv instead of aborting. The
  // classic TL2 refinement; off by default to match the base algorithm —
  // bench_throughput compares both.
  bool rv_extension = false;
};

// Not final (Tl2Region derives to add the word tier); the operations are,
// so calls through a concrete Tl2 still devirtualize.
template <typename A>
class Tl2 : public core::PooledTm<Tl2<A>, typename A::Platform> {
  using Base = core::PooledTm<Tl2, typename A::Platform>;
  using P = typename A::Platform;
  using Loc = typename A::Loc;
  template <typename T>
  using Atomic = typename P::template Atomic<T>;

 public:
  class Txn final : public core::AddressedTxn<Base, typename A::TxLog> {
   private:
    friend class Tl2;
    struct ReadEntry {
      std::uint32_t key;      // lock key (meta_key) of the location read
      std::uint64_t version;  // lock version observed at read time
    };
    struct CommitEntry {
      Loc loc;
      core::Value value;
      std::uint32_t key;
    };
    std::uint64_t rv_ = 0;  // read version (global clock at begin)
    std::vector<ReadEntry> reads_;
    core::WriteSet<Loc> writes_;
    // Commit-path scratch, kept across transactions so the commit protocol
    // allocates nothing after warm-up: the redo log sorted by lock key,
    // the keys locked (ascending) and their pre-lock versions.
    std::vector<CommitEntry> commit_set_;
    std::vector<std::uint32_t> locked_;
    std::vector<std::uint64_t> lock_versions_;
  };

  explicit Tl2(std::size_t num_tvars, Tl2Options options = {},
               typename A::Options layout = {})
      : options_(options), mem_(num_tvars, layout) {}

  A& memory() noexcept { return mem_; }
  const A& memory() const noexcept { return mem_; }

  std::optional<core::Value> read(core::Transaction& t,
                                  core::TVarId x) final {
    return read_at(this->txn_cast(t), mem_.loc(x));
  }

  bool write(core::Transaction& t, core::TVarId x, core::Value v) final {
    return write_at(this->txn_cast(t), mem_.loc(x), v);
  }

  std::optional<core::Value> read_at(Txn& tx, Loc loc) {
    const std::optional<core::Value> v = read_uncounted(tx, loc);
    // Counted after the read's loads: a counter store ahead of them made
    // 64-read scans over a cache-missing heap about a third slower.
    this->stats_of(tx).reads.add();
    return v;
  }

  bool write_at(Txn& tx, Loc loc, core::Value v) {
    this->stats_of(tx).writes.add();
    if (tx.status_ != core::TxStatus::kActive) return false;
    if (tx.log_.owns(loc)) {
      // Private block: write in place, no redo log, no commit-time lock.
      mem_.store(loc, v, std::memory_order_relaxed);
      return true;
    }
    tx.writes_.put(loc, v);
    return true;
  }

  bool try_commit(core::Transaction& t) final {
    auto& tx = this->txn_cast(t);
    if (tx.status_ != core::TxStatus::kActive) return false;

    // Read-only fast path: every read was validated against rv at read
    // time; nothing to lock.
    if (tx.writes_.empty()) {
      finish_commit(tx);
      return true;
    }

    // Sort the redo log by lock key and take each lock once, in ascending
    // order (deadlock avoidance), with bounded spins (self-abort
    // liveness, as in the original).
    auto& cs = tx.commit_set_;
    cs.clear();
    tx.writes_.for_each([&](Loc loc, core::Value v) {
      cs.push_back({loc, v, mem_.meta_key(loc)});
    });
    std::sort(cs.begin(), cs.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });

    std::vector<std::uint32_t>& locked = tx.locked_;
    std::vector<std::uint64_t>& base = tx.lock_versions_;
    locked.clear();
    base.clear();
    typename P::Backoff backoff;
    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kCommitLock);
      for (const auto& e : cs) {
        if (!locked.empty() && locked.back() == e.key) continue;
        auto& lock = mem_.meta(e.key);
        int spin = 0;
        for (;;) {
          std::uint64_t w = lock.load(std::memory_order_acquire);
          if (!LockWord::locked(w)) {
            const std::uint64_t held =
                LockWord::pack(LockWord::version(w), true);
            if (lock.compare_exchange_strong(w, held,
                                             std::memory_order_acq_rel)) {
              locked.push_back(e.key);
              base.push_back(LockWord::version(w));
              break;
            }
          }
          if (++spin > kTl2LockPatience) {
            unlock(tx);
            abort_forced(tx, obs::AbortReason::kLockTimeout, e.key);
            return false;
          }
          this->stats_of(tx).cm_backoffs.add();
          OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kBackoff);
          backoff.pause();
        }
      }
    }

    // Commit timestamp from the shared clock.
    const std::uint64_t wv =
        clock_.value.fetch_add(1, std::memory_order_acq_rel) + 1;

    // Validate the read set unless nobody could have committed in between.
    // A lock this transaction holds may appear locked.
    if (tx.rv_ + 1 != wv) {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kValidation);
      for (const auto& r : tx.reads_) {
        const bool own =
            std::binary_search(locked.begin(), locked.end(), r.key);
        const std::uint64_t w =
            mem_.meta(r.key).load(std::memory_order_acquire);
        if ((LockWord::locked(w) && !own) || LockWord::version(w) > tx.rv_) {
          unlock(tx);
          abort_forced(tx, obs::AbortReason::kReadValidation, r.key);
          return false;
        }
      }
    }

    // For each lock: write back its words, then release it with the
    // commit version.
    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kWriteBack);
      std::size_t i = 0;
      for (const std::uint32_t key : locked) {
        for (; i < cs.size() && cs[i].key == key; ++i) {
          mem_.store(cs[i].loc, cs[i].value, std::memory_order_relaxed);
        }
        mem_.meta(key).store(LockWord::pack(wv, false),
                             std::memory_order_release);
      }
    }
    finish_commit(tx);
    return true;
  }

  void try_abort(core::Transaction& t) final {
    auto& tx = this->txn_cast(t);
    if (tx.status_ != core::TxStatus::kActive) return;
    tx.roll_back();
    this->count_requested_abort(tx);
  }

  std::size_t num_tvars() const final { return mem_.num_tvars(); }
  core::Value read_quiescent(core::TVarId x) const final {
    return mem_.load(mem_.loc(x), std::memory_order_acquire);
  }
  std::string name() const final {
    return std::string("tl2") + A::kNameSuffix +
           (options_.rv_extension ? "+ext" : "");
  }

 private:
  friend Base;

  std::optional<core::Value> read_uncounted(Txn& tx, Loc loc) {
    if (tx.status_ != core::TxStatus::kActive) return std::nullopt;

    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kReadLookup);
      if (!tx.writes_.empty()) {
        if (const core::Value* w = tx.writes_.find(loc)) return *w;
      }
      // A private block: nobody else can touch it, and its lock carries
      // whatever version the address range's previous life left behind.
      if (tx.log_.owns(loc)) return mem_.load(loc, std::memory_order_relaxed);
    }

    const std::uint32_t key = mem_.meta_key(loc);
    auto& lock = mem_.meta(key);
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t w1 = lock.load(std::memory_order_acquire);
      const core::Value v = mem_.load(loc, std::memory_order_relaxed);
      const std::uint64_t w2 = lock.load(std::memory_order_acquire);
      // Valid iff stable, unlocked, and not newer than our read version.
      if (w1 == w2 && !LockWord::locked(w1) &&
          LockWord::version(w1) <= tx.rv_) {
        tx.reads_.push_back({key, LockWord::version(w1)});
        return v;
      }
      // Stale or unstable: try extending rv once, then give up.
      if (pass == 0 && options_.rv_extension && try_extend(tx)) continue;
      break;
    }
    abort_forced(tx, obs::AbortReason::kReadValidation, key);
    return std::nullopt;
  }

  // Re-arm a pooled descriptor; set capacity survives.
  void prepare(Txn& tx, core::TxId id) {
    mem_.begin(tx.log_);
    // The shared-clock read that makes TL2 non-strictly-DAP.
    tx.rv_ = clock_.value.load(std::memory_order_acquire);
    tx.id_ = id;
    tx.status_ = core::TxStatus::kActive;
    tx.reads_.clear();
    tx.writes_.clear();
  }

  // Nothing is locked between operations: only the log needs giving back.
  void finish(Txn& tx) noexcept {
    if (tx.status_ == core::TxStatus::kActive) tx.roll_back();
  }

  void finish_commit(Txn& tx) {
    tx.log_.commit();
    tx.status_ = core::TxStatus::kCommitted;
    this->stats_of(tx).commits.add();
  }

  // rv extension: sound iff every recorded read is still current at the
  // *new* clock value — the snapshot simply turns out to be fresher than
  // first assumed.
  bool try_extend(Txn& tx) {
    OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kValidation);
    const std::uint64_t new_rv = clock_.value.load(std::memory_order_acquire);
    if (new_rv <= tx.rv_) return false;
    for (const auto& r : tx.reads_) {
      const std::uint64_t w = mem_.meta(r.key).load(std::memory_order_acquire);
      if (LockWord::locked(w) || LockWord::version(w) != r.version) {
        return false;
      }
    }
    tx.rv_ = new_rv;
    return true;
  }

  // Release every lock taken so far at its pre-lock version.
  void unlock(Txn& tx) {
    for (std::size_t i = 0; i < tx.locked_.size(); ++i) {
      mem_.meta(tx.locked_[i])
          .store(LockWord::pack(tx.lock_versions_[i], false),
                 std::memory_order_release);
    }
  }

  void abort_forced(Txn& tx, obs::AbortReason reason, std::uint64_t key) {
    tx.roll_back();
    this->count_forced_abort(tx, reason, key);
  }

  const Tl2Options options_;
  A mem_;
  runtime::CacheAligned<Atomic<std::uint64_t>> clock_{0};
};

using HwTl2 = Tl2<core::BoxedSlots<core::HwPlatform>>;

// TL2 over region words, locks in a lock::StripeTable, serving the word
// tier. A named class rather than an alias, so diagnostics and typed-test
// names read "Tl2Region".
class Tl2Region final
    : public core::RegionWordTier<Tl2<core::RegionWords<StripeTable>>> {
 public:
  using RegionWordTier::RegionWordTier;
};

}  // namespace oftm::lock
