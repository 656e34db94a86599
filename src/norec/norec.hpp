// NOrec: a progressive lock-based STM with no ownership records — one
// global sequence lock, invisible reads, commit-time *value-based*
// revalidation, and lazy write-back (Dalessandro, Spear & Scott, PPoPP'10).
//
// Why it is in this repo: the source paper argues obstruction-free TMs pay
// an inherent price; the strongest counterpoint in the literature
// ("Why Transactional Memory Should Not Be Obstruction-Free", Kuznetsov &
// Ravi; "Progressive Transactional Memory in Time and Space") is exactly a
// minimal progressive, blocking TM of this shape. NOrec guarantees:
//
//   * progressiveness — a transaction is forcefully aborted only when a
//     concurrent transaction *committed* a conflicting write since its
//     snapshot (value inequality is the conflict witness);
//   * system-wide progress (livelock freedom) — the commit CAS on the
//     sequence lock fails only because some other transaction committed;
//   * opacity — every successful read is consistent with the whole read
//     set at the transaction's current snapshot time.
//
// What it gives up is obstruction freedom: a committer that stalls while
// holding the sequence lock (odd value) blocks every other commit and
// validation. That trade is the comparison this backend anchors.
//
// Value-based validation also means the classic version-clock ABA case
// (write x:=b, then a later transaction restores x:=a) does NOT abort a
// reader that saw a — the snapshot is still semantically consistent.
// tests/norec_test.cpp pins this behaviour down against TL2.
//
// Written once over an addressing policy A (core/addressing.hpp). NOrec
// needs no per-location metadata, so it never touches A's meta word and
// the region instantiation allocates no stripe table.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/addressing.hpp"
#include "core/platform.hpp"
#include "core/region.hpp"
#include "core/tm.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/xorshift.hpp"

namespace oftm::norec {

struct NorecOptions {
  // Gate the per-read write-set lookup behind a 64-bit Bloom filter (two
  // hash bits per location): a definite miss skips the probe entirely.
  // The classic NOrec hot-path optimisation; off by default so plain
  // "norec" matches the published algorithm and benches isolate the
  // filter's effect.
  bool bloom_reads = false;
};

// Two bits in a 64-bit word per location key.
inline constexpr std::uint64_t bloom_mask(std::uint64_t key) noexcept {
  const std::uint64_t h = runtime::mix64(key + 1);
  return (std::uint64_t{1} << (h & 63)) | (std::uint64_t{1} << ((h >> 6) & 63));
}

// Not final (NorecRegion derives to add the word tier); the operations
// are, so calls through a concrete Norec still devirtualize.
template <typename A>
class Norec : public core::PooledTm<Norec<A>, typename A::Platform> {
  using Base = core::PooledTm<Norec, typename A::Platform>;
  using P = typename A::Platform;
  using Loc = typename A::Loc;
  template <typename T>
  using Atomic = typename P::template Atomic<T>;

 public:
  class Txn final : public core::AddressedTxn<Base, typename A::TxLog> {
   private:
    friend class Norec;
    struct ReadEntry {
      Loc loc;
      core::Value value;  // the value this transaction observed
    };
    std::uint64_t snapshot_ = 0;  // even sequence-lock value the reads are
                                  // currently validated against
    std::vector<ReadEntry> reads_;
    core::WriteSet<Loc> writes_;
    std::uint64_t write_filter_ = 0;
  };

  explicit Norec(std::size_t num_tvars, NorecOptions options = {},
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
    // Counted after the read's loads, as in Tl2::read_at.
    this->stats_of(tx).reads.add();
    return v;
  }

  bool write_at(Txn& tx, Loc loc, core::Value v) {
    this->stats_of(tx).writes.add();
    if (tx.status_ != core::TxStatus::kActive) return false;
    if (tx.log_.owns(loc)) {
      mem_.store(loc, v, std::memory_order_relaxed);
      return true;
    }
    tx.writes_.put(loc, v);
    tx.write_filter_ |= bloom_mask(core::location_key(loc));
    return true;
  }

  bool try_commit(core::Transaction& t) final {
    auto& tx = this->txn_cast(t);
    if (tx.status_ != core::TxStatus::kActive) return false;

    // Read-only fast path: every read was validated against snapshot_ at
    // read time; nothing to publish, and the global clock is not touched
    // (read-only transactions are invisible end to end).
    if (tx.writes_.empty()) {
      finish_commit(tx);
      return true;
    }

    // Acquire the sequence lock at exactly our snapshot. A failed CAS
    // means some other transaction committed (or is committing) since the
    // snapshot — the livelock-freedom witness — so revalidate by value and
    // retry from the newer snapshot.
    std::uint64_t s = tx.snapshot_;
    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kCommitLock);
      while (!seqlock_.value.compare_exchange_strong(
          s, s + 1, std::memory_order_seq_cst)) {
        this->stats_of(tx).cm_backoffs.add();
        std::uint64_t culprit = obs::kNoKey;
        if (!revalidate(tx, &culprit)) {
          // The seqlock moved (a concurrent commit) and the read set no
          // longer revalidates at the newer snapshot.
          abort_forced(tx, obs::AbortReason::kSnapshotChanged, culprit);
          return false;
        }
        s = tx.snapshot_;
      }
    }

    // Lock held (odd value): lazy write-back, then release with the next
    // even value. A stall here blocks everyone — the obstruction-freedom
    // trade this backend exists to quantify.
    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kWriteBack);
      tx.writes_.for_each([&](Loc loc, core::Value v) {
        mem_.store(loc, v, std::memory_order_seq_cst);
      });
    }
    seqlock_.value.store(tx.snapshot_ + 2, std::memory_order_seq_cst);
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
    return mem_.load(mem_.loc(x), std::memory_order_seq_cst);
  }
  std::string name() const final {
    return std::string("norec") + A::kNameSuffix +
           (options_.bloom_reads ? "+bloom" : "");
  }

 private:
  friend Base;

  std::optional<core::Value> read_uncounted(Txn& tx, Loc loc) {
    if (tx.status_ != core::TxStatus::kActive) return std::nullopt;

    // Read-your-own-writes from the redo log. With the Bloom ablation a
    // definite filter miss skips the probe.
    {
      OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kReadLookup);
      if (!tx.writes_.empty() &&
          (!options_.bloom_reads ||
           (tx.write_filter_ & bloom_mask(core::location_key(loc))) ==
               bloom_mask(core::location_key(loc)))) {
        if (const core::Value* w = tx.writes_.find(loc)) return *w;
      }
      // A private block: invisible to everyone else, so no snapshot
      // discipline applies (and it must not enter the read set — its
      // values may legitimately change in place under this transaction).
      if (tx.log_.owns(loc)) return mem_.load(loc, std::memory_order_relaxed);
    }

    // Invisible read with post-validation: the value is consistent iff the
    // sequence lock still equals our snapshot *after* the value load (no
    // commit intervened). If the clock moved, revalidate the whole read
    // set by value and adopt the newer snapshot.
    core::Value v = mem_.load(loc, std::memory_order_seq_cst);
    while (seqlock_.value.load(std::memory_order_seq_cst) != tx.snapshot_) {
      if (!revalidate(tx)) {
        abort_forced(tx, obs::AbortReason::kReadValidation,
                     core::location_key(loc));
        return std::nullopt;
      }
      v = mem_.load(loc, std::memory_order_seq_cst);
    }
    tx.reads_.push_back({loc, v});
    return v;
  }

  // Re-arm a pooled descriptor: read/write-set capacity survives, nothing
  // allocates.
  void prepare(Txn& tx, core::TxId id) {
    mem_.begin(tx.log_);
    // Snapshot an even (quiescent) sequence-lock value. All shared-word
    // accesses in this backend are seq_cst: the correctness argument of the
    // sequence-lock protocol is then a statement about the single total
    // order S — and seq_cst loads cost the same as acquire loads on the
    // read hot path of every ISA we target.
    std::uint64_t s = seqlock_.value.load(std::memory_order_seq_cst);
    while (s & 1) {
      P::pause();
      s = seqlock_.value.load(std::memory_order_seq_cst);
    }
    tx.id_ = id;
    tx.snapshot_ = s;
    tx.status_ = core::TxStatus::kActive;
    tx.reads_.clear();
    tx.writes_.clear();
    tx.write_filter_ = 0;
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

  // Value-based revalidation: wait out any in-flight write-back, re-read
  // every read-set entry, and confirm the sequence lock did not move while
  // we looked. On success the transaction adopts the newer snapshot (its
  // reads are consistent *now*, not just at the old time); failure means a
  // conflicting write committed — the only way NOrec ever force-aborts.
  bool revalidate(Txn& tx, std::uint64_t* culprit = nullptr) {
    OFTM_OBS_PHASE(this->stats_of(tx).phases, obs::Phase::kValidation);
    for (;;) {
      std::uint64_t time = seqlock_.value.load(std::memory_order_seq_cst);
      if (time & 1) {
        P::pause();
        continue;
      }
      bool values_match = true;
      for (const auto& r : tx.reads_) {
        if (mem_.load(r.loc, std::memory_order_seq_cst) != r.value) {
          if (culprit != nullptr) *culprit = core::location_key(r.loc);
          values_match = false;
          break;
        }
      }
      if (!values_match) return false;
      if (seqlock_.value.load(std::memory_order_seq_cst) == time) {
        tx.snapshot_ = time;
        return true;
      }
      // The clock moved under us: some commit raced the scan; try again.
    }
  }

  void abort_forced(Txn& tx, obs::AbortReason reason, std::uint64_t key) {
    tx.roll_back();
    this->count_forced_abort(tx, reason, key);
  }

  const NorecOptions options_;
  A mem_;
  // The one and only ownership record: even = quiescent, odd = a committer
  // is writing back. Every conflict in this TM is mediated here.
  runtime::CacheAligned<Atomic<std::uint64_t>> seqlock_{0};
};

using HwNorec = Norec<core::BoxedSlots<core::HwPlatform>>;

// NOrec over region words (no stripe table), serving the word tier. A
// named class rather than an alias, so diagnostics and typed-test names
// read "NorecRegion".
class NorecRegion final
    : public core::RegionWordTier<Norec<core::RegionWords<>>> {
 public:
  using RegionWordTier::RegionWordTier;
};

}  // namespace oftm::norec
