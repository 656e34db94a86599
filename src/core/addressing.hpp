// Addressing policies: where the locations of a protocol live.
//
// TL2 (src/lock/tl2.hpp) and NOrec (src/norec/norec.hpp) are each written
// once, as a class template over an addressing policy A. Their read,
// write, commit, validate and revalidate bodies only call policy members;
// everything the boxed and region instantiations differ in lives here:
//
//   A::Loc, loc(x)      what a location is, and how a TVarId maps to one;
//   load / store        how a value is loaded and stored;
//   meta_key / meta     the per-location metadata word TL2 locks (NOrec
//                       has none and never calls these);
//   A::TxLog            what a transaction owns besides its read and write
//                       sets: owns(loc) says whether a location is private
//                       to it; commit() / rollback() settle private blocks
//                       and the epoch pin at the end.
//
// BoxedSlots<P> (below) runs on core::HwPlatform and sim::SimPlatform
// alike; RegionWords<S> (core/region.hpp) transacts over heap words.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/tm.hpp"
#include "core/types.hpp"
#include "runtime/assert.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/xorshift.hpp"

namespace oftm::core {

// A location's 64-bit identity: what the write set and Bloom filter hash,
// and the key the obs heat map reports. The TVarId for boxed slots, the
// word index (address >> 3) for region words.
inline constexpr std::uint64_t location_key(TVarId x) noexcept { return x; }
inline std::uint64_t location_key(const Value* addr) noexcept {
  return reinterpret_cast<std::uintptr_t>(addr) >> 3;
}

// The location no entry ever has: marks an empty write-set entry.
template <typename Loc>
inline constexpr Loc kNoLoc = Loc{};
template <>
inline constexpr TVarId kNoLoc<TVarId> = kInvalidTVar;

// The redo log of both protocols: location -> value, open addressing with
// linear probing, power-of-two capacity grown geometrically. clear() keeps
// the capacity, so a pooled descriptor's write set warms up once and then
// never allocates again. The per-read lookup is the price lazy write-back
// pays; NOrec's Bloom ablation gates most of it away.
template <typename Loc>
class WriteSet {
 public:
  WriteSet() : table_(kInitialCapacity) {}

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void clear() noexcept {
    if (size_ == 0) return;
    for (Entry& e : table_) e = Entry{};
    size_ = 0;
  }

  const Value* find(Loc loc) const noexcept {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = slot_of(loc, mask);; i = (i + 1) & mask) {
      const Entry& e = table_[i];
      if (e.loc == loc) return &e.value;
      if (e.loc == kNoLoc<Loc>) return nullptr;
    }
  }

  void put(Loc loc, Value v) {
    if (size_ * 2 >= table_.size()) grow();
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = slot_of(loc, mask);; i = (i + 1) & mask) {
      Entry& e = table_[i];
      if (e.loc == loc) {
        e.value = v;
        return;
      }
      if (e.loc == kNoLoc<Loc>) {
        e = Entry{loc, v};
        ++size_;
        return;
      }
    }
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const Entry& e : table_) {
      if (e.loc != kNoLoc<Loc>) f(e.loc, e.value);
    }
  }

 private:
  struct Entry {
    Loc loc = kNoLoc<Loc>;
    Value value = 0;
  };
  static constexpr std::size_t kInitialCapacity = 16;

  static std::size_t slot_of(Loc loc, std::size_t mask) noexcept {
    return static_cast<std::size_t>(runtime::mix64(location_key(loc))) & mask;
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.size() * 2, Entry{});
    const std::size_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.loc == kNoLoc<Loc>) continue;
      for (std::size_t i = slot_of(e.loc, mask);; i = (i + 1) & mask) {
        if (table_[i].loc == kNoLoc<Loc>) {
          table_[i] = e;
          break;
        }
      }
    }
  }

  std::vector<Entry> table_;
  std::size_t size_ = 0;
};

// Descriptor fields both protocols keep: identity, status and the
// addressing's per-transaction log.
template <typename Log>
class AddressedTxn : public Transaction {
 public:
  TxStatus status() const override { return status_; }
  TxId id() const override { return id_; }

 protected:
  // A dropped handle may leave its transaction active. It is abandoned:
  // rolled back, and — as on every recipe — not counted as an abort.
  void handle_released() noexcept override {
    if (status_ == TxStatus::kActive) roll_back();
    Transaction::handle_released();
  }

  // Mark an active transaction aborted and give back what its log holds
  // (private blocks, the epoch pin). Counting the abort, if it is one, is
  // the caller's business.
  void roll_back() noexcept {
    log_.rollback();
    status_ = TxStatus::kAborted;
  }

  TxId id_ = 0;
  // A pooled descriptor is born finished; the protocol's prepare arms it.
  TxStatus status_ = TxStatus::kAborted;
  Log log_;

 private:
  template <typename>
  friend class RegionWordTier;
};

// Boxed addressing: TVarId x is slot x, a cache line holding x's value
// next to one metadata word (TL2's versioned lock; NOrec leaves it unused
// in the slot's padding). Every access is one P::Atomic operation, so on
// sim::SimPlatform each is a step the scheduler sees.
template <typename P>
class BoxedSlots {
  template <typename T>
  using Atomic = typename P::template Atomic<T>;

 public:
  using Platform = P;
  using Loc = TVarId;
  struct Options {};
  // Nothing is private to a transaction and nothing is pinned: every hook
  // is empty, so the boxed hot paths carry no log work.
  struct TxLog {
    static constexpr bool owns(Loc) noexcept { return false; }
    void commit() noexcept {}
    void rollback() noexcept {}
  };
  static constexpr const char* kNameSuffix = "";

  explicit BoxedSlots(std::size_t num_tvars, Options = {})
      : num_tvars_(num_tvars), slots_(std::make_unique<Slot[]>(num_tvars)) {}

  std::size_t num_tvars() const noexcept { return num_tvars_; }
  Loc loc(TVarId x) const noexcept {
    OFTM_ASSERT(x < num_tvars_);
    return x;
  }

  Value load(Loc x, std::memory_order mo) const {
    return slots_[x].value.load(mo);
  }
  void store(Loc x, Value v, std::memory_order mo) {
    slots_[x].value.store(v, mo);
  }

  std::uint32_t meta_key(Loc x) const noexcept { return x; }
  Atomic<std::uint64_t>& meta(std::uint32_t key) noexcept {
    return slots_[key].meta;
  }

  void begin(TxLog&) noexcept {}

 private:
  struct alignas(runtime::kCacheLineSize) Slot {
    Atomic<std::uint64_t> meta{0};
    Atomic<Value> value{0};
  };

  const std::size_t num_tvars_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace oftm::core
