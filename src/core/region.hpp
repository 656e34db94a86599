// The region tier: transactions over the words of a byte-addressable heap.
//
// Every transactional datum elsewhere in this repo is a boxed TVar with
// per-object metadata — fine for the paper's proofs, hopeless for the
// scale story (10M+ words) and for studying the cache/false-sharing design
// real STMs confront. The region tier transacts over *raw memory* instead,
// the TL2 ("Transactional Locking II", Dice/Shalev/Shavit) per-stripe
// design: word-granular accesses, metadata in a global lock-stripe array
// (src/lock/stripe_table.hpp) hashed from the word's address, and a heap
// whose blocks can be allocated and freed *inside* transactions.
//
// There are no region ports of the protocols: TL2 and NOrec are each
// written once over an addressing policy (core/addressing.hpp), and this
// header supplies the region one:
//
//   RegionOptions  — capacity plus the two false-sharing knobs (stripe
//                    count, stripe granularity) the stripe table reads.
//   RegionHeap     — a fixed-capacity arena with size-class free lists.
//                    alloc()/free_now() are immediate (used for setup and
//                    for the allocations of *aborted* transactions, which
//                    were never visible to anyone); retire() defers reuse
//                    through an EpochManager grace period so a block freed
//                    by a committed transaction is never recycled while a
//                    concurrent (doomed) reader may still dereference it.
//   RegionTxLog    — a transaction's private blocks, deferred frees and
//                    epoch pin.
//   RegionWords    — the addressing policy: a location is a heap word, and
//                    TVarId x is word x of a t-var array in the same heap.
//   RegionWordTier — the word tier of core::TransactionalMemory, which only
//                    region instantiations (lock::Tl2Region,
//                    norec::NorecRegion) carry.
//
// Reclamation safety argument, in one place because both protocols lean
// on it: a region transaction holds an epoch Guard for its whole active
// lifetime (begin -> commit/abort). A pointer to a block can only
// be obtained from a consistent snapshot, and the transaction that frees a
// block unlinks it in the same transaction (standard malloc discipline),
// so a transaction started after the free commits can never reach the
// block; a transaction started before is pinned and blocks recycling.
// Reads of a retired-but-not-recycled block stay memory-safe (the arena is
// never unmapped) and are value-stable (retire does not write), so TL2
// version validation and NOrec value revalidation both remain sound.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/addressing.hpp"
#include "core/platform.hpp"
#include "core/tm.hpp"
#include "core/types.hpp"
#include "runtime/assert.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/epoch.hpp"
#include "runtime/spin_lock.hpp"

namespace oftm::core {

struct RegionOptions {
  // Arena size. 0 = derived from the t-var count: the t-var array plus
  // 1 MiB of headroom for transactional alloc/free.
  std::size_t capacity_bytes = 0;

  // log2 of the number of lock stripes in the global versioned-lock table.
  // 0 = auto: next_pow2(words) clamped to [2^14, 2^22]. More stripes =
  // fewer false conflicts but a larger always-hot metadata array; this is
  // one axis of the false-sharing design space the region tier exists to
  // expose.
  unsigned stripe_count_log2 = 0;

  // log2 of the bytes that map onto one stripe (>= 3, i.e. at least one
  // 64-bit word). 3 = per-word metadata (TL2's default), 6 = one stripe
  // per cache line — coarser granules trade metadata footprint for
  // word-adjacency false conflicts. The other axis of the sweep.
  unsigned granularity_log2 = 3;
};

// Fixed-capacity transactional arena. Thread-safe; allocation is a
// size-class free-list pop (per-class spin lock) with a bump-pointer
// fallback, so steady-state transactional workloads that do not allocate
// touch it not at all, and alloc/free churn costs one small critical
// section. Returned payloads are 16-byte aligned and zeroed.
class RegionHeap {
 public:
  explicit RegionHeap(std::size_t capacity_bytes);

  RegionHeap(const RegionHeap&) = delete;
  RegionHeap& operator=(const RegionHeap&) = delete;

  // Immediate allocation; nullptr when the arena is exhausted.
  void* alloc(std::size_t payload_bytes);

  // Immediate reuse. Only legal when no concurrent reader can hold the
  // pointer: setup/teardown, or the alloc-undo of an aborted transaction
  // (its blocks were never published).
  void free_now(void* payload);

  // Deferred reuse through the heap's epoch manager: the block re-enters
  // the free lists only after a grace period. The path committed tx_free
  // takes.
  void retire(void* payload);

  bool contains(const void* p) const noexcept {
    const std::byte* b = static_cast<const std::byte*>(p);
    return b >= arena_.get() && b < arena_.get() + capacity_;
  }

  // Usable payload bytes of a live block.
  std::size_t block_bytes(const void* payload) const;

  std::size_t capacity() const noexcept { return capacity_; }
  // Bytes currently under allocated blocks (headers included); retired
  // blocks count until their grace period elapses.
  std::size_t allocated_bytes() const noexcept {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }

  // The manager region transactions pin and tx_free retires through. Each
  // heap owns its instance (the PR-4-hardened EpochManager) so teardown
  // can drain every pending retirement back into free lists that are
  // still alive, and so a long-pinned reader elsewhere in the process
  // cannot stall region reclamation.
  runtime::EpochManager& epochs() noexcept { return epochs_; }

  // Test/teardown helper: advance + sweep until nothing this thread
  // retired remains pending. Caller guarantees quiescence.
  void flush_reclamation();

 private:
  // 16-byte header in front of every payload: total block size (header
  // included) + an allocation-state word that turns double free / foreign
  // pointer bugs into assertions instead of corruption.
  struct BlockHeader {
    std::uint64_t total_bytes;
    std::uint64_t state;
  };
  static constexpr std::uint64_t kStateAllocated = 0xA110CA7Eu;
  static constexpr std::uint64_t kStateFree = 0xF4EEB10Cu;
  static constexpr std::size_t kHeaderBytes = sizeof(BlockHeader);
  // Smallest block: header + one free-list link, rounded to pow2.
  static constexpr std::size_t kMinBlockBytes = 32;
  // Blocks up to this total size use power-of-two size classes; larger
  // ones are rounded to 256 B and recycled through an exact-fit pool.
  static constexpr std::size_t kLargeThreshold = std::size_t{1} << 16;
  static constexpr std::size_t kLargeQuantum = 256;
  static constexpr int kNumClasses = 12;  // 32 .. 65536

  static std::size_t round_total(std::size_t payload_bytes) noexcept;
  static int class_of(std::size_t total) noexcept;

  BlockHeader* header_of(void* payload) const {
    return reinterpret_cast<BlockHeader*>(static_cast<std::byte*>(payload) -
                                          kHeaderBytes);
  }

  void* pop_free(std::size_t total);
  void push_free(std::byte* block, std::size_t total);
  void* bump(std::size_t total);

  struct alignas(64) FreeList {
    runtime::SpinLock lock;
    std::byte* head = nullptr;  // link stored in the block payload area
  };

  struct ArenaDeleter {
    void operator()(std::byte* p) const noexcept {
      ::operator delete(p, std::align_val_t{runtime::kCacheLineSize});
    }
  };

  std::size_t capacity_ = 0;
  // RAII member, not a manual delete in a destructor body: ~EpochManager
  // (below, destroyed first) drains pending retirements through free_now,
  // which reads block headers inside the arena — the arena must outlive it.
  std::unique_ptr<std::byte[], ArenaDeleter> arena_;
  std::atomic<std::size_t> bump_{0};
  std::atomic<std::size_t> allocated_bytes_{0};
  FreeList classes_[kNumClasses];
  runtime::SpinLock large_lock_;
  std::vector<std::pair<std::byte*, std::size_t>> large_pool_;
  // Declared last: destroyed first, draining pending retirements back into
  // the free lists above while they still exist.
  runtime::EpochManager epochs_;
};

// The region addressing's per-transaction log: blocks allocated inside the
// transaction (private until commit, read and written in place), frees
// deferred to commit, and the epoch pin held for the whole active
// lifetime.
class RegionTxLog {
 public:
  bool owns(const Value* addr) const;

  // Commit: a block allocated and freed by this transaction was never
  // published and is reused at once; other frees wait out the grace
  // period. Then unpin.
  void commit();

  // Abort: private blocks were never visible and go back at once; the
  // frees never happened. Then unpin.
  void rollback() noexcept;

 private:
  template <typename>
  friend class RegionWords;

  RegionHeap* heap_ = nullptr;
  std::vector<void*> allocs_;  // private until commit
  std::vector<void*> frees_;   // retired at commit
  std::optional<runtime::EpochManager::Guard> guard_;
};

// Stripe table of a protocol without per-location metadata (NOrec): none.
struct NoStripes {
  explicit NoStripes(const RegionOptions&) noexcept {}
};

// Region addressing: a location is the address of a RegionHeap word, and
// TVarId x is word x of a contiguous t-var array in the same heap — which
// is how the conformance suite, history recorder and checkers certify
// region histories unchanged. Per-location metadata lives in a side table
// hashed from the address (TL2: lock::StripeTable). Heap words are plain
// memory: transactional loads and stores race by design and go through
// std::atomic_ref.
template <typename Stripes = NoStripes>
class RegionWords {
 public:
  using Platform = HwPlatform;
  using Loc = Value*;
  using Options = RegionOptions;
  using TxLog = RegionTxLog;
  static constexpr const char* kNameSuffix = "-region";

  explicit RegionWords(std::size_t num_tvars, RegionOptions options = {})
      : num_tvars_(num_tvars),
        heap_(sized(options, num_tvars).capacity_bytes),
        stripes_(sized(options, num_tvars)),
        words_(static_cast<Value*>(heap_.alloc(num_tvars * sizeof(Value)))) {
    OFTM_ASSERT_MSG(words_ != nullptr, "region arena too small for t-vars");
  }

  RegionHeap& heap() noexcept { return heap_; }
  const Stripes& stripes() const noexcept { return stripes_; }

  std::size_t num_tvars() const noexcept { return num_tvars_; }
  Loc loc(TVarId x) const noexcept {
    OFTM_ASSERT(x < num_tvars_);
    return words_ + x;
  }

  static Value load(const Value* addr, std::memory_order mo) {
    return std::atomic_ref<const Value>(*addr).load(mo);
  }
  static void store(Value* addr, Value v, std::memory_order mo) {
    std::atomic_ref<Value>(*addr).store(v, mo);
  }

  std::uint32_t meta_key(const Value* addr) const noexcept {
    return static_cast<std::uint32_t>(stripes_.index_of(addr));
  }
  auto& meta(std::uint32_t key) noexcept { return stripes_.stripe(key); }

  void begin(TxLog& log) {
    log.heap_ = &heap_;
    log.allocs_.clear();
    log.frees_.clear();
    log.guard_.emplace(heap_.epochs());
  }

  // A zeroed block, private to the transaction until it commits; nullptr
  // when the arena is exhausted.
  void* alloc(TxLog& log, std::size_t bytes) {
    void* p = heap_.alloc(bytes);
    if (p != nullptr) log.allocs_.push_back(p);
    return p;
  }

  void free(TxLog& log, void* p) {
    OFTM_ASSERT(heap_.contains(p));
    log.frees_.push_back(p);
  }

 private:
  static RegionOptions sized(RegionOptions options, std::size_t num_tvars) {
    if (options.capacity_bytes == 0) {
      options.capacity_bytes =
          num_tvars * sizeof(Value) + (std::size_t{1} << 20);
    }
    return options;
  }

  const std::size_t num_tvars_;
  RegionHeap heap_;
  [[no_unique_address]] Stripes stripes_;
  Value* const words_;  // owned by heap_
};

// The word tier of core::TransactionalMemory for a protocol Tm instantiated
// over RegionWords: the ds:: memory-model layer lays containers out as heap
// words through these. Only the region instantiations derive from it, so
// boxed ones keep the asserting defaults.
template <typename Tm>
class RegionWordTier : public Tm {
 public:
  using Tm::Tm;

  // A transaction still active at teardown holds an epoch pin on the heap,
  // which Tm's members own: drop the sessions while the heap is alive.
  ~RegionWordTier() override { this->release_sessions(); }

  bool has_word_access() const override { return true; }

  std::optional<Value> read_word(Transaction& t, const Value* addr) override {
    OFTM_ASSERT(this->memory().heap().contains(addr));
    // A location is the writable word address; reading does not write
    // through it.
    return this->read_at(Tm::txn_cast(t), const_cast<Value*>(addr));
  }

  bool write_word(Transaction& t, Value* addr, Value v) override {
    OFTM_ASSERT(this->memory().heap().contains(addr));
    return this->write_at(Tm::txn_cast(t), addr, v);
  }

  // nullptr on arena exhaustion — not an abort: retrying will not help.
  void* tx_alloc(Transaction& t, std::size_t bytes) override {
    auto& tx = Tm::txn_cast(t);
    if (tx.status_ != TxStatus::kActive) return nullptr;
    return this->memory().alloc(tx.log_, bytes);
  }

  bool tx_free(Transaction& t, void* p) override {
    auto& tx = Tm::txn_cast(t);
    if (tx.status_ != TxStatus::kActive) return false;
    this->memory().free(tx.log_, p);
    return true;
  }

  void* alloc_quiescent(std::size_t bytes) override {
    return this->memory().heap().alloc(bytes);
  }

  Value read_word_quiescent(const Value* addr) const override {
    return this->memory().load(addr, std::memory_order_acquire);
  }
};

}  // namespace oftm::core
