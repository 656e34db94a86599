// Epoch-based memory reclamation (EBR).
//
// The DSTM backend replaces locators and transaction descriptors with CAS
// while concurrent readers may still be dereferencing the displaced
// objects. C++ has no GC, so safe reclamation is the main engineering cost
// of reproducing DSTM-style OFTMs (flagged by the reproduction notes). We
// use classic 3-epoch EBR:
//
//   * a thread *pins* the current global epoch around every lock-free
//     read-side section (RAII `Guard`);
//   * `retire(p)` stamps p with the current global epoch E;
//   * the global epoch advances E -> E+1 only when every pinned thread is
//     pinned at E, so once the global epoch reaches E+2 no thread that
//     could have observed p is still inside a read-side section;
//   * retired objects with stamp <= global-2 are freed during `reclaim()`
//     passes, which run opportunistically from `retire`.
//
// Obstruction-freedom caveat (documented honestly): epoch advance is blocked
// by a stalled *pinned* thread, so memory reclamation itself is only
// lock-free-ish; the *visible* STM operations remain obstruction-free
// because they never wait for reclamation. This matches practice in
// DSTM/RSTM, which also used deferred/GC-style reclamation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/cacheline.hpp"
#include "runtime/thread_registry.hpp"

namespace oftm::runtime {

class EpochManager {
 public:
  EpochManager();
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // Process-wide instance used by the hardware STM backends.
  static EpochManager& global();

  // RAII read-side critical section. Re-entrant: a thread's guards share
  // one pin, taken by the first and dropped by the last to be released,
  // in any order (one thread may hold several live transactions, each
  // pinned for its whole active life). A guard must be released on the
  // thread that built it, and before that thread exits: the pin lives in
  // the thread's registry slot, which the next thread to register reuses.
  class Guard {
   public:
    explicit Guard(EpochManager& mgr = EpochManager::global());
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochManager& mgr_;
    int tid_;
  };

  // Hand an unlinked object to the manager; freed after a grace period.
  void retire(void* p, void (*deleter)(void*));

  // Context-carrying form, for deleters that hand the object back to an
  // owning facility rather than the global heap (the region tier retires
  // freed blocks into their RegionHeap's free lists; `ctx` is the heap).
  // The context must outlive the retirement — facilities guarantee this by
  // draining their manager before their own teardown.
  void retire(void* p, void (*deleter)(void*, void* ctx), void* ctx);

  template <typename T>
  void retire(T* p) {
    retire(static_cast<void*>(p),
           [](void* q) { delete static_cast<T*>(q); });
  }

  // Try to advance the epoch and free everything past its grace period on
  // the calling thread's retire list. Returns number of objects freed.
  std::size_t reclaim();

  // Drain *this thread's* list unconditionally (test teardown only: caller
  // must guarantee quiescence).
  std::size_t drain_unsafe();

  std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }

  // Diagnostics.
  std::size_t retired_count() const noexcept;

 private:
  struct Retired {
    void* ptr;
    void (*deleter)(void*, void* ctx);
    void* ctx;
    std::uint64_t epoch;

    void free() const { deleter(ptr, ctx); }
  };

  struct alignas(kCacheLineSize) ThreadState {
    // kIdle when not pinned, otherwise the pinned epoch.
    static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
    std::atomic<std::uint64_t> pinned{kIdle};
    std::atomic<int> nesting{0};
    std::vector<Retired> retired;  // accessed only by the owning thread
    std::atomic<std::size_t> retired_size{0};
    bool sweeping = false;  // guards against re-entrant sweeps (deleters
                            // that retire more objects)
  };

  void pin(int tid);
  void unpin(int tid);
  bool try_advance();
  std::size_t sweep(int tid);

  // How many retirements between opportunistic reclaim passes.
  static constexpr std::size_t kReclaimThreshold = 128;

  std::atomic<std::uint64_t> global_epoch_{2};  // >= 2 so stamp-2 never wraps
  ThreadState threads_[ThreadRegistry::kMaxThreads];

  friend class Guard;
};

}  // namespace oftm::runtime
