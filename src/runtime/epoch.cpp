#include "runtime/epoch.hpp"

#include "runtime/assert.hpp"

namespace oftm::runtime {

EpochManager::EpochManager() = default;

EpochManager::~EpochManager() {
  // Free everything still queued. Destruction implies quiescence. Deleters
  // may retire further objects (e.g. a locator's destructor retiring its
  // transaction descriptor) — and they retire into the *calling* thread's
  // slot, which may lie before the slot currently being drained. A single
  // in-order pass therefore leaks those cascaded retirements; repeat the
  // whole sweep until a pass frees nothing (global fixed point).
  for (bool any = true; any;) {
    any = false;
    for (auto& t : threads_) {
      while (!t.retired.empty()) {
        any = true;
        std::vector<Retired> batch = std::move(t.retired);
        t.retired.clear();
        for (const Retired& r : batch) r.free();
      }
    }
  }
}

EpochManager& EpochManager::global() {
  static EpochManager mgr;  // immortal would leak retire lists; static is
                            // fine: destroyed after main, when quiescent
  return mgr;
}

void EpochManager::pin(int tid) {
  ThreadState& t = threads_[tid];
  // Publish the pin and re-check: without the re-check loop a concurrent
  // advance between our load of the global epoch and our store could free
  // objects we are about to read. seq_cst on the store orders it against
  // the subsequent global load on TSO and non-TSO alike.
  std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  for (;;) {
    t.pinned.store(e, std::memory_order_seq_cst);
    const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
}

void EpochManager::unpin(int tid) {
  threads_[tid].pinned.store(ThreadState::kIdle, std::memory_order_release);
}

EpochManager::Guard::Guard(EpochManager& mgr)
    : mgr_(mgr), tid_(ThreadRegistry::current_id()) {
  ThreadState& t = mgr_.threads_[tid_];
  const int n = t.nesting.load(std::memory_order_relaxed);
  if (n == 0) mgr_.pin(tid_);
  t.nesting.store(n + 1, std::memory_order_relaxed);
}

EpochManager::Guard::~Guard() {
  // The pin is the building thread's: only that thread touches its
  // nesting count and pin word.
  OFTM_ASSERT_MSG(ThreadRegistry::current_id() == tid_,
                  "epoch guard released on another thread");
  ThreadState& t = mgr_.threads_[tid_];
  const int n = t.nesting.load(std::memory_order_relaxed) - 1;
  OFTM_ASSERT(n >= 0);
  t.nesting.store(n, std::memory_order_relaxed);
  if (n == 0) mgr_.unpin(tid_);
}

void EpochManager::retire(void* p, void (*deleter)(void*)) {
  // Contextless deleters ride the context slot: the trampoline recovers the
  // original function pointer from ctx. (Object<->function pointer casts
  // are conditionally-supported; every POSIX target we build on supports
  // them, and this keeps Retired at one deleter field.)
  retire(
      p,
      [](void* q, void* ctx) {
        reinterpret_cast<void (*)(void*)>(ctx)(q);
      },
      reinterpret_cast<void*>(deleter));
}

void EpochManager::retire(void* p, void (*deleter)(void*, void*), void* ctx) {
  const int tid = ThreadRegistry::current_id();
  ThreadState& t = threads_[tid];
  t.retired.push_back(
      Retired{p, deleter, ctx,
              global_epoch_.load(std::memory_order_acquire)});
  t.retired_size.store(t.retired.size(), std::memory_order_relaxed);
  if (!t.sweeping && t.retired.size() % kReclaimThreshold == 0) reclaim();
}

bool EpochManager::try_advance() {
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  const int hw = ThreadRegistry::high_watermark();
  for (int i = 0; i < hw; ++i) {
    const std::uint64_t p = threads_[i].pinned.load(std::memory_order_acquire);
    if (p != ThreadState::kIdle && p != e) return false;  // straggler
  }
  std::uint64_t expected = e;
  // Single winner bumps; losers raced with another advancer, which is fine.
  return global_epoch_.compare_exchange_strong(expected, e + 1,
                                               std::memory_order_acq_rel);
}

std::size_t EpochManager::sweep(int tid) {
  ThreadState& t = threads_[tid];
  if (t.sweeping) return 0;  // re-entrant call from a deleter
  t.sweeping = true;
  const std::uint64_t safe =
      global_epoch_.load(std::memory_order_acquire);  // free stamps <= safe-2
  std::size_t freed = 0;
  std::size_t keep = 0;
  // Deleters may call retire() re-entrantly (a freed locator retires its
  // descriptor), appending to t.retired mid-loop: copy entries by value and
  // index-iterate; appended entries carry the current epoch, fail the age
  // test, and are compacted into the kept prefix.
  for (std::size_t i = 0; i < t.retired.size(); ++i) {
    const Retired r = t.retired[i];
    if (r.epoch + 2 <= safe) {
      r.free();
      ++freed;
    } else {
      t.retired[keep++] = r;
    }
  }
  t.retired.resize(keep);
  t.retired_size.store(keep, std::memory_order_relaxed);
  t.sweeping = false;
  return freed;
}

std::size_t EpochManager::reclaim() {
  try_advance();
  return sweep(ThreadRegistry::current_id());
}

std::size_t EpochManager::drain_unsafe() {
  const int tid = ThreadRegistry::current_id();
  ThreadState& t = threads_[tid];
  std::size_t freed = 0;
  while (!t.retired.empty()) {
    std::vector<Retired> batch = std::move(t.retired);
    t.retired.clear();
    freed += batch.size();
    for (const Retired& r : batch) r.free();
  }
  t.retired_size.store(0, std::memory_order_relaxed);
  return freed;
}

std::size_t EpochManager::retired_count() const noexcept {
  std::size_t n = 0;
  const int hw = ThreadRegistry::high_watermark();
  for (int i = 0; i < hw; ++i) {
    n += threads_[i].retired_size.load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace oftm::runtime
