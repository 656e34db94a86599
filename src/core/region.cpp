#include "core/region.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <new>

#include "runtime/assert.hpp"
#include "runtime/cacheline.hpp"

namespace oftm::core {

RegionHeap::RegionHeap(std::size_t capacity_bytes) {
  OFTM_ASSERT_MSG(capacity_bytes >= kMinBlockBytes, "region capacity too small");
  // Round the arena itself to the large quantum so bump offsets stay
  // aligned for every class.
  capacity_ = (capacity_bytes + kLargeQuantum - 1) & ~(kLargeQuantum - 1);
  arena_.reset(static_cast<std::byte*>(::operator new(
      capacity_, std::align_val_t{runtime::kCacheLineSize})));
}

std::size_t RegionHeap::round_total(std::size_t payload_bytes) noexcept {
  const std::size_t want = payload_bytes + kHeaderBytes;
  if (want <= kLargeThreshold) {
    return std::bit_ceil(want < kMinBlockBytes ? kMinBlockBytes : want);
  }
  return (want + kLargeQuantum - 1) & ~(kLargeQuantum - 1);
}

int RegionHeap::class_of(std::size_t total) noexcept {
  // total is a power of two in [32, 65536]; class 0 == 32.
  return std::bit_width(total) - 6;
}

void* RegionHeap::pop_free(std::size_t total) {
  if (total <= kLargeThreshold) {
    FreeList& fl = classes_[class_of(total)];
    std::scoped_lock lk(fl.lock);
    if (fl.head == nullptr) return nullptr;
    std::byte* block = fl.head;
    std::memcpy(&fl.head, block + kHeaderBytes, sizeof(fl.head));
    return block;
  }
  std::scoped_lock lk(large_lock_);
  for (std::size_t i = 0; i < large_pool_.size(); ++i) {
    if (large_pool_[i].second == total) {
      std::byte* found = large_pool_[i].first;
      large_pool_[i] = large_pool_.back();
      large_pool_.pop_back();
      return found;
    }
  }
  return nullptr;
}

void RegionHeap::push_free(std::byte* block, std::size_t total) {
  if (total <= kLargeThreshold) {
    FreeList& fl = classes_[class_of(total)];
    std::scoped_lock lk(fl.lock);
    std::memcpy(block + kHeaderBytes, &fl.head, sizeof(fl.head));
    fl.head = block;
    return;
  }
  std::scoped_lock lk(large_lock_);
  large_pool_.emplace_back(block, total);
}

void* RegionHeap::bump(std::size_t total) {
  std::size_t offset = bump_.load(std::memory_order_relaxed);
  for (;;) {
    if (offset + total > capacity_) return nullptr;  // exhausted
    if (bump_.compare_exchange_weak(offset, offset + total,
                                    std::memory_order_relaxed)) {
      return arena_.get() + offset;
    }
  }
}

void* RegionHeap::alloc(std::size_t payload_bytes) {
  const std::size_t total = round_total(payload_bytes);
  void* block = pop_free(total);
  if (block == nullptr) block = bump(total);
  if (block == nullptr) return nullptr;
  auto* h = static_cast<BlockHeader*>(block);
  h->total_bytes = total;
  h->state = kStateAllocated;
  void* payload = static_cast<std::byte*>(block) + kHeaderBytes;
  // Zeroed payloads: fresh blocks are private until a commit publishes a
  // pointer to them, and recycled blocks are past their grace period, so
  // this plain memset races with nobody (see the header's reclamation
  // argument).
  std::memset(payload, 0, total - kHeaderBytes);
  allocated_bytes_.fetch_add(total, std::memory_order_relaxed);
  return payload;
}

std::size_t RegionHeap::block_bytes(const void* payload) const {
  OFTM_ASSERT(contains(payload));
  const auto* h = reinterpret_cast<const BlockHeader*>(
      static_cast<const std::byte*>(payload) - kHeaderBytes);
  OFTM_ASSERT_MSG(h->state == kStateAllocated, "block_bytes on a free block");
  return h->total_bytes - kHeaderBytes;
}

void RegionHeap::free_now(void* payload) {
  OFTM_ASSERT_MSG(contains(payload), "free of a pointer outside the region");
  BlockHeader* h = header_of(payload);
  OFTM_ASSERT_MSG(h->state == kStateAllocated, "double free in region");
  h->state = kStateFree;
  const std::size_t total = h->total_bytes;
  allocated_bytes_.fetch_sub(total, std::memory_order_relaxed);
  push_free(reinterpret_cast<std::byte*>(h), total);
}

void RegionHeap::retire(void* payload) {
  OFTM_ASSERT_MSG(contains(payload), "retire of a pointer outside the region");
  epochs_.retire(
      payload,
      [](void* p, void* ctx) { static_cast<RegionHeap*>(ctx)->free_now(p); },
      this);
}

void RegionHeap::flush_reclamation() {
  // Two epoch advances age every stamp past the grace period; bounded loop
  // in case another thread's pin briefly blocks an advance.
  for (int i = 0; i < 64 && epochs_.retired_count() > 0; ++i) {
    epochs_.reclaim();
  }
}

bool RegionTxLog::owns(const Value* addr) const {
  const auto* a = reinterpret_cast<const std::byte*>(addr);
  for (void* p : allocs_) {
    const auto* b = static_cast<const std::byte*>(p);
    if (a >= b && a < b + heap_->block_bytes(p)) return true;
  }
  return false;
}

void RegionTxLog::commit() {
  for (void* p : frees_) {
    auto it = std::find(allocs_.begin(), allocs_.end(), p);
    if (it != allocs_.end()) {
      *it = allocs_.back();
      allocs_.pop_back();
      heap_->free_now(p);
    } else {
      heap_->retire(p);
    }
  }
  guard_.reset();
}

void RegionTxLog::rollback() noexcept {
  for (void* p : allocs_) heap_->free_now(p);
  allocs_.clear();
  frees_.clear();
  guard_.reset();
}

}  // namespace oftm::core
