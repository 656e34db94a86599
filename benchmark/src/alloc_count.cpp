// Global operator new/delete replacement behind runtime.heap_allocs_per_op
// and runtime.heap_bytes_per_op. Array, nothrow and sized forms reach these
// through the standard library's defaults.
#include "alloc_count.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace oftm::bench {
namespace {
// Constant-initialized: safe to touch from allocations made before main.
thread_local AllocCount t_count;

void* counted_alloc(std::size_t bytes, std::size_t align) {
  ++t_count.calls;
  t_count.bytes += bytes;
  if (bytes == 0) bytes = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else if (posix_memalign(&p, align, bytes) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

AllocCount thread_alloc_count() noexcept { return t_count; }

}  // namespace oftm::bench

void* operator new(std::size_t bytes) {
  return oftm::bench::counted_alloc(bytes, alignof(std::max_align_t));
}

void* operator new(std::size_t bytes, std::align_val_t align) {
  return oftm::bench::counted_alloc(bytes, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }

void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
