// Heap allocations made by the calling thread, counted by this program's
// replacement of the global operator new (alloc_count.cpp). The counters
// are thread-local, so counting adds no shared cache line to the hot path.
#pragma once

#include <cstdint>

namespace oftm::bench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

// Totals for the calling thread since it started.
AllocCount thread_alloc_count() noexcept;

}  // namespace oftm::bench
