// Run-owned trace spans: one span per transaction attempt of the workload
// driver, exported as Chrome trace_event JSON (loadable in perfetto /
// chrome://tracing).
//
// A run is traced when $OFTM_TRACE_FILE names a file as the run starts.
// Each worker then records into the SpanRing in its own arena, sized
// before the start barrier, with plain stores: no lock, no allocation. A
// full ring overwrites its oldest span, so a long run keeps each worker's
// newest kCapacity spans.
//
// After the join the driver hands the run's rings to append_trace(), which
// adds them to the process's one trace document and rewrites the file
// with all of it, so every traced run of a process reaches the file. The
// document keeps the newest kCapacity spans per worker index.
//
// Timestamps are raw TSC ticks at record time, converted to microseconds
// and rebased to the earliest span when the file is written.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/taxonomy.hpp"

namespace oftm::obs {

struct Span {
  std::uint64_t start_ticks = 0;
  std::uint64_t dur_ticks = 0;
  std::uint64_t tx_seq = 0;  // the worker's logical transaction ordinal
  std::uint32_t attempt = 0;
  bool committed = false;
  AbortReason reason = AbortReason::kUserRequested;  // aborts only
};

// One worker's spans of one run.
class SpanRing {
 public:
  static constexpr std::size_t kCapacity = 8192;  // a power of two

  // Allocates every slot; call before the run, never while recording.
  void reserve() { slots_.resize(kCapacity); }

  void record(const Span& s) noexcept {
    slots_[recorded_++ & (kCapacity - 1)] = s;
  }

  // Calls fn(const Span&) on the kept spans, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t first =
        recorded_ > kCapacity ? recorded_ - kCapacity : 0;
    for (std::uint64_t i = first; i < recorded_; ++i) {
      fn(slots_[i & (kCapacity - 1)]);
    }
  }

 private:
  std::vector<Span> slots_;
  std::uint64_t recorded_ = 0;
};

// The file $OFTM_TRACE_FILE names, read afresh on every call; empty when
// the variable is unset or empty.
std::string trace_file();

// Adds one run's spans to the process's trace document (rings[t] holds
// worker t's, recorded on `backend`) and rewrites `path` with the whole
// document.
void append_trace(const std::string& path, const std::string& backend,
                  const std::vector<const SpanRing*>& rings);

}  // namespace oftm::obs
