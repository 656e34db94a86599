// Dense thread-id assignment.
//
// Lock-free algorithms in this library (epoch reclamation, the TMs' session
// tables, the Karma contention manager) need a small dense integer id per
// participating thread. Ids are assigned on first use and recycled when the
// thread exits, so long-running benchmark processes that spawn thread pools
// repeatedly do not leak slots.
#pragma once

#include <atomic>
#include <cstdint>

namespace oftm::runtime {

class ThreadRegistry {
 public:
  // Upper bound on simultaneously live registered threads. 4x typical core
  // counts; raising it costs kMaxThreads cache lines in each consumer.
  static constexpr int kMaxThreads = 192;

  // Dense id of the calling thread; registers it on first call.
  static int current_id();

  // True if the calling thread already holds a slot (never registers).
  static bool is_registered() noexcept;

  // Number of slots ever observed in use at this moment (scan).
  static int live_threads() noexcept;

  // Highest slot index ever handed out + 1. Consumers scanning per-thread
  // state can bound their loops by this instead of kMaxThreads.
  static int high_watermark() noexcept;

 private:
  ThreadRegistry() = delete;
};

}  // namespace oftm::runtime
