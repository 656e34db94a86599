// The contention-manager family from the DSTM line of work ([18] and the
// follow-ups [25, 1] the paper surveys). All managers guarantee eventual
// kAbortVictim/kAbortSelf (obstruction-freedom contract, see
// contention_manager.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cm/contention_manager.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/thread_registry.hpp"

namespace oftm::cm {

// Aggressive: always abort the victim immediately. Maximal progress for
// self, maximal wasted work for victims; the baseline the paper's "eventually
// Tk must be able to abort Ti" reduces to when the backoff budget is zero.
class Aggressive final : public ContentionManager {
 public:
  Decision on_conflict(const Conflict&) override {
    return Decision::kAbortVictim;
  }
  std::string name() const override { return "aggressive"; }
};

// Suicide: always abort self. The dual extreme; lets long-running owners
// finish but can starve the requester under sustained conflict (the retry
// loop, not the TM, provides liveness).
class Suicide final : public ContentionManager {
 public:
  Decision on_conflict(const Conflict&) override {
    return Decision::kAbortSelf;
  }
  std::string name() const override { return "suicide"; }
};

// Polite: back off (the caller pauses) a bounded number of times to "give Ti
// a chance" (paper, Section 1), then abort the victim.
class Polite final : public ContentionManager {
 public:
  explicit Polite(int max_attempts = 6) : max_attempts_(max_attempts) {}

  Decision on_conflict(const Conflict& c) override {
    return c.attempt < max_attempts_ ? Decision::kWait
                                     : Decision::kAbortVictim;
  }
  std::string name() const override { return "polite"; }

 private:
  const int max_attempts_;
};

// Randomized: flip a (deterministically seeded, per-call) coin between
// waiting and killing; bounded by max_attempts like Polite.
class Randomized final : public ContentionManager {
 public:
  explicit Randomized(double kill_probability = 0.5, int max_attempts = 16)
      : kill_probability_(kill_probability), max_attempts_(max_attempts) {}

  Decision on_conflict(const Conflict& c) override;
  std::string name() const override { return "randomized"; }

 private:
  const double kill_probability_;
  const int max_attempts_;
};

// Karma: priority = accumulated opens (work done). A requester kills a
// victim with no more karma than itself plus its patience so far; otherwise
// it waits, and each wait adds patience, so every conflict resolves in
// bounded consultations. Karma persists across aborts (a transaction that
// keeps losing accumulates priority) and resets on commit.
class Karma final : public ContentionManager {
 public:
  Decision on_conflict(const Conflict& c) override;
  void on_open(int tid) override;
  void on_commit(int tid) override;
  std::string name() const override { return "karma"; }

 private:
  struct alignas(runtime::kCacheLineSize) Slot {
    std::atomic<std::uint64_t> karma{0};
  };
  Slot slots_[runtime::ThreadRegistry::kMaxThreads];
};

// Timestamp (a.k.a. Greedy-style seniority): older transactions win. A
// younger requester waits a bounded number of times before killing, so the
// obstruction-freedom contract holds even against a stalled elder.
class Timestamp final : public ContentionManager {
 public:
  explicit Timestamp(int patience = 8) : patience_(patience) {}

  Decision on_conflict(const Conflict& c) override;
  void on_tx_begin(int tid, core::TxId) override;
  std::string name() const override { return "timestamp"; }

 private:
  struct alignas(runtime::kCacheLineSize) Slot {
    std::atomic<std::uint64_t> stamp{~std::uint64_t{0}};
  };
  const int patience_;
  std::atomic<std::uint64_t> clock_{1};
  Slot slots_[runtime::ThreadRegistry::kMaxThreads];
};

// Factory: build a manager by name ("aggressive", "suicide", "polite",
// "randomized", "karma", "timestamp"). Throws std::invalid_argument on an
// unknown name.
std::unique_ptr<ContentionManager> make_manager(const std::string& name);

// All known manager names (for bench sweeps).
const std::vector<std::string>& manager_names();

}  // namespace oftm::cm
