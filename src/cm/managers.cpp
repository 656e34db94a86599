#include "cm/managers.hpp"

#include <stdexcept>

#include "runtime/xorshift.hpp"

namespace oftm::cm {

Decision Randomized::on_conflict(const Conflict& c) {
  if (c.attempt >= max_attempts_) return Decision::kAbortVictim;
  thread_local runtime::Xoshiro256 rng = runtime::Xoshiro256::from_thread();
  return rng.next_bool(kill_probability_) ? Decision::kAbortVictim
                                          : Decision::kWait;
}

Decision Karma::on_conflict(const Conflict& c) {
  const std::uint64_t mine =
      slots_[c.self_tid].karma.load(std::memory_order_relaxed);
  const std::uint64_t theirs =
      slots_[c.victim_tid].karma.load(std::memory_order_relaxed);
  // Patience accumulates with attempts, so mine+attempt eventually exceeds
  // any fixed victim karma: bounded consultations per conflict.
  if (mine + static_cast<std::uint64_t>(c.attempt) >= theirs) {
    return Decision::kAbortVictim;
  }
  return Decision::kWait;
}

void Karma::on_open(int tid) {
  slots_[tid].karma.fetch_add(1, std::memory_order_relaxed);
}

void Karma::on_commit(int tid) {
  slots_[tid].karma.store(0, std::memory_order_relaxed);
}

Decision Timestamp::on_conflict(const Conflict& c) {
  const std::uint64_t mine =
      slots_[c.self_tid].stamp.load(std::memory_order_relaxed);
  const std::uint64_t theirs =
      slots_[c.victim_tid].stamp.load(std::memory_order_relaxed);
  if (mine < theirs) return Decision::kAbortVictim;  // I am older: win now.
  // Younger defers to the elder for `patience_` consultations, then kills
  // anyway — a stalled elder must not block us forever (obstruction-freedom).
  return c.attempt < patience_ ? Decision::kWait : Decision::kAbortVictim;
}

void Timestamp::on_tx_begin(int tid, core::TxId) {
  slots_[tid].stamp.store(clock_.fetch_add(1, std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

std::unique_ptr<ContentionManager> make_manager(const std::string& name) {
  if (name == "aggressive") return std::make_unique<Aggressive>();
  if (name == "suicide") return std::make_unique<Suicide>();
  if (name == "polite") return std::make_unique<Polite>();
  if (name == "randomized") return std::make_unique<Randomized>();
  if (name == "karma") return std::make_unique<Karma>();
  if (name == "timestamp") return std::make_unique<Timestamp>();
  throw std::invalid_argument("unknown contention manager: " + name);
}

const std::vector<std::string>& manager_names() {
  static const std::vector<std::string> names = {
      "aggressive", "suicide", "polite", "randomized", "karma", "timestamp"};
  return names;
}

}  // namespace oftm::cm
