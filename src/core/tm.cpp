#include "core/tm.hpp"

// Anchors the vtables of Transaction/TransactionalMemory/TmSession and
// hosts the session-table plus fallback-session plumbing shared by every
// TM (wrappers included), and the pooled sessions' statistics cells.

namespace oftm::core {

void SessionStats::add_to(runtime::TxStats& s,
                          std::vector<obs::HotVar>& hot) const {
  s.commits += commits.read();
  s.reads += reads.read();
  s.writes += writes.read();
  s.cm_backoffs += cm_backoffs.read();
  s.victim_kills += victim_kills.read();
  for (std::size_t r = 0; r < obs::kNumAbortReasons; ++r) {
    const std::uint64_t n = aborts[r].read();
    s.abort_reason[r] += n;
    s.aborts += n;
    if (obs::is_forced(static_cast<obs::AbortReason>(r))) {
      s.forced_aborts += n;
    }
  }
#if OFTM_OBS
  phases.collect(s.phase_ns, s.phase_count);
  heat.collect_into(hot);
#else
  static_cast<void>(hot);
#endif
}

void SessionStats::reset() noexcept {
  commits.reset();
  reads.reset();
  writes.reset();
  cm_backoffs.reset();
  victim_kills.reset();
  for (auto& n : aborts) n.reset();
#if OFTM_OBS
  phases.reset();
  heat.reset();
#endif
}

TmSession& TransactionalMemory::session(ThreadSlot slot) {
  OFTM_ASSERT(slot >= 0 && slot < runtime::ThreadRegistry::kMaxThreads);
  std::atomic<TmSession*>& cell =
      sessions_.cells[static_cast<std::size_t>(slot)];
  if (TmSession* s = cell.load(std::memory_order_acquire)) return *s;
  std::lock_guard<std::mutex> lock(sessions_.mu);
  if (TmSession* s = cell.load(std::memory_order_relaxed)) return *s;
  std::unique_ptr<TmSession> fresh = make_session(slot);
  TmSession* raw = fresh.get();
  sessions_.owned.push_back(std::move(fresh));
  cell.store(raw, std::memory_order_release);
  return *raw;
}

TmSession& TransactionalMemory::this_thread_session() {
  return session(runtime::ThreadRegistry::current_id());
}

Transaction& TransactionalMemory::begin(TmSession& session) {
  // Fallback hot tier: drive the virtual begin() and keep the handle alive
  // until the next begin on this session. Release the previous handle
  // FIRST — "beginning again finishes whatever the previous transaction
  // left behind" — or an abandoned-active predecessor could still hold
  // backend resources (e.g. coarse's global lock) while the new begin()
  // blocks on them: self-deadlock.
  auto& s = static_cast<detail::FallbackSession&>(session);
  s.held.reset();
  s.held = begin();
  return *s.held;
}

std::unique_ptr<TmSession> TransactionalMemory::make_session(ThreadSlot slot) {
  return std::make_unique<detail::FallbackSession>(slot);
}

// Word-tier defaults: reaching these without the capability is a
// programming error (the memory-model layer gates on has_word_access()).
std::optional<Value> TransactionalMemory::read_word(Transaction&,
                                                    const Value*) {
  OFTM_ASSERT_MSG(false, "backend has no word-granular region heap");
  return std::nullopt;
}

bool TransactionalMemory::write_word(Transaction&, Value*, Value) {
  OFTM_ASSERT_MSG(false, "backend has no word-granular region heap");
  return false;
}

void* TransactionalMemory::tx_alloc(Transaction&, std::size_t) {
  OFTM_ASSERT_MSG(false, "backend has no word-granular region heap");
  return nullptr;
}

bool TransactionalMemory::tx_free(Transaction&, void*) {
  OFTM_ASSERT_MSG(false, "backend has no word-granular region heap");
  return false;
}

void* TransactionalMemory::alloc_quiescent(std::size_t) {
  OFTM_ASSERT_MSG(false, "backend has no word-granular region heap");
  return nullptr;
}

Value TransactionalMemory::read_word_quiescent(const Value*) const {
  OFTM_ASSERT_MSG(false, "backend has no word-granular region heap");
  return 0;
}

void TransactionalMemory::release_sessions() noexcept {
  for (auto& cell : sessions_.cells) {
    cell.store(nullptr, std::memory_order_relaxed);
  }
  sessions_.owned.clear();
}

}  // namespace oftm::core
