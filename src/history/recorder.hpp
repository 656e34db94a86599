// History recording: a transparent TM wrapper that logs every operation's
// invocation and response with a globally ordered sequence number, plus the
// digestion of raw events into per-transaction records.
//
// The recorder is only active in tests and checking runs; benchmark runs
// use the backends directly (the global sequence counter is itself a shared
// hot spot — deliberately, measurement fidelity beats speed here). The log
// grows in fixed-size chunks, so a run of any length records without a
// size hint and without ever copying a recorded event.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/tm.hpp"
#include "history/event.hpp"

namespace oftm::history {

class Recorder {
 public:
  // Events per chunk of the log. A full chunk stays where it is; the next
  // event opens a new one.
  static constexpr std::size_t kChunkEvents = std::size_t{1} << 20;

  // Thread-safe event append with a fresh global sequence number.
  std::uint64_t record(Event e);

  // Snapshot of all events, sorted by seq.
  std::vector<Event> events() const;

  // Digest events into per-transaction records (sorted by first_seq).
  // The static overload digests an existing snapshot — large-history
  // callers take one events() snapshot and feed it to both this and
  // check_well_formed instead of paying the full-log copy twice.
  // Transactions are sharded across `threads` workers (0 = one per
  // hardware thread) by tx-id hash; output is identical for every worker
  // count (each record is built from its own events in seq order, and
  // first_seq values are unique, so the sorted result is one permutation).
  std::vector<TxRecord> transactions() const;
  static std::vector<TxRecord> transactions(const std::vector<Event>& events,
                                            int threads = 1);

  void clear();

  // Well-formedness of the recorded history (Section 2.1): per process,
  // alternating invocation/response of matching operations. Returns an
  // empty string if well-formed, else a diagnostic. Shards by pid across
  // `threads` workers (each pid's event subsequence is self-contained)
  // and reports the diagnostic with the smallest seq — the one a single
  // scan in seq order hits first, whatever the worker count.
  std::string check_well_formed() const;
  static std::string check_well_formed(const std::vector<Event>& events,
                                       int threads = 1);

  std::string format() const;

 private:
  // The log in seq order: the full chunks, then the tail being filled.
  // Each chunk is reserved at kChunkEvents and only appended to, so growing
  // the log neither copies nor constructs events. The tail's header lives
  // here beside the lock rather than in the heap array of chunks, which
  // spares every append a cache miss under the lock.
  mutable std::mutex mu_;
  std::vector<Event> tail_;
  std::uint64_t next_seq_ = 1;
  std::vector<std::vector<Event>> full_;
};

// TransactionalMemory decorator: forwards to `inner` and records a
// well-formed history of every operation.
class RecordingTm final : public core::TransactionalMemory {
 public:
  RecordingTm(core::TransactionalMemory& inner, Recorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  // Keep the base's session-tier begin(TmSession&) visible alongside the
  // override below (it drives this virtual begin via fallback sessions).
  using core::TransactionalMemory::begin;
  core::TxnPtr begin() override;
  std::optional<core::Value> read(core::Transaction& txn,
                                  core::TVarId x) override;
  bool write(core::Transaction& txn, core::TVarId x, core::Value v) override;
  bool try_commit(core::Transaction& txn) override;
  void try_abort(core::Transaction& txn) override;

  // Word-tier operations forward UNRECORDED: the Event/TxRecord vocabulary
  // (and check_mvsg's unique-writes discipline) speaks TVarId, so checked
  // runs over region containers record only the scratch TVarId ops riding
  // in the same transactions and check that projection of the history.
  bool has_word_access() const override { return inner_.has_word_access(); }
  std::optional<core::Value> read_word(core::Transaction& txn,
                                       const core::Value* addr) override {
    return inner_.read_word(txn, addr);
  }
  bool write_word(core::Transaction& txn, core::Value* addr,
                  core::Value v) override {
    return inner_.write_word(txn, addr, v);
  }
  void* tx_alloc(core::Transaction& txn, std::size_t bytes) override {
    return inner_.tx_alloc(txn, bytes);
  }
  bool tx_free(core::Transaction& txn, void* p) override {
    return inner_.tx_free(txn, p);
  }
  void* alloc_quiescent(std::size_t bytes) override {
    return inner_.alloc_quiescent(bytes);
  }
  core::Value read_word_quiescent(const core::Value* addr) const override {
    return inner_.read_word_quiescent(addr);
  }

  std::size_t num_tvars() const override { return inner_.num_tvars(); }
  core::Value read_quiescent(core::TVarId x) const override {
    return inner_.read_quiescent(x);
  }
  std::string name() const override { return inner_.name() + "+rec"; }
  runtime::TxStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

 private:
  core::TransactionalMemory& inner_;
  Recorder& recorder_;
};

}  // namespace oftm::history
