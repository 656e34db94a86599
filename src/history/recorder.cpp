#include "history/recorder.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

#include "runtime/parallel.hpp"
#include "runtime/thread_registry.hpp"

namespace oftm::history {

std::uint64_t Recorder::record(Event e) {
  std::scoped_lock lk(mu_);
  if (tail_.size() == tail_.capacity()) {
    if (!tail_.empty()) full_.push_back(std::exchange(tail_, {}));
    tail_.reserve(kChunkEvents);
  }
  e.seq = next_seq_++;
  tail_.push_back(e);
  return e.seq;
}

std::vector<Event> Recorder::events() const {
  std::scoped_lock lk(mu_);
  // record() appends in seq order under the lock, one event per seq.
  std::vector<Event> out;
  out.reserve(next_seq_ - 1);
  for (const std::vector<Event>& chunk : full_) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  out.insert(out.end(), tail_.begin(), tail_.end());
  return out;
}

namespace {

// Finalizer-style hash for sharding transactions/pids across digestion
// workers. The recorder's own tx ids are (thread << 48 | counter), so a
// plain modulo would be fine, but imported histories carry arbitrary ids.
std::uint64_t shard_hash(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// One event's contribution to its transaction's record. A record's content
// depends only on its own events, in seq order, which every digestion
// worker sees.
void digest_event(const Event& e,
                  std::unordered_map<core::TxId, TxRecord>& by_tx,
                  std::unordered_map<core::TxId, Event>& open_inv) {
  TxRecord& rec = by_tx[e.tx];
  if (rec.ops.empty() && rec.first_seq == 0) {
    rec.id = e.tx;
    rec.pid = e.pid;
    rec.first_seq = e.seq;
  }
  rec.last_seq = e.seq;

  if (e.kind == Event::Kind::kInvoke) {
    open_inv[e.tx] = e;
    if (e.op == OpType::kTryCommit) rec.commit_pending = true;
    if (e.op == OpType::kTryAbort) rec.requested_abort = true;
  } else {
    auto it = open_inv.find(e.tx);
    TxOp op;
    op.op = e.op;
    op.tvar = e.tvar;
    op.result = e.result;
    op.aborted = e.aborted;
    op.resp_seq = e.seq;
    if (it != open_inv.end()) {
      op.arg = it->second.arg;
      op.inv_seq = it->second.seq;
      open_inv.erase(it);
    }
    rec.ops.push_back(op);
    if (e.op == OpType::kTryCommit) {
      rec.commit_pending = false;
      rec.final_status = e.aborted ? core::TxStatus::kAborted
                                   : core::TxStatus::kCommitted;
    } else if (e.aborted) {
      rec.final_status = core::TxStatus::kAborted;
    }
  }
}

}  // namespace

std::vector<TxRecord> Recorder::transactions() const {
  return transactions(events());
}

std::vector<TxRecord> Recorder::transactions(const std::vector<Event>& evs,
                                             int threads) {
  const int workers = runtime::resolve_workers(threads);

  // Shard by tx id: each worker scans the whole log but digests only its
  // shard, so a transaction's events all land in one worker, in seq order.
  // The scans are read-only and cache-friendly; the per-worker maps are
  // where the time goes. One worker runs on the calling thread.
  const std::uint64_t w64 = static_cast<std::uint64_t>(workers);
  std::vector<std::vector<TxRecord>> shards(static_cast<std::size_t>(workers));
  runtime::run_on_workers(workers, [&](int w) {
    std::unordered_map<core::TxId, TxRecord> by_tx;
    std::unordered_map<core::TxId, Event> open_inv;
    by_tx.reserve(evs.size() / (8 * w64) + 16);
    for (const Event& e : evs) {
      if (shard_hash(e.tx) % w64 != static_cast<std::uint64_t>(w)) continue;
      digest_event(e, by_tx, open_inv);
    }
    std::vector<TxRecord>& out = shards[static_cast<std::size_t>(w)];
    out.reserve(by_tx.size());
    for (auto& [id, rec] : by_tx) out.push_back(std::move(rec));
  });

  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  std::vector<TxRecord> out;
  out.reserve(total);
  for (auto& s : shards) {
    for (TxRecord& rec : s) out.push_back(std::move(rec));
  }
  // first_seq values are unique (one event owns each seq), so this total
  // order has a single sorted permutation: identical output regardless of
  // shard count.
  runtime::parallel_sort(workers, out.begin(), out.end(),
                         [](const TxRecord& a, const TxRecord& b) {
                           return a.first_seq < b.first_seq;
                         });
  return out;
}

void Recorder::clear() {
  std::scoped_lock lk(mu_);
  full_.clear();
  tail_.clear();
  next_seq_ = 1;
}

std::string Recorder::check_well_formed() const {
  return check_well_formed(events());
}

std::string Recorder::check_well_formed(const std::vector<Event>& evs,
                                        int threads) {
  const int workers = runtime::resolve_workers(threads);

  // A pid's event subsequence is self-contained (the state machine is per
  // process), so shard by pid. Each worker scans in seq order and keeps
  // its first diagnostic; the smallest seq across workers is the same
  // event one scan over all pids trips on first.
  struct FirstError {
    std::uint64_t seq = ~std::uint64_t{0};
    std::string msg;
  };
  const std::uint64_t w64 = static_cast<std::uint64_t>(workers);
  std::vector<FirstError> errors(static_cast<std::size_t>(workers));
  runtime::run_on_workers(workers, [&](int w) {
    std::map<int, const Event*> pending;
    for (const Event& e : evs) {
      if (shard_hash(static_cast<std::uint64_t>(e.pid)) % w64 !=
          static_cast<std::uint64_t>(w)) {
        continue;
      }
      auto it = pending.find(e.pid);
      if (e.kind == Event::Kind::kInvoke) {
        if (it != pending.end() && it->second != nullptr) {
          errors[static_cast<std::size_t>(w)] = FirstError{
              e.seq, "invocation while an operation is pending at pid " +
                         std::to_string(e.pid)};
          return;
        }
        pending[e.pid] = &e;
      } else {
        if (it == pending.end() || it->second == nullptr) {
          errors[static_cast<std::size_t>(w)] =
              FirstError{e.seq, "response without invocation at pid " +
                                    std::to_string(e.pid)};
          return;
        }
        const Event& inv = *it->second;
        if (inv.tx != e.tx || inv.op != e.op) {
          errors[static_cast<std::size_t>(w)] =
              FirstError{e.seq, "response does not match invocation at pid " +
                                    std::to_string(e.pid)};
          return;
        }
        pending[e.pid] = nullptr;
      }
    }
  });
  const FirstError* first = nullptr;
  for (const FirstError& err : errors) {
    if (err.seq == ~std::uint64_t{0}) continue;
    if (first == nullptr || err.seq < first->seq) first = &err;
  }
  return first != nullptr ? first->msg : "";
}

std::string Recorder::format() const {
  std::string out;
  char line[192];
  for (const Event& e : events()) {
    if (e.kind == Event::Kind::kInvoke) {
      std::snprintf(line, sizeof(line),
                    "[%5" PRIu64 "] p%-2d T%-12" PRIx64 " inv  %-5s x%-4u"
                    " arg=%" PRIu64 "\n",
                    e.seq, e.pid, e.tx, to_string(e.op),
                    e.tvar == core::kInvalidTVar ? 9999u : e.tvar, e.arg);
    } else {
      std::snprintf(line, sizeof(line),
                    "[%5" PRIu64 "] p%-2d T%-12" PRIx64 " resp %-5s -> %s"
                    " (val=%" PRIu64 ")\n",
                    e.seq, e.pid, e.tx, to_string(e.op),
                    e.aborted ? "ABORT" : "ok", e.result);
    }
    out += line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// RecordingTm

namespace {
int current_pid() { return runtime::ThreadRegistry::current_id(); }
}  // namespace

core::TxnPtr RecordingTm::begin() { return inner_.begin(); }

std::optional<core::Value> RecordingTm::read(core::Transaction& txn,
                                             core::TVarId x) {
  Event inv;
  inv.kind = Event::Kind::kInvoke;
  inv.tx = txn.id();
  inv.pid = current_pid();
  inv.op = OpType::kRead;
  inv.tvar = x;
  recorder_.record(inv);

  auto v = inner_.read(txn, x);

  Event resp = inv;
  resp.kind = Event::Kind::kResponse;
  resp.aborted = !v.has_value();
  resp.result = v.value_or(0);
  recorder_.record(resp);
  return v;
}

bool RecordingTm::write(core::Transaction& txn, core::TVarId x,
                        core::Value v) {
  Event inv;
  inv.kind = Event::Kind::kInvoke;
  inv.tx = txn.id();
  inv.pid = current_pid();
  inv.op = OpType::kWrite;
  inv.tvar = x;
  inv.arg = v;
  recorder_.record(inv);

  const bool ok = inner_.write(txn, x, v);

  Event resp = inv;
  resp.kind = Event::Kind::kResponse;
  resp.aborted = !ok;
  recorder_.record(resp);
  return ok;
}

bool RecordingTm::try_commit(core::Transaction& txn) {
  Event inv;
  inv.kind = Event::Kind::kInvoke;
  inv.tx = txn.id();
  inv.pid = current_pid();
  inv.op = OpType::kTryCommit;
  recorder_.record(inv);

  const bool ok = inner_.try_commit(txn);

  Event resp = inv;
  resp.kind = Event::Kind::kResponse;
  resp.aborted = !ok;
  recorder_.record(resp);
  return ok;
}

void RecordingTm::try_abort(core::Transaction& txn) {
  Event inv;
  inv.kind = Event::Kind::kInvoke;
  inv.tx = txn.id();
  inv.pid = current_pid();
  inv.op = OpType::kTryAbort;
  recorder_.record(inv);

  inner_.try_abort(txn);

  Event resp = inv;
  resp.kind = Event::Kind::kResponse;
  resp.aborted = true;
  recorder_.record(resp);
}

}  // namespace oftm::history
