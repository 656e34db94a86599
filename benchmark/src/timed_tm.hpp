// Traced-run instrumentation: per-client layer accounting and TimedTm, a
// TransactionalMemory decorator (modelled on history::RecordingTm) that
// times every attempt and counts the t-variable traffic of each.
//
// The layers of one client op, outermost first:
//
//   op span       the client call (svc self time = op minus children)
//   coord span    one KvServiceT::do_transfer call (2PC coordinator)
//   attempt       begin(TmSession&) .. commit or abort, one per TM attempt
//                 (it covers the shard body, the ds traversal and the
//                 backend's own work)
//   retry gap     an aborted attempt's end .. the next begin in the same op
//                 (core::atomically's backoff)
//
// The client loop owns one TraceCtx per thread and publishes it through
// t_trace; TimedTm finds it there. Threads without a context (set-up,
// audits) forward untouched.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/tm.hpp"
#include "obs/phase_timer.hpp"

namespace oftm::bench {

enum Kind : int { kGet, kPut, kTransfer, kScan, kChurn };
inline constexpr int kKinds = 5;
inline constexpr const char* kKindNames[kKinds] = {"get", "put", "transfer",
                                                   "scan", "churn"};

struct Span {
  enum Type : std::uint8_t { kOp, kCoord, kCommit, kAbort };
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t op = 0;     // op id, shared by every span of one op
  std::uint32_t coord = 0;  // coord span: its number; attempt: the
                            // enclosing coord span's number, 0 if none
  Type type = kOp;
  std::uint8_t kind = 0;
};

struct KindCounters {
  std::uint64_t ops = 0;
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t reads = 0;   // read + read_word
  std::uint64_t writes = 0;  // write + write_word
  std::uint64_t allocs = 0;  // tx_alloc
  std::uint64_t frees = 0;   // tx_free
  std::uint64_t op_ticks = 0;
  std::uint64_t attempt_ticks = 0;
  std::uint64_t wasted_ticks = 0;  // aborted attempts
  std::uint64_t gap_ticks = 0;     // retry gaps

  KindCounters& operator+=(const KindCounters& o) {
    ops += o.ops;
    attempts += o.attempts;
    commits += o.commits;
    reads += o.reads;
    writes += o.writes;
    allocs += o.allocs;
    frees += o.frees;
    op_ticks += o.op_ticks;
    attempt_ticks += o.attempt_ticks;
    wasted_ticks += o.wasted_ticks;
    gap_ticks += o.gap_ticks;
    return *this;
  }
};

// Totals of the svc and coord layers, over every op kind.
struct LayerCounters {
  std::uint64_t child_ticks = 0;  // attempts + retry gaps, in coord or not
  std::uint64_t coord_calls = 0;
  std::uint64_t coord_ticks = 0;
  std::uint64_t coord_child_ticks = 0;
  std::uint64_t coord_commits = 0;
  std::uint64_t busy_retries = 0;
  std::uint64_t backoff_ticks = 0;

  LayerCounters& operator+=(const LayerCounters& o) {
    child_ticks += o.child_ticks;
    coord_calls += o.coord_calls;
    coord_ticks += o.coord_ticks;
    coord_child_ticks += o.coord_child_ticks;
    coord_commits += o.coord_commits;
    busy_retries += o.busy_retries;
    backoff_ticks += o.backoff_ticks;
    return *this;
  }
};

// Cache-line aligned: each client writes its own context on every TM call.
class alignas(64) TraceCtx {
 public:
  explicit TraceCtx(std::size_t span_capacity) { spans.reserve(span_capacity); }

  // ---- Client loop ------------------------------------------------------
  // `count`: the op started inside the measured window. `keep`: its spans
  // go to the trace file. A kept span is stored when it opens and closed
  // in place, so children never outlive a stored parent and a full buffer
  // only drops the youngest spans.
  void op_begin(int k, bool count, bool keep, std::uint64_t id,
                std::uint64_t start) {
    kind_ = k;
    counting_ = count;
    keep_ = count && keep;
    op_ = id;
    after_abort_ = false;
    op_span_ = store({start, start, op_, 0, Span::kOp, kind8()});
  }
  void op_end(std::uint64_t start, std::uint64_t end) {
    if (!counting_) return;
    ++kinds[kind_].ops;
    kinds[kind_].op_ticks += end - start;
    close(op_span_, end);
    counting_ = false;
  }

  // ---- svc layer: one do_transfer call, and busy-vote backoff ----------
  void coord_begin() {
    coord_start_ = obs::now_ticks();
    in_coord_ = true;
    ++coord_seq_;
    coord_span_ =
        store({coord_start_, coord_start_, op_, coord_seq_, Span::kCoord,
               kind8()});
  }
  void coord_end() {
    in_coord_ = false;
    if (!counting_) return;
    const std::uint64_t now = obs::now_ticks();
    ++layer.coord_calls;
    layer.coord_ticks += now - coord_start_;
    close(coord_span_, now);
  }
  void busy_backoff(std::uint64_t ticks) {
    if (!counting_) return;
    ++layer.busy_retries;
    layer.backoff_ticks += ticks;
  }

  // ---- TM attempts (TimedTm) --------------------------------------------
  void attempt_begin() {
    const std::uint64_t now = obs::now_ticks();
    if (open_) attempt_end(false, now);
    if (counting_ && after_abort_) {
      const std::uint64_t gap = now - last_end_;
      kinds[kind_].gap_ticks += gap;
      layer.child_ticks += gap;
      if (in_coord_) layer.coord_child_ticks += gap;
    }
    open_ = true;
    start_ = now;
  }
  void attempt_end(bool committed) {
    if (open_) attempt_end(committed, obs::now_ticks());
  }
  void count_read() {
    if (counting_) ++kinds[kind_].reads;
  }
  void count_write() {
    if (counting_) ++kinds[kind_].writes;
  }
  void count_alloc() {
    if (counting_) ++kinds[kind_].allocs;
  }
  void count_free() {
    if (counting_) ++kinds[kind_].frees;
  }

  KindCounters kinds[kKinds];
  LayerCounters layer;
  std::vector<Span> spans;

 private:
  static constexpr std::size_t kNoSpan = ~std::size_t{0};

  std::uint8_t kind8() const { return static_cast<std::uint8_t>(kind_); }

  // Never reallocates: the buffer is reserved before the run.
  std::size_t store(const Span& s) {
    if (!keep_ || spans.size() == spans.capacity()) return kNoSpan;
    spans.push_back(s);
    return spans.size() - 1;
  }
  void close(std::size_t span, std::uint64_t end) {
    if (span != kNoSpan) spans[span].end = end;
  }

  void attempt_end(bool committed, std::uint64_t now) {
    open_ = false;
    after_abort_ = !committed;
    last_end_ = now;
    if (!counting_) return;
    const std::uint64_t dur = now - start_;
    KindCounters& k = kinds[kind_];
    ++k.attempts;
    k.attempt_ticks += dur;
    if (committed) {
      ++k.commits;
    } else {
      k.wasted_ticks += dur;
    }
    layer.child_ticks += dur;
    if (in_coord_) {
      layer.coord_child_ticks += dur;
      if (committed) ++layer.coord_commits;
    }
    store({start_, now, op_, in_coord_ ? coord_seq_ : 0,
           committed ? Span::kCommit : Span::kAbort, kind8()});
  }

  int kind_ = 0;
  bool counting_ = false;
  bool keep_ = false;
  bool in_coord_ = false;
  bool open_ = false;
  bool after_abort_ = false;
  std::uint64_t op_ = 0;
  std::size_t op_span_ = kNoSpan;
  std::size_t coord_span_ = kNoSpan;
  std::uint32_t coord_seq_ = 0;
  std::uint64_t coord_start_ = 0;
  std::uint64_t start_ = 0;
  std::uint64_t last_end_ = 0;
};

// The calling client thread's context; null outside traced client loops.
inline constinit thread_local TraceCtx* t_trace = nullptr;

class TimedTm final : public core::TransactionalMemory {
 public:
  explicit TimedTm(core::TransactionalMemory& inner) : inner_(inner) {}

  // Sessions are the inner TM's, so attempts stay on its pooled hot tier.
  core::TmSession& this_thread_session() override {
    return inner_.this_thread_session();
  }
  core::Transaction& begin(core::TmSession& session) override {
    if (TraceCtx* c = t_trace) c->attempt_begin();
    return inner_.begin(session);
  }
  core::TxnPtr begin() override {
    if (TraceCtx* c = t_trace) c->attempt_begin();
    return inner_.begin();
  }

  std::optional<core::Value> read(core::Transaction& txn,
                                  core::TVarId x) override {
    return counted_read(inner_.read(txn, x));
  }
  bool write(core::Transaction& txn, core::TVarId x, core::Value v) override {
    return counted_write(inner_.write(txn, x, v));
  }
  bool try_commit(core::Transaction& txn) override {
    const bool ok = inner_.try_commit(txn);
    if (TraceCtx* c = t_trace) c->attempt_end(ok);
    return ok;
  }
  void try_abort(core::Transaction& txn) override {
    inner_.try_abort(txn);
    if (TraceCtx* c = t_trace) c->attempt_end(false);
  }

  bool has_word_access() const override { return inner_.has_word_access(); }
  std::optional<core::Value> read_word(core::Transaction& txn,
                                       const core::Value* addr) override {
    return counted_read(inner_.read_word(txn, addr));
  }
  bool write_word(core::Transaction& txn, core::Value* addr,
                  core::Value v) override {
    return counted_write(inner_.write_word(txn, addr, v));
  }
  void* tx_alloc(core::Transaction& txn, std::size_t bytes) override {
    if (TraceCtx* c = t_trace) c->count_alloc();
    return inner_.tx_alloc(txn, bytes);
  }
  bool tx_free(core::Transaction& txn, void* p) override {
    if (TraceCtx* c = t_trace) c->count_free();
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
  std::string name() const override { return inner_.name() + "+timed"; }
  runtime::TxStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

 private:
  // A failed read or write is the abort event A_k: the attempt ends there
  // (core::atomically skips try_commit on a dead view).
  std::optional<core::Value> counted_read(std::optional<core::Value> v) {
    if (TraceCtx* c = t_trace) {
      c->count_read();
      if (!v) c->attempt_end(false);
    }
    return v;
  }
  bool counted_write(bool ok) {
    if (TraceCtx* c = t_trace) {
      c->count_write();
      if (!ok) c->attempt_end(false);
    }
    return ok;
  }

  core::TransactionalMemory& inner_;
};

}  // namespace oftm::bench
