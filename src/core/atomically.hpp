// Convenience retry layer: the programming model the paper's introduction
// describes ("a process that wants to access a shared data structure
// executes some operations ... inside an atomic program called a
// transaction"). A forcefully aborted transaction is transparently retried
// with randomized backoff — the paper (Section 3) stresses that *restarting
// a computation is up to the application*, which is exactly what this layer
// is: application-side glue, not part of any TM implementation.
//
// Execution model (no-throw retry loop). Each attempt runs on the calling
// thread's pooled session (core::TmSession), so retries reuse one
// transaction descriptor and allocate nothing. A TM-forced abort does NOT
// throw: the TxView goes *dead* — the failing read returns 0, every
// subsequent operation no-ops, and ok() turns false — and the attempt
// resolves to TxOutcome::kRetry once the body returns. Bodies with loops
// whose bounds depend on transactional reads must check ok() (a dead
// view's poison values are not a consistent snapshot); straight-line
// bodies need no changes. TxRetrySignal remains only as the user-facing
// escape hatch from deep call stacks (TxView::retry() throws it);
// TxView::cancel() throws TxCancelled through atomically() to the caller,
// exactly as before.
#pragma once

#include <optional>
#include <type_traits>
#include <utility>

#include "core/tm.hpp"
#include "runtime/backoff.hpp"

namespace oftm::core {

// Resolution of one transactional attempt.
enum class TxOutcome {
  kCommitted,  // C_k: the body's effects took place atomically
  kRetry,      // A_k (forced or requested): run the body again
  kCancelled,  // TxView::cancel(): abort and do NOT retry
};

// User-facing escape hatch from deep call stacks: thrown by
// TxView::retry(), caught by the attempt loop. Not derived from
// std::exception on purpose — user catch(const std::exception&) blocks
// inside transaction bodies must not swallow it. TM-forced aborts never
// throw this (they surface through TxView::ok()).
struct TxRetrySignal {};

// Thrown by TxView::cancel(): unwind and do NOT retry. atomically()
// rethrows it to the caller; atomically_once() reports kCancelled.
struct TxCancelled {};

// The handle the transaction body programs against.
class TxView {
 public:
  TxView(TransactionalMemory& tm, Transaction& txn) noexcept
      : tm_(tm), txn_(txn) {}

  // Read x. On a TM-forced abort the view goes dead: this call returns 0
  // (a poison value — not a consistent snapshot), every later operation
  // no-ops, and ok() is false. Return from the body promptly; loops
  // bounded by transactional values must check ok().
  Value read(TVarId x) {
    if (dead_) return 0;
    const auto v = tm_.read(txn_, x);
    if (!v) {
      dead_ = true;
      return 0;
    }
    return *v;
  }

  // Write v to x; a no-op once the view is dead.
  void write(TVarId x, Value v) {
    if (dead_) return;
    if (!tm_.write(txn_, x, v)) dead_ = true;
  }

  // ---- Word tier (region-capable backends only) ------------------------
  // Same dead-view discipline as read/write: a forced abort poisons the
  // view, and every later word operation no-ops. Callers gate layout
  // decisions on has_word_access(); reaching read_at/write_at/alloc on a
  // boxed backend trips the TransactionalMemory default asserts.

  bool has_word_access() const noexcept { return tm_.has_word_access(); }

  // Read the heap word at addr; 0 + dead view on a forced abort.
  Value read_at(const Value* addr) {
    if (dead_) return 0;
    const auto v = tm_.read_word(txn_, addr);
    if (!v) {
      dead_ = true;
      return 0;
    }
    return *v;
  }

  // Write v to the heap word at addr; a no-op once the view is dead.
  void write_at(Value* addr, Value v) {
    if (dead_) return;
    if (!tm_.write_word(txn_, addr, v)) dead_ = true;
  }

  // Transactionally allocate a zeroed block. nullptr on a dead view OR on
  // arena exhaustion — exhaustion is not an abort (ok() stays true), so
  // callers that must distinguish check ok() after a nullptr.
  void* alloc(std::size_t bytes) {
    if (dead_) return nullptr;
    return tm_.tx_alloc(txn_, bytes);
  }

  // Transactionally free a block (deferred to commit; forgotten on abort).
  void dealloc(void* p) {
    if (dead_ || p == nullptr) return;
    tm_.tx_free(txn_, p);
  }

  // False once the transaction was forcefully aborted (or retry() ran):
  // the attempt is doomed and the body should return.
  bool ok() const noexcept { return !dead_; }

  // Application-requested abort + retry from scratch (e.g. "retry" in
  // composable-memory-transactions style when a precondition fails).
  // Throws TxRetrySignal so deep call stacks unwind without plumbing
  // ok() everywhere.
  [[noreturn]] void retry() {
    // Attribute the abort to the application's retry request, not to a
    // plain tryA (the hint is consumed by the backend's abort accounting,
    // and restored to the default if the transaction was already dead).
    obs::hint_abort(obs::AbortReason::kExplicitRetry);
    tm_.try_abort(txn_);
    obs::hint_abort(obs::AbortReason::kUserRequested);
    dead_ = true;
    throw TxRetrySignal{};
  }

  // Application-requested abort without retry: atomically() rethrows
  // TxCancelled to the caller.
  [[noreturn]] void cancel() {
    tm_.try_abort(txn_);
    dead_ = true;
    throw TxCancelled{};
  }

  Transaction& transaction() noexcept { return txn_; }

 private:
  TransactionalMemory& tm_;
  Transaction& txn_;
  bool dead_ = false;
};

namespace detail {

// One transactional attempt; `sink` receives the body's result on commit
// (called at most once, with an rvalue). Kept out of the public surface so
// atomically()/atomically_once() can choose their own result storage.
template <typename F, typename Sink>
TxOutcome run_attempt(TransactionalMemory& tm, TmSession& session, F&& body,
                      Sink&& sink) {
  using R = std::invoke_result_t<F&, TxView&>;
  Transaction& txn = tm.begin(session);
  TxView view(tm, txn);
  try {
    if constexpr (std::is_void_v<R>) {
      body(view);
      if (view.ok() && tm.try_commit(txn)) return TxOutcome::kCommitted;
    } else {
      R r = body(view);
      if (view.ok() && tm.try_commit(txn)) {
        sink(std::move(r));
        return TxOutcome::kCommitted;
      }
    }
  } catch (const TxRetrySignal&) {
    // retry() already aborted; a raw user-thrown signal may not have —
    // finish the transaction either way (idempotent on a completed one).
    obs::hint_abort(obs::AbortReason::kExplicitRetry);
    tm.try_abort(txn);
    obs::hint_abort(obs::AbortReason::kUserRequested);
    return TxOutcome::kRetry;
  } catch (const TxCancelled&) {
    tm.try_abort(txn);
    return TxOutcome::kCancelled;
  } catch (...) {
    // Foreign exception unwinding out of the body: the pooled descriptor
    // has no RAII handle, so finish the transaction here or backend
    // resources (coarse's global lock, TL's encounter-time locks) would
    // stay held until the next begin on this session.
    tm.try_abort(txn);
    throw;
  }
  return TxOutcome::kRetry;
}

struct DiscardResult {
  template <typename T>
  void operator()(T&&) const noexcept {}
};

}  // namespace detail

// Run `body(TxView&)` once as a transaction on `session` and report the
// outcome as a status code; the body's return value (if any) is discarded.
// Never throws on TM-forced aborts; exceptions other than
// TxRetrySignal/TxCancelled propagate (after aborting the transaction).
template <typename F>
TxOutcome atomically_once(TransactionalMemory& tm, TmSession& session,
                          F&& body) {
  return detail::run_attempt(tm, session, body, detail::DiscardResult{});
}

// Same, writing the body's return value through *result on kCommitted.
// *result must be assignable from the body's return type.
template <typename F, typename Out>
TxOutcome atomically_once(TransactionalMemory& tm, TmSession& session,
                          F&& body, Out* result) {
  return detail::run_attempt(tm, session, body, [result](auto&& r) {
    *result = std::forward<decltype(r)>(r);
  });
}

// Run `body(TxView&)` as a transaction, retrying on abort (forced or
// requested) until it commits. Returns the body's return value of the
// committed execution (move-constructible suffices). Rethrows TxCancelled
// if the body cancels.
template <typename F>
auto atomically(TransactionalMemory& tm, F&& body) {
  using R = std::invoke_result_t<F&, TxView&>;
  runtime::ExponentialBackoff backoff;
  TmSession& session = tm.this_thread_session();
  for (;;) {
    if constexpr (std::is_void_v<R>) {
      switch (atomically_once(tm, session, body)) {
        case TxOutcome::kCommitted: return;
        case TxOutcome::kCancelled: throw TxCancelled{};
        case TxOutcome::kRetry: break;
      }
    } else {
      std::optional<R> result;
      const TxOutcome outcome = detail::run_attempt(
          tm, session, body, [&result](R&& r) { result.emplace(std::move(r)); });
      switch (outcome) {
        case TxOutcome::kCommitted: return std::move(*result);
        case TxOutcome::kCancelled: throw TxCancelled{};
        case TxOutcome::kRetry: break;
      }
    }
    backoff.pause();
  }
}

}  // namespace oftm::core
