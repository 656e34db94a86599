// Shared cross-backend conformance fixture: the TM-as-shared-object
// semantics of Section 2.2, phrased once and instantiated over every
// backend recipe in workload::all_backends() (src/workload/factory.cpp —
// the factory owns the list, so adding a backend there enrolls it in the
// whole suite) — and over every recipe a second time through the
// pooled-session hot tier (the "<recipe>@session" parameters), so both
// execution tiers of core::TransactionalMemory certify the same
// semantics.
//
// Used by tm_conformance_test.cpp (the conformance suite proper) and
// stm_unit_test.cpp (the original backend-agnostic unit tests, now driven
// through the same fixture).
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tm.hpp"
#include "history/checker.hpp"
#include "history/recorder.hpp"
#include "runtime/assert.hpp"
#include "runtime/thread_registry.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm::conformance {

inline constexpr std::string_view kSessionTierSuffix = "@session";

// Test-only decorator that routes the portability-tier interface through
// the wrapped backend's pooled-session hot tier: every begin() leases a
// session slot, begins on it via begin(TmSession&), and hands back a proxy
// handle whose release returns the lease. Lets the whole conformance
// suite certify the hot tier without rewriting a single test.
class SessionTierTm final : public core::TransactionalMemory {
 public:
  explicit SessionTierTm(std::unique_ptr<core::TransactionalMemory> inner)
      : inner_(std::move(inner)) {
    for (int s = runtime::ThreadRegistry::kMaxThreads - 1; s >= 0; --s) {
      free_slots_.push_back(s);
    }
  }

  ~SessionTierTm() override {
    // Fallback sessions (atomically() drives this wrapper through them)
    // hold the last proxy handle; release it while inner_ and the slot
    // list are still alive — the base destructor would be too late.
    release_sessions();
  }

  using core::TransactionalMemory::begin;

  core::TxnPtr begin() override {
    core::ThreadSlot slot;
    {
      std::lock_guard<std::mutex> lk(mu_);
      OFTM_ASSERT_MSG(!free_slots_.empty(), "session slots exhausted");
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    core::Transaction& pooled = inner_->begin(inner_->session(slot));
    return core::TxnPtr(new Proxy(*this, pooled, slot));
  }

  std::optional<core::Value> read(core::Transaction& txn,
                                  core::TVarId x) override {
    return inner_->read(unwrap(txn), x);
  }
  bool write(core::Transaction& txn, core::TVarId x, core::Value v) override {
    return inner_->write(unwrap(txn), x, v);
  }
  bool try_commit(core::Transaction& txn) override {
    return inner_->try_commit(unwrap(txn));
  }
  void try_abort(core::Transaction& txn) override {
    inner_->try_abort(unwrap(txn));
  }
  bool has_word_access() const override { return inner_->has_word_access(); }
  std::optional<core::Value> read_word(core::Transaction& txn,
                                       const core::Value* addr) override {
    return inner_->read_word(unwrap(txn), addr);
  }
  bool write_word(core::Transaction& txn, core::Value* addr,
                  core::Value v) override {
    return inner_->write_word(unwrap(txn), addr, v);
  }
  void* tx_alloc(core::Transaction& txn, std::size_t bytes) override {
    return inner_->tx_alloc(unwrap(txn), bytes);
  }
  bool tx_free(core::Transaction& txn, void* p) override {
    return inner_->tx_free(unwrap(txn), p);
  }
  void* alloc_quiescent(std::size_t bytes) override {
    return inner_->alloc_quiescent(bytes);
  }
  core::Value read_word_quiescent(const core::Value* addr) const override {
    return inner_->read_word_quiescent(addr);
  }
  std::size_t num_tvars() const override { return inner_->num_tvars(); }
  core::Value read_quiescent(core::TVarId x) const override {
    return inner_->read_quiescent(x);
  }
  std::string name() const override { return inner_->name() + "@session"; }
  runtime::TxStats stats() const override { return inner_->stats(); }
  void reset_stats() override { inner_->reset_stats(); }

 private:
  class Proxy final : public core::Transaction {
   public:
    Proxy(SessionTierTm& tm, core::Transaction& pooled, core::ThreadSlot slot)
        : tm_(tm), pooled_(pooled), slot_(slot) {}
    core::TxStatus status() const override { return pooled_.status(); }
    core::TxId id() const override { return pooled_.id(); }

   private:
    friend class SessionTierTm;

    void handle_released() noexcept override {
      // The returned slot's next lease may begin on another thread, so the
      // transaction ends here, on its own: an abandoned live one must not
      // keep protocol resources (coarse's global lock) hostage, and one
      // that another thread killed must still drop its epoch pin (DSTM).
      // Every backend's try_abort is safe to repeat: on a finished
      // transaction it counts nothing and only lets go of what is held.
      tm_.inner_->try_abort(pooled_);
      tm_.return_slot(slot_);
      delete this;
    }

    SessionTierTm& tm_;
    core::Transaction& pooled_;
    const core::ThreadSlot slot_;
  };

  static core::Transaction& unwrap(core::Transaction& txn) {
    return static_cast<Proxy&>(txn).pooled_;
  }

  void return_slot(core::ThreadSlot slot) noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    free_slots_.push_back(slot);
  }

  std::unique_ptr<core::TransactionalMemory> inner_;
  std::mutex mu_;
  std::vector<core::ThreadSlot> free_slots_;
};

// Builds the TM a conformance parameter names: a plain recipe constructs
// the backend directly (portability tier); "<recipe>@session" wraps it in
// SessionTierTm so the identical assertions drive the hot tier.
inline std::unique_ptr<core::TransactionalMemory> make_conformance_tm(
    const std::string& param, std::size_t num_tvars) {
  const std::string_view p(param);
  if (p.size() > kSessionTierSuffix.size() &&
      p.substr(p.size() - kSessionTierSuffix.size()) == kSessionTierSuffix) {
    const std::string recipe(
        p.substr(0, p.size() - kSessionTierSuffix.size()));
    return std::make_unique<SessionTierTm>(
        workload::make_tm(recipe, num_tvars));
  }
  return workload::make_tm(param, num_tvars);
}

// all_backends() with the session-tier suffix appended to every recipe.
inline const std::vector<std::string>& session_tier_backends() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const std::string& name : workload::all_backends()) {
      v.push_back(name + std::string(kSessionTierSuffix));
    }
    return v;
  }();
  return names;
}

// gtest test names must be alphanumeric/underscore only.
inline std::string backend_param_name(
    const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == ':' || c == '-' || c == '@') c = '_';
  }
  return name;
}

// Base fixture: a fresh instance of the parameterized backend per test.
class TmConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr std::size_t kNumTVars = 256;

  void SetUp() override { tm_ = make_conformance_tm(GetParam(), kNumTVars); }

  std::unique_ptr<core::TransactionalMemory> tm_;
};

// ---------------------------------------------------------------------------
// Large-history (checked-stress) mode: record a full workload run, check
// well-formedness and opacity, and hand back the verdict plus the checking
// wall time. Used by tests/checked_stress_test.cpp over every backend
// recipe on both execution tiers; the DAP side of the tier (full
// conflict-graph witnesses on simulated backends) lives in the same test
// file.

struct CheckedStressOutcome {
  workload::RunResult run;
  std::size_t events = 0;        // recorded history length
  std::size_t transactions = 0;  // digested TxRecords (committed + aborted)
  std::string well_formed_error; // empty == well-formed
  history::CheckResult check;    // opacity verdict (strict + aborted readers)
  double check_seconds = 0;      // check_mvsg wall time alone
};

inline CheckedStressOutcome run_checked_stress(
    core::TransactionalMemory& tm, const workload::WorkloadConfig& config,
    int check_threads = 0) {
  CheckedStressOutcome out;
  history::Recorder recorder;
  history::RecordingTm recorded(tm, recorder);
  out.run = workload::run_workload(recorded, config);
  // One snapshot of the (multi-million-event) log, shared by the
  // well-formedness check and the digestion — the per-call snapshot
  // convenience methods would copy it twice.
  const auto events = recorder.events();
  out.events = events.size();
  // Digestion and the check both run on the parallel paths (0 = one worker
  // per hardware thread) — results are bit-identical to sequential for
  // every thread count, so the verdicts the tier pins are unchanged.
  out.well_formed_error =
      history::Recorder::check_well_formed(events, check_threads);
  const auto txns = history::Recorder::transactions(events, check_threads);
  out.transactions = txns.size();
  history::MvsgOptions opts;
  opts.respect_real_time = true;
  opts.include_aborted_readers = true;
  opts.threads = check_threads;
  const auto t0 = std::chrono::steady_clock::now();
  out.check = history::check_mvsg(txns, opts);
  out.check_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return out;
}

// Instantiates `fixture` (TmConformanceTest or a subclass registered with
// TEST_P) over every factory backend, through both execution tiers.
#define OFTM_INSTANTIATE_FOR_ALL_BACKENDS(fixture)                        \
  INSTANTIATE_TEST_SUITE_P(                                               \
      AllBackends, fixture,                                               \
      ::testing::ValuesIn(::oftm::workload::all_backends()),              \
      ::oftm::conformance::backend_param_name);                           \
  INSTANTIATE_TEST_SUITE_P(                                               \
      AllBackendsSessionTier, fixture,                                    \
      ::testing::ValuesIn(::oftm::conformance::session_tier_backends()),  \
      ::oftm::conformance::backend_param_name)

}  // namespace oftm::conformance
