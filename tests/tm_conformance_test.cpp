// Cross-backend conformance suite: every backend the factory can build is
// driven through core::TransactionalMemory by the same Section 2.2
// assertions — abort events are terminal, reads see own writes, commits are
// atomic under concurrency, and recorded histories pass the opacity checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/atomically.hpp"
#include "history/checker.hpp"
#include "history/recorder.hpp"
#include "tm_conformance.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm {
namespace {

using conformance::TmConformanceTest;
using core::TxnPtr;
using core::TxStatus;

// ---------------------------------------------------------------------------
// Transaction lifecycle: status transitions and terminal abort events.
// ---------------------------------------------------------------------------

TEST_P(TmConformanceTest, StatusFollowsLifecycle) {
  {
    TxnPtr txn = tm_->begin();
    EXPECT_EQ(txn->status(), TxStatus::kActive);
    ASSERT_TRUE(tm_->write(*txn, 0, 1));
    EXPECT_EQ(txn->status(), TxStatus::kActive);
    ASSERT_TRUE(tm_->try_commit(*txn));
    EXPECT_EQ(txn->status(), TxStatus::kCommitted);
  }
  {
    TxnPtr txn = tm_->begin();
    tm_->try_abort(*txn);
    EXPECT_EQ(txn->status(), TxStatus::kAborted);
  }
}

TEST_P(TmConformanceTest, AbortEventIsTerminal) {
  // After A_k every further operation of T_k must itself return A_k and
  // must not change the transaction's state (Section 2.2: A_k completes
  // the transaction).
  TxnPtr txn = tm_->begin();
  ASSERT_TRUE(tm_->write(*txn, 1, 11));
  tm_->try_abort(*txn);
  EXPECT_EQ(txn->status(), TxStatus::kAborted);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(tm_->read(*txn, 1).has_value());
    EXPECT_FALSE(tm_->write(*txn, 1, 12));
    EXPECT_FALSE(tm_->try_commit(*txn));
    tm_->try_abort(*txn);  // tryA is idempotent on an aborted transaction
    EXPECT_EQ(txn->status(), TxStatus::kAborted);
  }
  // The transaction aborted once, so it is counted once.
  EXPECT_EQ(tm_->stats().aborts, 1u);
}

TEST_P(TmConformanceTest, PostAbortWritesAreNeverVisible) {
  // Writes of a transaction that ends in A_k must never reach committed
  // state, whether the abort was requested before or surfaced by a
  // rejected operation.
  {
    TxnPtr setup = tm_->begin();
    ASSERT_TRUE(tm_->write(*setup, 2, 20));
    ASSERT_TRUE(tm_->write(*setup, 3, 30));
    ASSERT_TRUE(tm_->try_commit(*setup));
  }
  TxnPtr txn = tm_->begin();
  ASSERT_TRUE(tm_->write(*txn, 2, 21));
  ASSERT_TRUE(tm_->write(*txn, 3, 31));
  ASSERT_TRUE(tm_->write(*txn, 4, 41));
  tm_->try_abort(*txn);
  EXPECT_EQ(txn->status(), TxStatus::kAborted);
  // A write issued *after* the abort event must also stay invisible.
  EXPECT_FALSE(tm_->write(*txn, 5, 51));
  EXPECT_EQ(tm_->read_quiescent(2), 20u);
  EXPECT_EQ(tm_->read_quiescent(3), 30u);
  EXPECT_EQ(tm_->read_quiescent(4), 0u);
  EXPECT_EQ(tm_->read_quiescent(5), 0u);
  // A fresh transaction sees only the committed state.
  TxnPtr check = tm_->begin();
  EXPECT_EQ(tm_->read(*check, 2).value(), 20u);
  EXPECT_EQ(tm_->read(*check, 4).value(), 0u);
  EXPECT_TRUE(tm_->try_commit(*check));
}

TEST_P(TmConformanceTest, ReturnedAbortEventImpliesAbortedStatus) {
  // Drive two raw (no-retry) conflicting workers; whenever any operation
  // returns the abort event A_k, the handle must report kAborted and that
  // transaction's writes must never become visible. Backends that never
  // forcefully abort in this pattern (e.g. coarse) pass vacuously.
  constexpr core::Value kPoison = 0xDEADBEEF;
  std::atomic<bool> poison_seen{false};
  auto worker = [&](core::TVarId mine, core::TVarId theirs) {
    for (int i = 0; i < 300; ++i) {
      TxnPtr txn = tm_->begin();
      bool aborted = false;
      const auto v = tm_->read(*txn, theirs);
      if (v.has_value() && *v == kPoison) poison_seen.store(true);
      if (!v.has_value()) {
        aborted = true;
      } else if (!tm_->write(*txn, mine, kPoison)) {
        aborted = true;
      } else if (!tm_->write(*txn, mine, i + 1) ||
                 !tm_->write(*txn, theirs, i + 1)) {
        aborted = true;
      } else if (!tm_->try_commit(*txn)) {
        aborted = true;
      }
      if (aborted) {
        EXPECT_EQ(txn->status(), TxStatus::kAborted);
      }
    }
  };
  std::thread a(worker, 10, 11);
  std::thread b(worker, 11, 10);
  a.join();
  b.join();
  // kPoison is always overwritten before commit, so it is visible only if
  // an aborted transaction leaked its write set.
  EXPECT_FALSE(poison_seen.load());
  EXPECT_NE(tm_->read_quiescent(10), kPoison);
  EXPECT_NE(tm_->read_quiescent(11), kPoison);
}

// ---------------------------------------------------------------------------
// Read-your-own-writes and snapshot behaviour.
// ---------------------------------------------------------------------------

TEST_P(TmConformanceTest, ReadsSeeOwnWritesInterleaved) {
  TxnPtr txn = tm_->begin();
  for (core::TVarId x = 0; x < 32; ++x) {
    ASSERT_TRUE(tm_->write(*txn, x, x + 100));
  }
  for (core::TVarId x = 0; x < 32; ++x) {
    EXPECT_EQ(tm_->read(*txn, x).value(), x + 100);
    ASSERT_TRUE(tm_->write(*txn, x, x + 200));
    EXPECT_EQ(tm_->read(*txn, x).value(), x + 200);
  }
  ASSERT_TRUE(tm_->try_commit(*txn));
  for (core::TVarId x = 0; x < 32; ++x) {
    EXPECT_EQ(tm_->read_quiescent(x), x + 200);
  }
}

// ---------------------------------------------------------------------------
// Commit atomicity under real concurrency.
// ---------------------------------------------------------------------------

TEST_P(TmConformanceTest, CommitAtomicityUnderConcurrency) {
  // Transfers between two t-variables preserve their sum; concurrent
  // readers must never observe a partially applied transfer.
  constexpr core::Value kTotal = 1000;
  core::atomically(*tm_, [&](core::TxView& tx) { tx.write(50, kTotal); });

  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::thread writer([&] {
    for (int i = 0; i < 400; ++i) {
      core::atomically(*tm_, [&](core::TxView& tx) {
        const core::Value a = tx.read(50);
        const core::Value amount = i % 7;
        if (a >= amount) {
          tx.write(50, a - amount);
          tx.write(51, tx.read(51) + amount);
        } else {
          const core::Value b = tx.read(51);
          tx.write(50, a + b);
          tx.write(51, 0);
        }
      });
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      const auto sum = core::atomically(*tm_, [](core::TxView& tx) {
        return tx.read(50) + tx.read(51);
      });
      if (sum != kTotal) torn_reads.fetch_add(1);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(tm_->read_quiescent(50) + tm_->read_quiescent(51), kTotal);
}

// ---------------------------------------------------------------------------
// Opacity spot-check via the history recorder.
// ---------------------------------------------------------------------------

TEST_P(TmConformanceTest, RecordedHistoryIsOpaque) {
  history::Recorder recorder;
  history::RecordingTm recorded(*tm_, recorder);
  workload::WorkloadConfig config;
  config.threads = 4;
  config.tx_per_thread = 100;
  config.ops_per_tx = 6;
  config.write_fraction = 0.5;
  config.seed = 7;
  const auto r = workload::run_workload(recorded, config);
  EXPECT_EQ(r.committed, 400u);
  EXPECT_EQ(recorder.check_well_formed(), "");
  history::MvsgOptions opts;
  opts.respect_real_time = true;
  opts.include_aborted_readers = true;
  const auto check = history::check_mvsg(recorder.transactions(), opts);
  EXPECT_TRUE(check.ok) << check.error;
}

// ---------------------------------------------------------------------------
// Stats plumbing (core::PooledTm) across every backend.
// ---------------------------------------------------------------------------

TEST_P(TmConformanceTest, StatsCountersTrackOperationsAndReset) {
  tm_->reset_stats();
  for (int i = 0; i < 5; ++i) {
    TxnPtr txn = tm_->begin();
    ASSERT_TRUE(tm_->read(*txn, 60).has_value());
    ASSERT_TRUE(tm_->write(*txn, 60, i + 1));
    ASSERT_TRUE(tm_->try_commit(*txn));
  }
  for (int i = 0; i < 3; ++i) {
    TxnPtr txn = tm_->begin();
    ASSERT_TRUE(tm_->write(*txn, 61, i + 1));
    tm_->try_abort(*txn);
  }
  const auto s = tm_->stats();
  EXPECT_EQ(s.commits, 5u);
  EXPECT_EQ(s.aborts, 3u);
  EXPECT_EQ(s.forced_aborts, 0u);  // requested aborts are not forceful
  EXPECT_GE(s.reads, 5u);
  EXPECT_GE(s.writes, 8u);

  tm_->reset_stats();
  const auto z = tm_->stats();
  EXPECT_EQ(z.commits, 0u);
  EXPECT_EQ(z.aborts, 0u);
  EXPECT_EQ(z.forced_aborts, 0u);
  EXPECT_EQ(z.reads, 0u);
  EXPECT_EQ(z.writes, 0u);
  EXPECT_EQ(z.cm_backoffs, 0u);
  EXPECT_EQ(z.victim_kills, 0u);
}

OFTM_INSTANTIATE_FOR_ALL_BACKENDS(TmConformanceTest);

// ---------------------------------------------------------------------------
// Factory error paths (not parameterized: these must throw, not build).
// ---------------------------------------------------------------------------

TEST(TmFactoryErrors, UnknownBackendNameThrows) {
  EXPECT_THROW(workload::make_tm("no-such-backend", 16),
               std::invalid_argument);
  EXPECT_THROW(workload::make_tm("", 16), std::invalid_argument);
  EXPECT_THROW(workload::make_tm("DSTM", 16), std::invalid_argument);
}

TEST(TmFactoryErrors, UnknownContentionManagerThrows) {
  EXPECT_THROW(workload::make_tm("dstm:no-such-cm", 16),
               std::invalid_argument);
  EXPECT_THROW(workload::make_tm("dstm:", 16), std::invalid_argument);
}

TEST(TmFactoryErrors, CmSuffixOnNonDstmBackendThrows) {
  // Only the DSTM family takes a contention manager; a ':<cm>' suffix on
  // any other backend is a recipe typo that must not silently run the
  // base backend.
  EXPECT_THROW(workload::make_tm("tl:karma", 16), std::invalid_argument);
  EXPECT_THROW(workload::make_tm("tl2:polite", 16), std::invalid_argument);
  EXPECT_THROW(workload::make_tm("coarse:karma", 16), std::invalid_argument);
  EXPECT_THROW(workload::make_tm("foctm:karma", 16), std::invalid_argument);
  EXPECT_THROW(workload::make_tm("norec:karma", 16), std::invalid_argument);
}

TEST(TmFactoryErrors, DefaultBackendsAreAdvertisedAndConstructible) {
  // default_backends() (what comparative benches sweep) must stay a subset
  // of all_backends() (what the conformance suite certifies): a recipe in
  // the first but not the second would be benched without ever being
  // tested, so the lists must not drift apart.
  const auto& all = workload::all_backends();
  for (const std::string& name : workload::default_backends()) {
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end())
        << name << " is swept by default but not conformance-tested";
    auto tm = workload::make_tm(name, 8);
    ASSERT_NE(tm, nullptr) << name;
  }
}

TEST(TmFactoryErrors, EveryAdvertisedBackendConstructs) {
  for (const std::string& name : workload::all_backends()) {
    auto tm = workload::make_tm(name, 8);
    ASSERT_NE(tm, nullptr) << name;
    EXPECT_EQ(tm->num_tvars(), 8u) << name;
    EXPECT_FALSE(tm->name().empty()) << name;
  }
}

}  // namespace
}  // namespace oftm
