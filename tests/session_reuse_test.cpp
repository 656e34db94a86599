// Descriptor-pool conformance: the properties the allocation-free
// execution tier promises. Every backend recipe must (a) reuse its
// pooled hot-tier descriptor in place across commit/abort, (b) recycle
// portability-tier descriptors through the per-thread free list, (c) keep
// TxId sequencing intact across reuse, (d) produce identical stats
// whether a workload runs through the virtual tier or the session tier,
// and (e) finish an abandoned transaction without counting an abort.
// Statistics live in the sessions, so (f) stats() must be readable while
// workers count on theirs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tm.hpp"
#include "tm_conformance.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"
#include "workload/visit.hpp"

namespace oftm {
namespace {

using core::TxnPtr;
using core::TxStatus;

constexpr std::uint64_t kCounterMask = (std::uint64_t{1} << 48) - 1;

class SessionReuseTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr std::size_t kNumTVars = 64;

  void SetUp() override { tm_ = workload::make_tm(GetParam(), kNumTVars); }

  std::unique_ptr<core::TransactionalMemory> tm_;
};

TEST_P(SessionReuseTest, HotTierReusesOneDescriptorInPlace) {
  core::TmSession& session = tm_->session(0);

  core::Transaction& t1 = tm_->begin(session);
  const core::Transaction* pooled = &t1;
  EXPECT_EQ(t1.status(), TxStatus::kActive);
  ASSERT_TRUE(tm_->write(t1, 1, 11));
  ASSERT_TRUE(tm_->try_commit(t1));

  // After a commit, begin() on the same session must hand back the very
  // same descriptor, re-armed.
  core::Transaction& t2 = tm_->begin(session);
  EXPECT_EQ(&t2, pooled);
  EXPECT_EQ(t2.status(), TxStatus::kActive);
  tm_->try_abort(t2);
  EXPECT_EQ(t2.status(), TxStatus::kAborted);

  // ... and after an abort too.
  core::Transaction& t3 = tm_->begin(session);
  EXPECT_EQ(&t3, pooled);
  EXPECT_EQ(t3.status(), TxStatus::kActive);
  EXPECT_EQ(tm_->read(t3, 1).value(), 11u);
  ASSERT_TRUE(tm_->try_commit(t3));
}

TEST_P(SessionReuseTest, VirtualTierRecyclesDescriptors) {
  const core::Transaction* first = nullptr;
  {
    TxnPtr txn = tm_->begin();
    first = txn.get();
    ASSERT_TRUE(tm_->write(*txn, 2, 22));
    ASSERT_TRUE(tm_->try_commit(*txn));
  }
  {
    // The released descriptor must come back from the free list, not a
    // fresh heap allocation.
    TxnPtr txn = tm_->begin();
    EXPECT_EQ(txn.get(), first);
    tm_->try_abort(*txn);
  }
  {
    TxnPtr txn = tm_->begin();
    EXPECT_EQ(txn.get(), first);
    EXPECT_EQ(tm_->read(*txn, 2).value(), 22u);
    ASSERT_TRUE(tm_->try_commit(*txn));
  }
}

TEST_P(SessionReuseTest, InterleavedHandlesGetDistinctDescriptors) {
  if (GetParam() == "coarse") {
    GTEST_SKIP() << "coarse serializes transactions at begin()";
  }
  TxnPtr a = tm_->begin();
  TxnPtr b = tm_->begin();
  // Two live handles on one thread must not share a pooled descriptor.
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a->id(), b->id());
  ASSERT_TRUE(tm_->write(*a, 3, 33));
  tm_->try_abort(*b);
  ASSERT_TRUE(tm_->try_commit(*a));

  // Handles finish in any order: here the older one commits first, while
  // the younger (pinned on the region and DSTM recipes) is still live.
  TxnPtr c = tm_->begin();
  TxnPtr d = tm_->begin();
  ASSERT_TRUE(tm_->write(*c, 4, 44));
  ASSERT_TRUE(tm_->write(*d, 5, 55));
  ASSERT_TRUE(tm_->try_commit(*c));
  ASSERT_TRUE(tm_->try_commit(*d));
  EXPECT_EQ(tm_->read_quiescent(4), 44u);
  EXPECT_EQ(tm_->read_quiescent(5), 55u);
}

TEST_P(SessionReuseTest, TxIdSequencingSurvivesReuse) {
  // Footnote 3 id discipline: thread slot in the high bits, a per-thread
  // counter in the low bits. Reuse must keep the counter advancing — a
  // recycled descriptor with a stale id would alias transactions in
  // recorded histories.
  core::TxId prev = 0;
  for (int i = 0; i < 6; ++i) {
    TxnPtr txn = tm_->begin();
    const core::TxId id = txn->id();
    if (i > 0) {
      EXPECT_EQ(core::tx_id_thread(id), core::tx_id_thread(prev));
      EXPECT_EQ(id & kCounterMask, (prev & kCounterMask) + 1);
    }
    prev = id;
    if (i % 2 == 0) {
      ASSERT_TRUE(tm_->write(*txn, 4, static_cast<core::Value>(i + 1)));
      ASSERT_TRUE(tm_->try_commit(*txn));
    } else {
      tm_->try_abort(*txn);
    }
  }
}

TEST_P(SessionReuseTest, StatsIdenticalAcrossTiers) {
  // The same single-threaded operation sequence must produce bit-identical
  // statistics whether it runs through TxnPtr handles or pooled sessions —
  // the two tiers are the same machine, not two implementations.
  const auto drive = [](core::TransactionalMemory& tm, bool session_tier) {
    core::TmSession& session = tm.this_thread_session();
    for (int i = 0; i < 12; ++i) {
      core::Transaction* txn = nullptr;
      TxnPtr handle;
      if (session_tier) {
        txn = &tm.begin(session);
      } else {
        handle = tm.begin();
        txn = handle.get();
      }
      const core::TVarId x = static_cast<core::TVarId>(i % 8);
      EXPECT_TRUE(tm.read(*txn, x).has_value());
      EXPECT_TRUE(tm.write(*txn, x, static_cast<core::Value>(i + 100)));
      if (i % 3 == 2) {
        tm.try_abort(*txn);
      } else {
        EXPECT_TRUE(tm.try_commit(*txn));
      }
    }
    return tm.stats();
  };

  auto virtual_tm = workload::make_tm(GetParam(), kNumTVars);
  auto session_tm = workload::make_tm(GetParam(), kNumTVars);
  const auto v = drive(*virtual_tm, /*session_tier=*/false);
  const auto s = drive(*session_tm, /*session_tier=*/true);
  EXPECT_EQ(v.commits, s.commits);
  EXPECT_EQ(v.aborts, s.aborts);
  EXPECT_EQ(v.forced_aborts, s.forced_aborts);
  EXPECT_EQ(v.reads, s.reads);
  EXPECT_EQ(v.writes, s.writes);
  EXPECT_EQ(v.victim_kills, s.victim_kills);
}

TEST_P(SessionReuseTest, AbandonedTransactionsAreNotCountedAsAborts) {
  // Two ways to walk away from an active transaction: drop its handle, or
  // begin its session again. Neither is an abort the program requested or
  // one the TM forced, so no recipe counts one — and the abandoned writes
  // must not become visible.
  {
    TxnPtr dropped = tm_->begin();
    ASSERT_TRUE(tm_->write(*dropped, 5, 55));
  }
  core::TmSession& session = tm_->session(0);
  core::Transaction& left = tm_->begin(session);
  ASSERT_TRUE(tm_->write(left, 6, 66));
  core::Transaction& next = tm_->begin(session);
  ASSERT_TRUE(tm_->try_commit(next));

  EXPECT_EQ(tm_->stats().aborts, 0u);
  EXPECT_EQ(tm_->read_quiescent(5), 0u);
  EXPECT_EQ(tm_->read_quiescent(6), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SessionReuseTest,
                         ::testing::ValuesIn(workload::all_backends()),
                         conformance::backend_param_name);

// The benchmark reads every TM's stats() in mid-run; stats() then walks
// the session table while each worker counts in its own session. Commits
// never go backwards between polls, and after the join the counts are
// exact.
class StatsWhileRunningTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StatsWhileRunningTest, PollsNeverGoBackwardsAndSettleExactly) {
  auto tm = workload::make_tm(GetParam(), 64);
  workload::WorkloadConfig config;
  config.threads = 4;
  config.run_seconds = 0.25;
  config.ops_per_tx = 4;
  config.write_fraction = 0.5;
  config.seed = 0x57A7;

  std::atomic<bool> done{false};
  std::vector<std::uint64_t> polled;
  bool consistent = true;
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const runtime::TxStats s = tm->stats();
      polled.push_back(s.commits);
      consistent = consistent && s.abort_reasons_consistent();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const workload::RunResult r = workload::run_workload(*tm, config);
  done.store(true, std::memory_order_release);
  poller.join();

  const runtime::TxStats s = tm->stats();
  EXPECT_EQ(s.commits, r.committed);
  EXPECT_TRUE(s.abort_reasons_consistent());
  EXPECT_TRUE(consistent);
  bool mid_run = false;
  for (std::size_t i = 0; i < polled.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(polled[i], polled[i - 1]) << "poll " << i;
    }
    EXPECT_LE(polled[i], r.committed) << "poll " << i;
    mid_run = mid_run || (polled[i] > 0 && polled[i] < r.committed);
  }
  EXPECT_TRUE(mid_run) << polled.size() << " polls, none mid-run";
}

INSTANTIATE_TEST_SUITE_P(Recipes, StatsWhileRunningTest,
                         ::testing::Values("tl2", "norec-region"),
                         conformance::backend_param_name);

// visit_tm and make_tm share one recipe grammar; a recipe constructible by
// one must be constructible by the other and name the same backend, or
// benches would measure something the conformance suite never certified.
TEST(VisitTm, AgreesWithMakeTmOnEveryRecipe) {
  for (const std::string& recipe : workload::all_backends()) {
    auto erased = workload::make_tm(recipe, 8);
    const std::string visited_name = workload::visit_tm(
        recipe, 8, [](auto& tm) { return tm.name(); });
    EXPECT_EQ(visited_name, erased->name()) << recipe;
  }
}

TEST(VisitTm, RejectsWhatMakeTmRejects) {
  const auto reject = [](const std::string& recipe) {
    EXPECT_THROW(workload::visit_tm(recipe, 8, [](auto&) {}),
                 std::invalid_argument)
        << recipe;
  };
  reject("no-such-backend");
  reject("");
  reject("tl:karma");
  reject("norec:polite");
}

// The concrete-type driver overload must agree with the type-erased one.
TEST(VisitTm, ConcreteDriverMatchesVirtualDriver) {
  workload::WorkloadConfig config;
  config.threads = 2;
  config.tx_per_thread = 200;
  config.ops_per_tx = 4;
  config.seed = 11;
  config.pin_threads = false;

  auto erased = workload::make_tm("norec", 64);
  const auto rv = workload::run_workload(*erased, config);
  const auto rc = workload::visit_tm("norec", 64, [&](auto& tm) {
    return workload::run_workload(tm, config);
  });
  EXPECT_EQ(rv.committed, rc.committed);
  EXPECT_EQ(rc.committed, 400u);
}

}  // namespace
}  // namespace oftm
