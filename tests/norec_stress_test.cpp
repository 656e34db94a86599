// NOrec concurrency stress (labelled `stress`; also run under TSan via
// `ctest --preset tsan-stress`): the single global sequence lock and the
// invisible-read/value-revalidation protocol are exactly the kind of
// synchronization where a missed ordering shows up only under load.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "history/checker.hpp"
#include "history/recorder.hpp"
#include "runtime/barrier.hpp"
#include "runtime/xorshift.hpp"
#include "tm_conformance.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm {
namespace {

class NorecStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NorecStressTest, BankInvariantHolds) {
  auto tm = workload::make_tm(GetParam(), 128);
  bool invariant_ok = false;
  const auto result = workload::run_bank_workload(
      *tm, /*threads=*/8, /*tx_per_thread=*/3000, /*accounts=*/32,
      /*initial_balance=*/1000, /*seed=*/17, &invariant_ok);
  EXPECT_TRUE(invariant_ok) << GetParam();
  EXPECT_GT(result.committed, 0u);
}

TEST_P(NorecStressTest, HighContentionHistoryIsOpaque) {
  // Few t-variables, many writers: the sequence lock is hammered and
  // almost every read triggers revalidation. The recorded history must
  // still pass the full opacity check (real-time order + consistent
  // aborted readers) — NOrec's safety claim.
  auto tm = workload::make_tm(GetParam(), 12);
  history::Recorder recorder;
  history::RecordingTm recorded(*tm, recorder);

  workload::WorkloadConfig config;
  config.threads = 6;
  config.tx_per_thread = 150;
  config.ops_per_tx = 4;
  config.write_fraction = 0.6;
  config.seed = 4321;
  (void)workload::run_workload(recorded, config);

  EXPECT_EQ(recorder.check_well_formed(), "");
  history::MvsgOptions opacity;
  opacity.respect_real_time = true;
  opacity.include_aborted_readers = true;
  const auto check = history::check_mvsg(recorder.transactions(), opacity);
  EXPECT_TRUE(check.ok) << GetParam() << ": " << check.error;
}

TEST_P(NorecStressTest, ConcurrentIncrementsAllComplete) {
  // Livelock bound at scale: every failed commit CAS means somebody else
  // committed, so total work is bounded and all increments land. A
  // livelock (or a lost write-back) shows up as a wrong sum or a timeout.
  auto tm = workload::make_tm(GetParam(), 4);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  runtime::SpinBarrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      runtime::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 99);
      barrier.arrive_and_wait();
      for (int i = 0; i < kIncrements; ++i) {
        const auto x = static_cast<core::TVarId>(rng.next_range(4));
        for (;;) {
          core::TxnPtr txn = tm->begin();
          const auto v = tm->read(*txn, x);
          if (!v) continue;
          if (!tm->write(*txn, x, *v + 1)) continue;
          if (tm->try_commit(*txn)) break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  core::Value sum = 0;
  for (core::TVarId x = 0; x < 4; ++x) sum += tm->read_quiescent(x);
  EXPECT_EQ(sum, static_cast<core::Value>(kThreads) * kIncrements);
}

TEST_P(NorecStressTest, ReadersNeverSeeTornCommits) {
  // Writers move value mass between a pair of t-variables while read-only
  // transactions (which never take the sequence lock) continuously assert
  // the conservation invariant — the cheapest detector for a reader
  // slipping through a concurrent write-back.
  auto tm = workload::make_tm(GetParam(), 8);
  constexpr core::Value kTotal = 10000;
  {
    core::TxnPtr txn = tm->begin();
    ASSERT_TRUE(tm->write(*txn, 0, kTotal));
    ASSERT_TRUE(tm->try_commit(*txn));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        core::TxnPtr txn = tm->begin();
        const auto a = tm->read(*txn, 0);
        if (!a) continue;
        const auto b = tm->read(*txn, 1);
        if (!b) continue;
        if (!tm->try_commit(*txn)) continue;
        if (*a + *b != kTotal) torn.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      runtime::Xoshiro256 rng(static_cast<std::uint64_t>(w) + 7);
      for (int i = 0; i < 20000; ++i) {
        for (;;) {
          core::TxnPtr txn = tm->begin();
          const auto a = tm->read(*txn, 0);
          if (!a) continue;
          const auto b = tm->read(*txn, 1);
          if (!b) continue;
          const core::Value amount = rng.next_range(*a + 1);
          if (!tm->write(*txn, 0, *a - amount)) continue;
          if (!tm->write(*txn, 1, *b + amount)) continue;
          if (tm->try_commit(*txn)) break;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(tm->read_quiescent(0) + tm->read_quiescent(1), kTotal);
}

INSTANTIATE_TEST_SUITE_P(NorecRecipes, NorecStressTest,
                         ::testing::Values("norec", "norec-bloom",
                                           "norec-region"),
                         conformance::backend_param_name);

}  // namespace
}  // namespace oftm
