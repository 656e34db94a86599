// Concurrency stress tests for every backend:
//   * bank-transfer invariant preservation (atomicity under contention);
//   * recorded histories checked for serializability — and for the
//     obstruction-free backends, opacity (real-time order + consistent
//     aborted readers), the property Appendix B proves for Algorithm 2;
//   * progress accounting sanity.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "history/checker.hpp"
#include "history/recorder.hpp"
#include "runtime/barrier.hpp"
#include "runtime/xorshift.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm {
namespace {

class StmStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StmStressTest, BankInvariantHolds) {
  auto tm = workload::make_tm(GetParam(), 128);
  bool invariant_ok = false;
  const auto result = workload::run_bank_workload(
      *tm, /*threads=*/8, /*tx_per_thread=*/3000, /*accounts=*/32,
      /*initial_balance=*/1000, /*seed=*/7, &invariant_ok);
  EXPECT_TRUE(invariant_ok) << GetParam();
  EXPECT_GT(result.committed, 0u);
}

TEST_P(StmStressTest, UniformMixIsSerializable) {
  auto tm = workload::make_tm(GetParam(), 64);
  history::Recorder recorder;
  history::RecordingTm recorded(*tm, recorder);

  workload::WorkloadConfig config;
  config.threads = 6;
  config.tx_per_thread = 400;
  config.ops_per_tx = 6;
  config.write_fraction = 0.4;
  config.pattern = workload::AccessPattern::kUniform;
  config.seed = 99;
  const auto result = workload::run_workload(recorded, config);
  EXPECT_EQ(result.committed, 6u * 400u);

  EXPECT_EQ(recorder.check_well_formed(), "");
  const auto txns = recorder.transactions();
  const auto check = history::check_mvsg(txns);
  EXPECT_TRUE(check.ok) << GetParam() << ": " << check.error;
}

TEST_P(StmStressTest, HighContentionHistoryIsOpaque) {
  // Few t-variables, many writers: maximal conflicts. All backends in this
  // repo implement opacity-strength safety (DSTM/FOCTM by construction,
  // TL/TL2 via encounter validation/global clock, coarse trivially), so the
  // full opacity check must pass on the recorded history.
  auto tm = workload::make_tm(GetParam(), 12);
  history::Recorder recorder;
  history::RecordingTm recorded(*tm, recorder);

  workload::WorkloadConfig config;
  config.threads = 6;
  config.tx_per_thread = 150;
  config.ops_per_tx = 4;
  config.write_fraction = 0.6;
  config.seed = 1234;
  (void)workload::run_workload(recorded, config);

  history::MvsgOptions opacity;
  opacity.respect_real_time = true;
  opacity.include_aborted_readers = true;
  const auto check = history::check_mvsg(recorder.transactions(), opacity);
  EXPECT_TRUE(check.ok) << GetParam() << ": " << check.error;
}

TEST_P(StmStressTest, DisjointPartitionsNeverConflict) {
  auto tm = workload::make_tm(GetParam(), 256);
  workload::WorkloadConfig config;
  config.threads = 8;
  config.tx_per_thread = 2000;
  config.ops_per_tx = 4;
  config.write_fraction = 1.0;
  config.pattern = workload::AccessPattern::kPartitioned;
  const auto result = workload::run_workload(*tm, config);
  EXPECT_EQ(result.committed, 8u * 2000u);
  // Disjoint t-variable partitions: transactional conflicts are impossible,
  // so (coarse aside, which serializes everything) abort counts should be
  // zero for every backend whose conflicts are per-t-variable.
  if (GetParam() != "coarse") {
    EXPECT_EQ(result.aborted_attempts, 0u) << GetParam();
  }
}

TEST_P(StmStressTest, ConcurrentCountersSumUp) {
  auto tm = workload::make_tm(GetParam(), 4);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  runtime::SpinBarrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      runtime::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
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

INSTANTIATE_TEST_SUITE_P(
    AllBackends, StmStressTest,
    ::testing::Values("dstm", "dstm:aggressive", "dstm:karma",
                      "dstm-collapse", "dstm-visible", "foctm-hinted",
                      "foctm-strict", "tl", "tl2", "tl2-ext", "coarse",
                      "norec", "norec-bloom", "tl2-region", "norec-region"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == '-') c = '_';
      }
      return name;
    });

// The faithful (restart-at-version-1) FOCTM is quadratic by design; give it
// a smaller stress so the suite stays fast, but do exercise it concurrently.
TEST(FoctmFaithfulStress, BankInvariantHolds) {
  auto tm = workload::make_tm("foctm", 64);
  bool invariant_ok = false;
  const auto result = workload::run_bank_workload(
      *tm, /*threads=*/4, /*tx_per_thread=*/300, /*accounts=*/16,
      /*initial_balance=*/100, /*seed=*/3, &invariant_ok);
  EXPECT_TRUE(invariant_ok);
  EXPECT_GT(result.committed, 0u);
}

}  // namespace
}  // namespace oftm
