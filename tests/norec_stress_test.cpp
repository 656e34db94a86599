// NOrec concurrency stress (labelled `stress`; also run under TSan via
// `ctest --preset tsan-stress`): the single global sequence lock and the
// invisible-read/value-revalidation protocol are exactly the kind of
// synchronization where a missed ordering shows up only under load. The
// bank, opacity and counter stress cases run on the NOrec recipes in
// stm_stress_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/xorshift.hpp"
#include "tm_conformance.hpp"
#include "workload/factory.hpp"

namespace oftm {
namespace {

class NorecStressTest : public ::testing::TestWithParam<std::string> {};

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
