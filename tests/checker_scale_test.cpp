// Million-transaction checked-stress tier: one recipe per backend family
// (coarse lock, encounter locking, commit-time locking, sequence lock,
// obstruction-free DSTM, FOCTM) runs a 1,000,000-transaction workload
// under the history recorder, and the recorded history is digested and
// opacity-checked on the PARALLEL paths (Recorder::transactions /
// check_mvsg with threads = one per hardware thread).
//
// This is the acceptance pin for the parallel checker: a recorded
// million-transaction history must opacity-check in single-digit seconds
// on the CI runner (the bench_checker baseline pins the throughput curve;
// this test pins the hard ceiling), and the parallel verdict + witness
// must be bit-identical to the sequential one at full scale, not just on
// the small equivalence-suite histories.
//
// Suite label: checked-stress (own CI job, 900 s timeout; excluded from
// sanitizer presets — see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "history/checker.hpp"
#include "history/synth.hpp"
#include "tm_conformance.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm {
namespace {

constexpr std::uint64_t kMillion = 1'000'000;

workload::WorkloadConfig million_config() {
  workload::WorkloadConfig config;
  config.threads = 4;
  config.tx_per_thread = 250'000;
  // Two ops per transaction keeps the recorded log within the CI runner's
  // memory while still producing a million-node serialization graph with
  // real rf/ww/rw edge density.
  config.ops_per_tx = 2;
  config.write_fraction = 0.25;
  config.seed = 0x10E6;
  return config;
}

// One recipe per family — workload::default_backends() is exactly that
// selection (see workload/factory.cpp).
class CheckerScaleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckerScaleTest, MillionTransactionsParallelCheckWithinBudget) {
  auto tm = workload::make_tm(GetParam(), 2048);
  const auto out =
      conformance::run_checked_stress(*tm, million_config(),
                                      /*check_threads=*/0);
  EXPECT_EQ(out.run.committed, kMillion);
  EXPECT_EQ(out.well_formed_error, "");
  EXPECT_GE(out.transactions, kMillion);
  EXPECT_TRUE(out.check.ok)
      << out.check.error << "\nwitness: " << out.check.witness_str();
  // The acceptance pin: single-digit seconds for the check alone.
  EXPECT_LE(out.check_seconds, 9.0)
      << "parallel check_mvsg took " << out.check_seconds
      << " s on a recorded million-transaction history (" << GetParam()
      << ")";
}

INSTANTIATE_TEST_SUITE_P(
    BackendFamilies, CheckerScaleTest,
    ::testing::ValuesIn(workload::default_backends()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == ':') c = '_';
      }
      return name;
    });

// Bit-identical determinism at full scale: the small equivalence suite
// proves the contract per phase; this pins it on a million-node graph
// where the frontier batching, the atomic indegree relaxation and the
// parallel merge sort all actually engage (clean history and a violating
// mutation, so the first-failure reduction and witness extraction are
// exercised at scale too).
TEST(CheckerScale, MillionSyntheticParallelMatchesSequential) {
  history::synth::SynthOptions opts;
  opts.transactions = kMillion;
  opts.num_tvars = 4096;
  opts.ops_per_tx = 2;
  opts.hot_fraction = 0.1;  // some single-chain skew, mostly spread
  const auto clean = history::synth::make_history(opts);

  std::vector<history::TxRecord> mutated = clean;
  core::TxId fork_a = 0, fork_b = 0;
  ASSERT_TRUE(history::synth::seed_lost_update(mutated, 0, &fork_a, &fork_b));

  const std::vector<history::TxRecord>* histories[] = {&clean, &mutated};
  for (const std::vector<history::TxRecord>* txns : histories) {
    history::MvsgOptions seq_opts;
    seq_opts.respect_real_time = true;
    const auto seq = history::check_mvsg(*txns, seq_opts);
    history::MvsgOptions par_opts = seq_opts;
    par_opts.threads = 0;
    const auto par = history::check_mvsg(*txns, par_opts);
    EXPECT_EQ(seq.ok, par.ok);
    EXPECT_EQ(seq.error, par.error);
    EXPECT_EQ(seq.witness_str(), par.witness_str());
  }
}

}  // namespace
}  // namespace oftm
