// Property tests for the correctness checkers themselves: the checkers are
// the measurement instruments of this reproduction, so they get their own
// calibration suite.
//
//   * Known-good histories (generated by recording the trivially
//     serializable Coarse backend under concurrency) must PASS both
//     checkers, under every option set.
//   * Corrupted histories (a read response replaced by a poison value, a
//     transaction's reads made mutually inconsistent, a committed write
//     duplicated) must FAIL.
//   * A real-time inversion, built on a synthetic history
//     (history/synth.hpp) so it exists on every seed, must fail the
//     strict checker only.
//
// Parameterized over seeds — each seed yields a different interleaving.
#include <gtest/gtest.h>

#include <memory>

#include "history/checker.hpp"
#include "history/recorder.hpp"
#include "history/synth.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm::history {
namespace {

std::vector<TxRecord> generate_history(std::uint64_t seed, int threads,
                                       std::uint64_t tx_per_thread) {
  auto tm = workload::make_tm("coarse", 16);
  Recorder recorder;
  RecordingTm recorded(*tm, recorder);
  workload::WorkloadConfig config;
  config.threads = threads;
  config.tx_per_thread = tx_per_thread;
  config.ops_per_tx = 5;
  config.write_fraction = 0.5;
  config.seed = seed;
  (void)workload::run_workload(recorded, config);
  EXPECT_EQ(recorder.check_well_formed(), "");
  return recorder.transactions();
}

class CheckerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerPropertyTest, GeneratedHistoriesPassAllCheckerModes) {
  const auto txns = generate_history(GetParam(), 4, 60);
  EXPECT_TRUE(check_mvsg(txns).ok);
  MvsgOptions strict;
  strict.respect_real_time = true;
  strict.include_aborted_readers = true;
  const auto r = check_mvsg(txns, strict);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST_P(CheckerPropertyTest, SmallHistoriesAgreeAcrossCheckers) {
  const auto txns = generate_history(GetParam(), 2, 4);
  EXPECT_TRUE(check_mvsg(txns).ok);
  EXPECT_TRUE(check_exhaustive_serializability(txns).ok);
}

TEST_P(CheckerPropertyTest, PoisonedReadIsRejected) {
  auto txns = generate_history(GetParam(), 3, 30);
  // Poison the first committed read response.
  for (TxRecord& rec : txns) {
    if (!rec.committed()) continue;
    for (TxOp& op : rec.ops) {
      if (op.op == OpType::kRead && !op.aborted) {
        op.result = 0xDEADBEEFCAFEBABEull;
        const auto r = check_mvsg(txns);
        EXPECT_FALSE(r.ok);
        return;
      }
    }
  }
  GTEST_SKIP() << "history had no committed reads";
}

TEST_P(CheckerPropertyTest, InconsistentSnapshotIsRejected) {
  auto txns = generate_history(GetParam(), 3, 30);
  // Make a transaction's two reads of one variable disagree.
  for (TxRecord& rec : txns) {
    if (!rec.committed()) continue;
    for (TxOp& op : rec.ops) {
      if (op.op == OpType::kRead && !op.aborted) {
        TxOp second = op;
        second.result = op.result + 0x1234567;
        second.inv_seq = rec.last_seq;
        second.resp_seq = rec.last_seq;
        rec.ops.push_back(second);
        const auto r = check_mvsg(txns);
        EXPECT_FALSE(r.ok);
        return;
      }
    }
  }
  GTEST_SKIP() << "history had no committed reads";
}

TEST_P(CheckerPropertyTest, DuplicatedCommittedWriteIsRejected) {
  auto txns = generate_history(GetParam(), 3, 30);
  // Find two committed writers (any vars) and make them write the same
  // value to the same var: unique-writes discipline violation must be
  // reported rather than silently mis-checked.
  TxOp* first = nullptr;
  for (TxRecord& rec : txns) {
    if (!rec.committed()) continue;
    for (TxOp& op : rec.ops) {
      if (op.op != OpType::kWrite || op.aborted) continue;
      if (first == nullptr) {
        first = &op;
      } else if (&op != first) {
        op.tvar = first->tvar;
        op.arg = first->arg;
        const auto r = check_mvsg(txns);
        EXPECT_FALSE(r.ok);
        return;
      }
    }
  }
  GTEST_SKIP() << "history had fewer than two committed writes";
}

TEST_P(CheckerPropertyTest, RealTimeInversionIsRejectedOnlyInStrictMode) {
  // A serial synthetic history in which every operation is a
  // read-modify-write: with more transactions than t-vars, some t-var has
  // two committed writers (pigeonhole), so on every seed there is a
  // committed version a later committed writer overwrote.
  synth::SynthOptions options;
  options.transactions = 32;
  options.num_tvars = 8;
  options.write_fraction = 1.0;
  options.seed = GetParam();
  auto txns = synth::make_history(options);
  // A committed read-only transaction that read that overwritten version,
  // moved past the end of the history: its snapshot is stale in real time.
  constexpr core::TxId kReaderId = 0x57A1E;
  core::TVarId var = 0;
  while (var < options.num_tvars &&
         !synth::append_stale_reader(txns, var, kReaderId)) {
    ++var;
  }
  ASSERT_LT(var, options.num_tvars);

  // Plain serializability does not care about real time; strict mode must.
  EXPECT_TRUE(check_mvsg(txns).ok);
  MvsgOptions strict;
  strict.respect_real_time = true;
  EXPECT_FALSE(check_mvsg(txns, strict).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace oftm::history
