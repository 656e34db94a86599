// Checked-stress verification tier: stress-scale runs that are *checked*,
// not just survived. Two halves, matching the two checkers:
//
//   * Opacity at scale — every backend recipe, on both execution tiers,
//     runs a 100,000-transaction workload under the history recorder; the
//     recorded history must be well-formed and pass the strict opacity
//     check (real-time edges + aborted readers). Recording overhead stays
//     flat at this scale because the recorder's log grows in fixed chunks
//     without copying. The single-hot-key case pins the checker's
//     stress-scale budget: 100k transactions on one t-variable must check
//     in <= 5 s.
//
//   * DAP witnesses at scale — simulated backends produce full low-level
//     traces; dap::analyze must return complete conflict-graph witnesses
//     (base object with stable ordinal, both TxIds, both t-var
//     footprints) for seeded Figure-2 violations, and a partitioned
//     scale audit on DSTM must stay violation-free.
//
// Label: checked-stress (not tier1/stress) — see tests/CMakeLists.txt and
// the checked-stress CI job; excluded from the tsan presets (the recorder
// serializes everything anyway, and TSan at 100k-transaction scale blows
// the runtime budget without adding coverage).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cm/managers.hpp"
#include "dap/conflicts.hpp"
#include "dstm/dstm.hpp"
#include "history/checker.hpp"
#include "sim/env.hpp"
#include "sim/platform.hpp"
#include "tm_conformance.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm {
namespace {

using SimDstm = dstm::Dstm<sim::SimPlatform>;

// ---------------------------------------------------------------------------
// Opacity at 100k-transaction scale, every backend, both execution tiers.
// ---------------------------------------------------------------------------

class CheckedStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CheckedStressTest, HundredThousandTransactionsAreOpaque) {
  auto tm = conformance::make_conformance_tm(GetParam(), 1024);
  workload::WorkloadConfig config;
  config.threads = 4;
  config.tx_per_thread = 25'000;
  config.ops_per_tx = 4;
  config.write_fraction = 0.25;
  config.seed = 0x5EED2026;
  const auto out = conformance::run_checked_stress(*tm, config);
  EXPECT_EQ(out.run.committed, 100'000u);
  EXPECT_EQ(out.well_formed_error, "");
  // Aborted attempts are digested too (include_aborted_readers), so the
  // history holds at least the committed transactions.
  EXPECT_GE(out.transactions, 100'000u);
  EXPECT_TRUE(out.check.ok)
      << out.check.error << "\nwitness: " << out.check.witness_str();
}

OFTM_INSTANTIATE_FOR_ALL_BACKENDS(CheckedStressTest);

// The acceptance pin: a single-hot-key history — the worst case for the
// version-indexed checker (one 100k-version chain, every read and every
// anti-dependency on it) — must check in low single-digit seconds.
TEST(CheckedStressHotKey, SingleHotKeyHundredThousandChecksWithinFiveSeconds) {
  auto tm = workload::make_tm("coarse", 64);
  workload::WorkloadConfig config;
  config.threads = 4;
  config.tx_per_thread = 25'000;
  config.ops_per_tx = 4;
  config.write_fraction = 0.5;
  config.hot_op_fraction = 1.0;  // every op redirected into the hot set...
  config.hot_set_size = 1;       // ...of exactly one t-variable
  config.seed = 7;
  const auto out = conformance::run_checked_stress(*tm, config);
  EXPECT_EQ(out.run.committed, 100'000u);
  EXPECT_EQ(out.well_formed_error, "");
  EXPECT_TRUE(out.check.ok)
      << out.check.error << "\nwitness: " << out.check.witness_str();
  EXPECT_LE(out.check_seconds, 5.0)
      << "check_mvsg took " << out.check_seconds
      << " s on a 100k-transaction single-hot-key history";
}

// Observability ride-along: the same checked run traced, with
// $OFTM_TRACE_FILE naming a temporary file. Tracing records a span for
// every attempt of every worker; it must not perturb the recorded
// history's opacity, and the abort-reason counters must still reconcile
// at scale.
TEST(CheckedStressTraced, TracingDoesNotPerturbOpacity) {
  const std::string trace_path = ::testing::TempDir() + "oftm_trace_" +
                                 std::to_string(getpid()) + "_stress.json";
  ASSERT_EQ(setenv("OFTM_TRACE_FILE", trace_path.c_str(), 1), 0);
  for (const char* recipe : {"tl2", "dstm"}) {
    auto tm = conformance::make_conformance_tm(recipe, 1024);
    workload::WorkloadConfig config;
    config.threads = 4;
    config.tx_per_thread = 12'500;
    config.ops_per_tx = 4;
    config.write_fraction = 0.25;
    config.seed = 0x5EED2026;
    const auto out = conformance::run_checked_stress(*tm, config);
    EXPECT_EQ(out.run.committed, 50'000u) << recipe;
    EXPECT_EQ(out.well_formed_error, "") << recipe;
    EXPECT_TRUE(out.check.ok)
        << recipe << ": " << out.check.error
        << "\nwitness: " << out.check.witness_str();
    EXPECT_TRUE(out.run.tm_stats.abort_reasons_consistent()) << recipe;
  }
#if OFTM_OBS
  EXPECT_TRUE(std::ifstream(trace_path).good()) << "the runs were not traced";
#endif
  unsetenv("OFTM_TRACE_FILE");
  std::remove(trace_path.c_str());
}

// ---------------------------------------------------------------------------
// DAP conflict-graph witnesses.
// ---------------------------------------------------------------------------

// Figure-2 seeding (the paper's Theorem 13 scenario): T1 acquires x and y
// then suspends; T2 (reads x, writes w) and T3 (reads y, writes z) have
// disjoint t-var footprints, yet on DSTM both must CAS T1's descriptor — a
// strict-DAP violation whose witness must name the base object, both
// transactions, and both footprints.
TEST(CheckedStressDap, SeededViolationYieldsFullWitness) {
  SimDstm tm(4, cm::make_manager("aggressive"));
  sim::Env env(3);
  auto committed = std::make_shared<std::pair<bool, bool>>(false, false);

  env.set_body(0, [&tm] {
    sim::Env::current()->set_label(1);  // T1
    core::TxnPtr txn = tm.begin();
    (void)tm.read(*txn, 2);
    (void)tm.read(*txn, 3);
    (void)tm.write(*txn, 0, 1);
    (void)tm.write(*txn, 1, 1);
    sim::Env::current()->marker("t1_acquired");
    (void)tm.try_commit(*txn);  // never reached: suspended before
  });
  env.set_body(1, [&tm, committed] {
    sim::Env::current()->set_label(2);  // T2
    for (int i = 0; i < 50 && !committed->first; ++i) {
      core::TxnPtr txn = tm.begin();
      if (!tm.read(*txn, 0).has_value()) continue;
      if (!tm.write(*txn, 2, 1)) continue;
      committed->first = tm.try_commit(*txn);
    }
  });
  env.set_body(2, [&tm, committed] {
    sim::Env::current()->set_label(3);  // T3
    for (int i = 0; i < 50 && !committed->second; ++i) {
      core::TxnPtr txn = tm.begin();
      if (!tm.read(*txn, 1).has_value()) continue;
      if (!tm.write(*txn, 3, 1)) continue;
      committed->second = tm.try_commit(*txn);
    }
  });

  env.start();
  auto t1_acquired = [&env] {
    for (const sim::Step& s : env.trace()) {
      if (s.kind == sim::Step::Kind::kMarker && s.note != nullptr &&
          std::string(s.note) == "t1_acquired") {
        return true;
      }
    }
    return false;
  };
  for (int i = 0; i < 400 && !t1_acquired(); ++i) env.step(0);
  env.run_solo(1, 500000);
  env.run_solo(2, 500000);

  dap::Footprints fp;
  fp[1] = {0, 1, 2, 3};
  fp[2] = {0, 2};
  fp[3] = {1, 3};
  const dap::ConflictReport report = dap::analyze(env.trace(), fp);
  ASSERT_TRUE(committed->first && committed->second);

  const dap::ConflictPair* witness = nullptr;
  for (const dap::ConflictPair& p : report.pairs) {
    if (p.tx_a == 2 && p.tx_b == 3 && p.disjoint_tvars) witness = &p;
  }
  ASSERT_NE(witness, nullptr) << report.summarize();
  // The full conflict-graph witness: base object, both transactions, both
  // t-var footprints.
  EXPECT_NE(witness->object, nullptr);
  EXPECT_EQ(witness->tvars_a, (std::vector<core::TVarId>{0, 2}));
  EXPECT_EQ(witness->tvars_b, (std::vector<core::TVarId>{1, 3}));

  // summarize(): violating pairs print both footprints; unnamed base
  // objects fall back to the stable ordinal, named ones print the name.
  const std::string anon = report.summarize();
  EXPECT_NE(anon.find("T2 <-> T3 on obj#"), std::string::npos) << anon;
  EXPECT_NE(anon.find("T2 t-vars: {x0, x2}"), std::string::npos) << anon;
  EXPECT_NE(anon.find("T3 t-vars: {x1, x3}"), std::string::npos) << anon;
  const std::string named =
      report.summarize({{witness->object, "State[T1]"}});
  EXPECT_NE(named.find("T2 <-> T3 on State[T1]"), std::string::npos) << named;
}

// Partitioned scale audit: thousands of per-transaction labels on DSTM,
// fully disjoint working sets — the full conflict-graph sweep must come
// back clean (DSTM is DAP in the weak sense; violations need the Figure-2
// indirect connection, not scale alone).
TEST(CheckedStressDap, PartitionedScaleAuditIsViolationFree) {
  constexpr int kProcs = 4;
  constexpr int kTxPerProc = 1500;
  constexpr core::TVarId kVarsPerProc = 16;
  SimDstm tm(kProcs * kVarsPerProc, cm::make_manager("aggressive"));
  sim::Env env(kProcs);
  auto fp = std::make_shared<dap::Footprints>();

  for (int p = 0; p < kProcs; ++p) {
    env.set_body(p, [&tm, fp, p] {
      for (int i = 0; i < kTxPerProc; ++i) {
        const std::uint64_t label =
            static_cast<std::uint64_t>(p + 1) * 100000 +
            static_cast<std::uint64_t>(i) + 1;
        sim::Env::current()->set_label(label);
        const auto a = static_cast<core::TVarId>(
            p * kVarsPerProc + i % kVarsPerProc);
        const auto b = static_cast<core::TVarId>(
            p * kVarsPerProc + (i + 7) % kVarsPerProc);
        core::TxnPtr txn = tm.begin();
        const auto v = tm.read(*txn, a);
        if (!v.has_value()) continue;
        if (!tm.write(*txn, b, *v + 1)) continue;
        (void)tm.try_commit(*txn);
        (*fp)[label] = {a, b};
      }
    });
  }

  env.start();
  env.run_round_robin();

  const dap::ConflictReport report = dap::analyze(env.trace(), *fp);
  EXPECT_EQ(report.violations, 0u) << report.summarize();
  // Every reported pair still carries its full witness fields.
  for (const dap::ConflictPair& p : report.pairs) {
    EXPECT_NE(p.tx_a, 0u);
    EXPECT_NE(p.tx_b, 0u);
    EXPECT_NE(p.object, nullptr);
  }
}

}  // namespace
}  // namespace oftm
