// Tests for the observability layer (src/obs/): phase-timer calibration,
// the conflict heat map, abort-reason attribution and its reconciliation
// invariant across every backend recipe, and the run-owned trace export.
//
// The suite is built under whatever OFTM_OBS the tree was configured
// with: phase, heat-map and trace assertions are gated on the macro
// (with the gate off a traced run must write no file), while abort
// attribution and the schema (TxStats fields) are exercised in both
// modes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/atomically.hpp"
#include "core/tm.hpp"
#include "obs/phase_timer.hpp"
#include "obs/profile.hpp"
#include "obs/taxonomy.hpp"
#include "obs/trace.hpp"
#include "runtime/stats.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm {
namespace {

// ---------------------------------------------------------------------------
// Taxonomy: stable wire names.
// ---------------------------------------------------------------------------

TEST(ObsTaxonomy, ReasonAndPhaseNamesAreDistinctAndNonEmpty) {
  std::set<std::string> reasons;
  for (std::size_t i = 0; i < obs::kNumAbortReasons; ++i) {
    const char* name = obs::abort_reason_name(i);
    ASSERT_NE(name, nullptr);
    EXPECT_NE(*name, '\0');
    reasons.insert(name);
  }
  EXPECT_EQ(reasons.size(), obs::kNumAbortReasons);

  std::set<std::string> phases;
  for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
    const char* name = obs::phase_name(i);
    ASSERT_NE(name, nullptr);
    EXPECT_NE(*name, '\0');
    phases.insert(name);
  }
  EXPECT_EQ(phases.size(), obs::kNumPhases);
}

// ---------------------------------------------------------------------------
// Phase timer: calibration and monotonicity.
// ---------------------------------------------------------------------------

TEST(ObsPhaseTimer, CalibrationIsPositiveAndTicksAdvance) {
  EXPECT_GT(obs::ns_per_tick(), 0.0);
  // now_ticks is non-decreasing on one thread (invariant TSC or the
  // steady_clock fallback), and advances across a busy loop.
  const std::uint64_t t0 = obs::now_ticks();
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1;
  const std::uint64_t t1 = obs::now_ticks();
  EXPECT_GE(t1, t0);
  EXPECT_GT(t1, t0) << "100k iterations took zero ticks";
  // Converted timestamps inherit the ordering.
  EXPECT_GE(obs::ticks_to_ns(t1), obs::ticks_to_ns(t0));
  const std::uint64_t n0 = obs::now_ns();
  const std::uint64_t n1 = obs::now_ns();
  EXPECT_GE(n1, n0);
}

#if OFTM_OBS

// ---------------------------------------------------------------------------
// Heat map: heavy hitters survive space-saving eviction.
// ---------------------------------------------------------------------------

TEST(ObsHeatMap, HeavyHitterSurvivesAStreamOfColdKeys) {
  obs::HeatMap heat;
  for (int i = 0; i < 100; ++i) heat.hit(42);
  // 50 distinct cold keys churn through the remaining slots.
  for (std::uint64_t k = 1000; k < 1050; ++k) heat.hit(k);
  std::vector<obs::HotVar> out;
  heat.collect_into(out);
  EXPECT_LE(out.size(), obs::HeatMap::kSlots);
  const obs::HotVar* hot = nullptr;
  for (const obs::HotVar& h : out) {
    if (h.key == 42) hot = &h;
  }
  ASSERT_NE(hot, nullptr) << "heavy hitter evicted by cold keys";
  EXPECT_GE(hot->hits, 100u);
}

TEST(ObsHeatMap, NeverExceedsSlotBound) {
  obs::HeatMap heat;
  for (std::uint64_t k = 0; k < 10000; ++k) heat.hit(k);
  std::vector<obs::HotVar> out;
  heat.collect_into(out);
  EXPECT_EQ(out.size(), obs::HeatMap::kSlots);
}

// ---------------------------------------------------------------------------
// Phase sampling gate and scoped recording.
// ---------------------------------------------------------------------------

TEST(ObsPhaseSampling, StrideElectsExactlyOneTransactionPerWindow) {
  const std::uint64_t stride = obs::phase_sample_stride();
  ASSERT_GE(stride, 1u);
  // The thread-local counter is monotone, so over any 8*stride
  // consecutive ticks exactly 8 are elected, wherever the phase starts.
  std::uint64_t sampled = 0;
  for (std::uint64_t i = 0; i < 8 * stride; ++i) {
    obs::tick_tx_sample();
    if (obs::tx_sampled()) ++sampled;
  }
  EXPECT_EQ(sampled, 8u);
}

TEST(ObsScopedPhase, SampledScopeRecordsIntoTheOwningCell) {
  obs::PhaseSums sums;
  // Elect the current "transaction" deterministically.
  const std::uint64_t stride = obs::phase_sample_stride();
  for (std::uint64_t i = 0; i < stride; ++i) {
    obs::tick_tx_sample();
    if (obs::tx_sampled()) break;
  }
  ASSERT_TRUE(obs::tx_sampled());
  {
    OFTM_OBS_PHASE(sums, obs::Phase::kValidation);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + 1;
  }
  std::uint64_t phase_ns[obs::kNumPhases] = {};
  std::uint64_t phase_count[obs::kNumPhases] = {};
  sums.collect(phase_ns, phase_count);
  EXPECT_EQ(phase_count[static_cast<std::size_t>(obs::Phase::kValidation)],
            1u);
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    if (p != static_cast<std::size_t>(obs::Phase::kValidation)) {
      EXPECT_EQ(phase_count[p], 0u) << obs::phase_name(p);
    }
  }
}

#endif  // OFTM_OBS

// ---------------------------------------------------------------------------
// Session statistics: one count per reason, totals derived from them.
// ---------------------------------------------------------------------------

TEST(ObsReasonCounters, CountsPerReasonExactly) {
  const auto at = [](obs::AbortReason r) {
    return static_cast<std::size_t>(r);
  };
  core::SessionStats cell;
  cell.aborts[at(obs::AbortReason::kCmKill)].add();
  cell.aborts[at(obs::AbortReason::kCmKill)].add();
  cell.aborts[at(obs::AbortReason::kLockTimeout)].add();
  cell.aborts[at(obs::AbortReason::kExplicitRetry)].add();
  runtime::TxStats s;
  std::vector<obs::HotVar> hot;
  cell.add_to(s, hot);
  EXPECT_EQ(s.abort_reason[at(obs::AbortReason::kCmKill)], 2u);
  EXPECT_EQ(s.abort_reason[at(obs::AbortReason::kLockTimeout)], 1u);
  EXPECT_EQ(s.abort_reason[at(obs::AbortReason::kExplicitRetry)], 1u);
  EXPECT_EQ(s.abort_reason[at(obs::AbortReason::kReadValidation)], 0u);
  // The totals are sums of the reasons; explicit retries are requested,
  // not forced.
  EXPECT_EQ(s.aborts, 4u);
  EXPECT_EQ(s.forced_aborts, 3u);
  EXPECT_TRUE(s.abort_reasons_consistent());
  // A second session's cell adds on top.
  cell.add_to(s, hot);
  EXPECT_EQ(s.abort_reason[at(obs::AbortReason::kCmKill)], 4u);
  EXPECT_EQ(s.aborts, 8u);
  cell.reset();
  runtime::TxStats zero;
  cell.add_to(zero, hot);
  EXPECT_EQ(zero.aborts, 0u);
  EXPECT_EQ(zero.abort_reason_total(), 0u);
}

// ---------------------------------------------------------------------------
// TxStats: merge consistency and the reconciliation invariant.
// ---------------------------------------------------------------------------

TEST(ObsTxStats, MergeSumsReasonsPhasesAndHotVars) {
  runtime::TxStats a;
  a.commits = 10;
  a.aborts = 4;
  a.forced_aborts = 1;
  a.abort_reason[2] = 3;
  a.abort_reason[0] = 1;
  a.phase_ns[1] = 500;
  a.phase_count[1] = 5;
  a.hot_vars = {{7, 5}};

  runtime::TxStats b;
  b.commits = 5;
  b.aborts = 2;
  b.forced_aborts = 2;
  b.abort_reason[2] = 2;
  b.phase_ns[1] = 100;
  b.phase_count[1] = 1;
  b.hot_vars = {{7, 2}, {9, 3}};

  a.merge(b);
  EXPECT_EQ(a.commits, 15u);
  EXPECT_EQ(a.aborts, 6u);
  EXPECT_EQ(a.forced_aborts, 3u);
  EXPECT_EQ(a.abort_reason[2], 5u);
  EXPECT_EQ(a.abort_reason[0], 1u);
  EXPECT_EQ(a.abort_reason_total(), 6u);
  EXPECT_EQ(a.phase_ns[1], 600u);
  EXPECT_EQ(a.phase_count[1], 6u);
  EXPECT_DOUBLE_EQ(a.forced_abort_ratio(), 0.5);
  // Hot vars merged by key, heaviest first.
  ASSERT_EQ(a.hot_vars.size(), 2u);
  EXPECT_EQ(a.hot_vars[0].key, 7u);
  EXPECT_EQ(a.hot_vars[0].hits, 7u);
  EXPECT_EQ(a.hot_vars[1].key, 9u);
  EXPECT_EQ(a.hot_vars[1].hits, 3u);
  EXPECT_TRUE(a.abort_reasons_consistent());
}

TEST(ObsTxStats, ForcedAbortRatioIsZeroWithoutAborts) {
  runtime::TxStats s;
  EXPECT_DOUBLE_EQ(s.forced_abort_ratio(), 0.0);
  s.aborts = 8;
  s.forced_aborts = 8;
  EXPECT_DOUBLE_EQ(s.forced_abort_ratio(), 1.0);
}

// ---------------------------------------------------------------------------
// Attribution: every backend recipe reconciles reasons with aborts.
// ---------------------------------------------------------------------------

class ObsReconciliationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ObsReconciliationTest, AbortReasonsSumToAbortsUnderContention) {
  // Small heap + high write fraction: force real conflicts so the abort
  // counters actually move on backends that can abort.
  auto tm = workload::make_tm(GetParam(), 16);
  workload::WorkloadConfig config;
  config.threads = 4;
  config.tx_per_thread = 400;
  config.ops_per_tx = 4;
  config.write_fraction = 0.5;
  config.seed = 0xAB0A7;
  const workload::RunResult r = workload::run_workload(*tm, config);
  const runtime::TxStats s = r.tm_stats;
  EXPECT_TRUE(s.abort_reasons_consistent())
      << "sum(abort_reason)=" << s.abort_reason_total()
      << " aborts=" << s.aborts << " for " << GetParam();
  // Every attempt the driver saw fail is one abort the TM counted.
  EXPECT_EQ(r.aborted_attempts, s.aborts) << GetParam();
  EXPECT_EQ(r.committed, 1600u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ObsReconciliationTest,
    ::testing::ValuesIn(workload::all_backends()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == ':') c = '_';
      }
      return name;
    });

TEST(ObsAttribution, ExplicitRetryIsAttributedToTheRetryReason) {
  auto tm = workload::make_tm("tl2", 16);
  int attempts = 0;
  core::atomically(*tm, [&attempts](core::TxView& v) {
    ++attempts;
    const core::Value x = v.read(0);
    if (attempts == 1) v.retry();  // precondition "fails" once
    v.write(0, x + 1);
  });
  EXPECT_EQ(attempts, 2);
  const runtime::TxStats s = tm->stats();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.forced_aborts, 0u);
  EXPECT_EQ(s.abort_reason[static_cast<std::size_t>(
                obs::AbortReason::kExplicitRetry)],
            1u);
  EXPECT_TRUE(s.abort_reasons_consistent());
}

TEST(ObsAttribution, CancelIsAttributedToUserRequested) {
  auto tm = workload::make_tm("norec", 16);
  EXPECT_THROW(
      core::atomically(*tm, [](core::TxView& v) { v.cancel(); }),
      core::TxCancelled);
  const runtime::TxStats s = tm->stats();
  EXPECT_EQ(s.commits, 0u);
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.forced_aborts, 0u);
  EXPECT_EQ(s.abort_reason[static_cast<std::size_t>(
                obs::AbortReason::kUserRequested)],
            1u);
  EXPECT_TRUE(s.abort_reasons_consistent());
}

// ---------------------------------------------------------------------------
// Run-owned trace: a worker's span ring, the process's one trace document
// and the Chrome JSON file it is written to. Tests switch tracing on the
// way users do, by naming a file in $OFTM_TRACE_FILE.
// ---------------------------------------------------------------------------

TEST(ObsSpanRing, FullRingKeepsTheNewestSpans) {
  obs::SpanRing ring;
  ring.reserve();
  for (std::uint64_t i = 0; i < obs::SpanRing::kCapacity + 100; ++i) {
    obs::Span s;
    s.start_ticks = 1000 + i;
    s.tx_seq = i;
    ring.record(s);
  }
  std::vector<std::uint64_t> kept;
  ring.for_each([&](const obs::Span& s) { kept.push_back(s.tx_seq); });
  ASSERT_EQ(kept.size(), obs::SpanRing::kCapacity);
  // The ring keeps the tail, oldest first.
  for (std::size_t i = 0; i < kept.size(); ++i) EXPECT_EQ(kept[i], 100 + i);
}

// Points $OFTM_TRACE_FILE at a fresh file for one test; the file is
// removed afterwards.
class ObsRunTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "oftm_trace_" + std::to_string(getpid()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
    std::remove(path_.c_str());
    ASSERT_EQ(setenv("OFTM_TRACE_FILE", path_.c_str(), 1), 0);
  }

  void TearDown() override {
    unsetenv("OFTM_TRACE_FILE");
    std::remove(path_.c_str());
  }

  bool file_exists() const { return std::ifstream(path_).good(); }

  std::string file() const {
    std::ifstream in(path_);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  // The "name" of every span in the file.
  std::vector<std::string> span_names() const {
    const std::string json = file();
    const std::string key = "\"name\":\"";
    std::vector<std::string> names;
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at)) {
      at += key.size();
      const std::size_t end = json.find('"', at);
      names.push_back(json.substr(at, end - at));
    }
    return names;
  }

  static std::uint64_t count_aborts(const std::vector<std::string>& names) {
    std::uint64_t n = 0;
    for (const std::string& name : names) n += name.rfind("abort:", 0) == 0;
    return n;
  }

  std::string path_;
};

// A contended 4 x 500-transaction run: few enough attempts that no
// worker's span ring (or the document's share of a worker index)
// overflows.
workload::RunResult contended_run(const char* backend, std::uint64_t seed) {
  auto tm = workload::make_tm(backend, 64);
  workload::WorkloadConfig config;
  config.threads = 4;
  config.tx_per_thread = 500;
  config.ops_per_tx = 4;
  config.write_fraction = 0.5;
  config.hot_op_fraction = 0.25;
  config.hot_set_size = 8;
  config.seed = seed;
  const workload::RunResult r = workload::run_workload(*tm, config);
  EXPECT_EQ(r.committed, 2000u) << backend;
  EXPECT_TRUE(r.tm_stats.abort_reasons_consistent()) << backend;
  return r;
}

TEST_F(ObsRunTrace, TracedRunAddsOneSpanPerAttempt) {
  // The document accumulates across the process, so each run is measured
  // by what it adds to the file; the first run brings the file up to date.
  contended_run("tl2", 1);
  std::set<std::string> known = {"commit"};
  for (std::size_t i = 0; i < obs::kNumAbortReasons; ++i) {
    known.insert(std::string("abort:") + obs::abort_reason_name(i));
  }
  for (std::uint64_t seed : {2, 3}) {
    const std::vector<std::string> before = span_names();
    const workload::RunResult r = contended_run("tl2", seed);
    const std::vector<std::string> after = span_names();
#if OFTM_OBS
    EXPECT_EQ(after.size() - before.size(), r.committed + r.aborted_attempts);
    EXPECT_EQ(count_aborts(after) - count_aborts(before), r.aborted_attempts);
    for (const std::string& name : after) {
      EXPECT_EQ(known.count(name), 1u) << name;
    }
#else
    EXPECT_FALSE(file_exists()) << "the gate must compile tracing away";
#endif
  }
}

TEST_F(ObsRunTrace, TwoRunsReachTheOneDocument) {
  const workload::RunResult first = contended_run("tl2", 4);
  const std::size_t after_first = span_names().size();
  const workload::RunResult second = contended_run("norec", 5);
  const std::string json = file();
#if OFTM_OBS
  EXPECT_GE(after_first, first.committed + first.aborted_attempts);
  EXPECT_EQ(span_names().size() - after_first,
            second.committed + second.aborted_attempts);
  EXPECT_NE(json.find("\"backend\":\"tl2\""), std::string::npos);
  EXPECT_NE(json.find("\"backend\":\"norec\""), std::string::npos);
#else
  EXPECT_EQ(after_first, 0u);
  EXPECT_FALSE(file_exists()) << "the gate must compile tracing away";
#endif
}

TEST_F(ObsRunTrace, WritesChromeTraceJson) {
  contended_run("tl2", 6);
#if OFTM_OBS
  const std::string json = file();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(json.find("\"name\":\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"tx\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"tx\":"), std::string::npos);
  EXPECT_NE(json.find(",\"attempt\":"), std::string::npos);
  EXPECT_NE(json.find("\"backend\":\"tl2\""), std::string::npos);
  // Timestamps are rebased: the first span starts at 0.
  const std::size_t ts = json.find("\"ts\":");
  ASSERT_NE(ts, std::string::npos);
  EXPECT_EQ(ts, json.find("\"ts\":0.000,"));
  // Balanced object: starts with '{' and the last non-space is '}'.
  const std::size_t last = json.find_last_not_of(" \n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');
#else
  EXPECT_FALSE(file_exists()) << "the gate must compile tracing away";
#endif
}

}  // namespace
}  // namespace oftm
