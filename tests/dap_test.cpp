// Strict disjoint-access-parallelism experiments (Definition 12 /
// Theorem 13), including the full Figure 2 scenario:
//
//   T1 writes x and y, then its process suspends; T2 reads x and writes w;
//   T3 reads y and writes z. T2 and T3 touch disjoint t-variable sets, yet
//   on DSTM both must visit T1's transaction descriptor — a base-object
//   conflict between unrelated transactions, which is exactly the paper's
//   impossibility made visible. TL (per-t-variable metadata only) shows no
//   such conflict; TL2 shows one, but on its global clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cm/managers.hpp"
#include "dap/conflicts.hpp"
#include "dstm/dstm.hpp"
#include "foctm/foctm.hpp"
#include "lock/tl.hpp"
#include "lock/tl2.hpp"
#include "norec/norec.hpp"
#include "sim/env.hpp"
#include "sim/platform.hpp"

namespace oftm::dap {
namespace {

using SimDstm = dstm::Dstm<sim::SimPlatform>;
using SimTl = lock::Tl<sim::SimPlatform>;
using SimTl2 = lock::Tl2<core::BoxedSlots<sim::SimPlatform>>;
using SimNorec = norec::Norec<core::BoxedSlots<sim::SimPlatform>>;
using SimFoctm =
    foctm::Foctm<sim::SimPlatform, foc::StrictFocPolicy<sim::SimPlatform>>;

// --- analyze() unit tests ---------------------------------------------------

TEST(ConflictAnalysis, DetectsModifyingOverlap) {
  int obj_a = 0, obj_b = 0;
  std::vector<sim::Step> trace;
  auto step = [&](int pid, std::uint64_t label, const void* obj,
                  sim::Step::Kind kind) {
    sim::Step s;
    s.pid = pid;
    s.label = label;
    s.obj = obj;
    s.kind = kind;
    trace.push_back(s);
  };
  step(0, 1, &obj_a, sim::Step::Kind::kStore);
  step(1, 2, &obj_a, sim::Step::Kind::kLoad);   // conflict with tx 1
  step(0, 1, &obj_b, sim::Step::Kind::kLoad);
  step(1, 2, &obj_b, sim::Step::Kind::kLoad);   // read/read: no conflict

  Footprints fp;
  fp[1] = {0};
  fp[2] = {1};
  const ConflictReport report = analyze(trace, fp);
  ASSERT_EQ(report.pairs.size(), 1u);
  EXPECT_EQ(report.pairs[0].object, &obj_a);
  EXPECT_TRUE(report.pairs[0].disjoint_tvars);
  EXPECT_EQ(report.violations, 1u);
}

TEST(ConflictAnalysis, FailedCasIsReadOnly) {
  int obj = 0;
  std::vector<sim::Step> trace;
  sim::Step s;
  s.pid = 0;
  s.label = 1;
  s.obj = &obj;
  s.kind = sim::Step::Kind::kCas;
  s.result = 0;  // failed CAS does not modify
  trace.push_back(s);
  s.pid = 1;
  s.label = 2;
  trace.push_back(s);
  const ConflictReport report = analyze(trace, {});
  EXPECT_TRUE(report.pairs.empty());
}

TEST(ConflictAnalysis, SharedTVarConflictsAreBenign) {
  int obj = 0;
  std::vector<sim::Step> trace;
  sim::Step s;
  s.obj = &obj;
  s.kind = sim::Step::Kind::kStore;
  s.pid = 0;
  s.label = 1;
  trace.push_back(s);
  s.pid = 1;
  s.label = 2;
  trace.push_back(s);
  Footprints fp;
  fp[1] = {0, 1};
  fp[2] = {1, 2};  // share t-var 1
  const ConflictReport report = analyze(trace, fp);
  ASSERT_EQ(report.pairs.size(), 1u);
  EXPECT_FALSE(report.pairs[0].disjoint_tvars);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.benign_conflicts, 1u);
}

TEST(ConflictAnalysis, WitnessCarriesFootprintsAndStableOrdinals) {
  // Two conflicting objects; obj_b appears first in the trace, so it gets
  // ordinal 0 regardless of where the objects happen to live in memory —
  // that is what keeps summarize() output diffable across runs.
  int obj_a = 0, obj_b = 0;
  std::vector<sim::Step> trace;
  auto step = [&](int pid, std::uint64_t label, const void* obj) {
    sim::Step s;
    s.pid = pid;
    s.label = label;
    s.obj = obj;
    s.kind = sim::Step::Kind::kStore;
    trace.push_back(s);
  };
  step(0, 1, &obj_b);
  step(0, 1, &obj_a);
  step(1, 2, &obj_b);
  step(1, 2, &obj_a);

  Footprints fp;
  fp[1] = {0, 2};
  fp[2] = {1, 3};
  const ConflictReport report = analyze(trace, fp);
  ASSERT_EQ(report.pairs.size(), 2u);
  // Sorted by first-appearance ordinal: obj_b (ord 0) before obj_a (ord 1).
  EXPECT_EQ(report.pairs[0].object, &obj_b);
  EXPECT_EQ(report.pairs[0].object_ord, 0u);
  EXPECT_EQ(report.pairs[1].object, &obj_a);
  EXPECT_EQ(report.pairs[1].object_ord, 1u);
  // Every pair carries the full witness: both TxIds and both footprints.
  for (const ConflictPair& p : report.pairs) {
    EXPECT_TRUE(p.disjoint_tvars);
    EXPECT_EQ(p.tvars_a, (std::vector<core::TVarId>{0, 2}));
    EXPECT_EQ(p.tvars_b, (std::vector<core::TVarId>{1, 3}));
  }

  // Unnamed objects render as their stable ordinal, named ones by name;
  // violating pairs print both footprints.
  const std::string out = report.summarize({{&obj_a, "clock"}});
  EXPECT_NE(out.find("T1 <-> T2 on obj#0"), std::string::npos) << out;
  EXPECT_NE(out.find("T1 <-> T2 on clock"), std::string::npos) << out;
  EXPECT_NE(out.find("T1 t-vars: {x0, x2}"), std::string::npos) << out;
  EXPECT_NE(out.find("T2 t-vars: {x1, x3}"), std::string::npos) << out;
}

// --- Figure 2 ---------------------------------------------------------------

// T-variables: x=0, y=1, w=2, z=3 (as in the paper).
struct Fig2Result {
  ConflictReport report;
  bool t2_committed = false;
  bool t3_committed = false;
};

template <typename Tm>
Fig2Result run_figure2(Tm& tm) {
  sim::Env env(3);
  auto result = std::make_shared<Fig2Result>();

  env.set_body(0, [&tm] {
    sim::Env::current()->set_label(1);  // T1
    core::TxnPtr txn = tm.begin();
    (void)tm.read(*txn, 2);             // R(w): 0
    (void)tm.read(*txn, 3);             // R(z): 0
    (void)tm.write(*txn, 0, 1);         // W(x, 1)
    (void)tm.write(*txn, 1, 1);         // W(y, 1)
    sim::Env::current()->marker("t1_acquired");
    (void)tm.try_commit(*txn);          // never reached: suspended before
  });
  env.set_body(1, [&tm, result] {
    sim::Env::current()->set_label(2);  // T2
    for (int i = 0; i < 50 && !result->t2_committed; ++i) {
      core::TxnPtr txn = tm.begin();
      if (!tm.read(*txn, 0).has_value()) continue;  // R(x)
      if (!tm.write(*txn, 2, 1)) continue;          // W(w, 1)
      result->t2_committed = tm.try_commit(*txn);
    }
  });
  env.set_body(2, [&tm, result] {
    sim::Env::current()->set_label(3);  // T3
    for (int i = 0; i < 50 && !result->t3_committed; ++i) {
      core::TxnPtr txn = tm.begin();
      if (!tm.read(*txn, 1).has_value()) continue;  // R(y)
      if (!tm.write(*txn, 3, 1)) continue;          // W(z, 1)
      result->t3_committed = tm.try_commit(*txn);
    }
  });

  env.start();
  // T1 runs up to (and including) acquiring x and y — signalled by its
  // marker — then suspends forever, the paper's "got suspended for a long
  // time". It never reaches its tryC invocation.
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
  // T2 executes and completes, then T3 — exactly the E_{p·2·s·3} shape.
  env.run_solo(1, 500000);
  env.run_solo(2, 500000);

  Footprints fp;
  fp[1] = {0, 1, 2, 3};  // T1 touches w, z, x, y
  fp[2] = {0, 2};        // T2: x, w
  fp[3] = {1, 3};        // T3: y, z
  result->report = analyze(env.trace(), fp);
  return *result;
}

TEST(Figure2, DstmViolatesStrictDap) {
  SimDstm tm(4, cm::make_manager("aggressive"));
  const Fig2Result r = run_figure2(tm);
  // Obstruction-freedom: both unrelated transactions commit despite T1.
  EXPECT_TRUE(r.t2_committed);
  EXPECT_TRUE(r.t3_committed);
  // ...but T2 and T3 conflicted on a common base object (T1's descriptor):
  // a strict-DAP violation between t-variable-disjoint transactions.
  bool t2_t3_violation = false;
  for (const ConflictPair& p : r.report.pairs) {
    if (p.tx_a == 2 && p.tx_b == 3 && p.disjoint_tvars) {
      t2_t3_violation = true;
    }
  }
  EXPECT_TRUE(t2_t3_violation) << r.report.summarize();
}

TEST(Figure2, FoctmViolatesStrictDapViaStateObjects) {
  // Algorithm 2 hits the same wall (Theorem 13 is about *every* OFTM): T2
  // and T3 both propose `aborted` to State[T1].
  SimFoctm tm(4);
  const Fig2Result r = run_figure2(tm);
  EXPECT_TRUE(r.t2_committed);
  EXPECT_TRUE(r.t3_committed);
  bool t2_t3_violation = false;
  for (const ConflictPair& p : r.report.pairs) {
    if (p.tx_a == 2 && p.tx_b == 3 && p.disjoint_tvars) {
      t2_t3_violation = true;
    }
  }
  EXPECT_TRUE(t2_t3_violation) << r.report.summarize();
}

TEST(Figure2, TlIsStrictlyDapButBlocks) {
  // The other side of the trade: TL has no shared base object between T2
  // and T3 (strict DAP) — but neither can commit while T1 holds its
  // encounter locks. Obstruction-freedom and strict DAP really do trade
  // off, which is the paper's point.
  SimTl tm(4, lock::TlOptions{/*patience=*/8});
  const Fig2Result r = run_figure2(tm);
  EXPECT_FALSE(r.t2_committed);
  EXPECT_FALSE(r.t3_committed);
  EXPECT_EQ(r.report.violations, 0u) << r.report.summarize();
}

TEST(Figure2, Tl2ViolatesStrictDapOnlyThroughItsClock) {
  // TL2: T2 and T3 share exactly one base object — the global version
  // clock (the paper: "every transaction has to access a common memory
  // location to determine its timestamp").
  SimTl2 tm(4);
  const Fig2Result r = run_figure2(tm);
  // T1 never locked anything (commit-time locking, and it is suspended
  // before tryC), so T2/T3 commit.
  EXPECT_TRUE(r.t2_committed);
  EXPECT_TRUE(r.t3_committed);
  int t2_t3_violations = 0;
  for (const ConflictPair& p : r.report.pairs) {
    if (p.tx_a == 2 && p.tx_b == 3 && p.disjoint_tvars) ++t2_t3_violations;
  }
  EXPECT_EQ(t2_t3_violations, 1);  // the clock, and only the clock
}

TEST(Figure2, NorecViolatesStrictDapOnlyThroughItsSeqlock) {
  // NOrec has no per-location metadata: its one shared base object is the
  // global sequence lock, which every transaction reads and every writer
  // CASes and stores at commit. T1's writes are lazy, so the suspended T1
  // blocks nobody.
  SimNorec tm(4);
  const Fig2Result r = run_figure2(tm);
  EXPECT_TRUE(r.t2_committed);
  EXPECT_TRUE(r.t3_committed);

  const void* seqlock = nullptr;
  int t2_t3_violations = 0;
  for (const ConflictPair& p : r.report.pairs) {
    if (p.tx_a == 2 && p.tx_b == 3 && p.disjoint_tvars) {
      ++t2_t3_violations;
      seqlock = p.object;
    }
  }
  ASSERT_EQ(t2_t3_violations, 1) << r.report.summarize();

  // T1 read w and z, which T2 and T3 then wrote back: each meets T1 on the
  // seqlock and on the slot of the t-variable it wrote — the slot pairs
  // show every value access is a simulator step.
  EXPECT_EQ(r.report.pairs.size(), 5u) << r.report.summarize();
  std::vector<const void*> t1_t2;
  std::vector<const void*> t1_t3;
  for (const ConflictPair& p : r.report.pairs) {
    if (p.tx_a == 1 && p.tx_b == 2) t1_t2.push_back(p.object);
    if (p.tx_a == 1 && p.tx_b == 3) t1_t3.push_back(p.object);
  }
  ASSERT_EQ(t1_t2.size(), 2u) << r.report.summarize();
  ASSERT_EQ(t1_t3.size(), 2u) << r.report.summarize();
  const auto other = [seqlock](const std::vector<const void*>& objects) {
    return objects[0] == seqlock ? objects[1] : objects[0];
  };
  EXPECT_NE(std::find(t1_t2.begin(), t1_t2.end(), seqlock), t1_t2.end());
  EXPECT_NE(std::find(t1_t3.begin(), t1_t3.end(), seqlock), t1_t3.end());
  EXPECT_NE(other(t1_t2), other(t1_t3));  // the slots of w and z
}

// Partitioned workload: disjoint transactions on DSTM never share base
// objects (no indirect linkage exists) — DSTM is DAP in the weaker sense of
// [22]; violations need the Figure-2 indirect connection.
TEST(StrictDap, DstmDisjointTransactionsAloneDoNotConflict) {
  SimDstm tm(4, cm::make_manager("aggressive"));
  sim::Env env(2);
  env.set_body(0, [&tm] {
    sim::Env::current()->set_label(1);
    core::TxnPtr txn = tm.begin();
    (void)tm.write(*txn, 0, 1);
    (void)tm.try_commit(*txn);
  });
  env.set_body(1, [&tm] {
    sim::Env::current()->set_label(2);
    core::TxnPtr txn = tm.begin();
    (void)tm.write(*txn, 1, 1);
    (void)tm.try_commit(*txn);
  });
  env.start();
  env.run_round_robin();
  Footprints fp;
  fp[1] = {0};
  fp[2] = {1};
  const ConflictReport report = analyze(env.trace(), fp);
  EXPECT_EQ(report.violations, 0u) << report.summarize();
}

}  // namespace
}  // namespace oftm::dap
