// F2 — regenerates Figure 2 of the paper and evaluates Theorem 13
// (impossibility of strict disjoint-access-parallelism) on every backend.
//
// Scenario (paper, Section 5.2): T1 reads w, z and writes x, y, then its
// process is suspended; T2 reads x and writes w; T3 reads y and writes z.
// T2 and T3 access disjoint t-variable sets {x, w} and {y, z}.
//
// For each backend the report prints: whether T2/T3 made progress despite
// the suspended T1 (obstruction-freedom), and every base-object conflict
// between T2 and T3 (strict-DAP violations per Definition 12).
#include <cstdio>
#include <memory>
#include <string>

#include "cm/managers.hpp"
#include "dap/conflicts.hpp"
#include "dstm/dstm.hpp"
#include "foctm/foctm.hpp"
#include "lock/coarse.hpp"
#include "lock/tl.hpp"
#include "lock/tl2.hpp"
#include "sim/env.hpp"
#include "sim/platform.hpp"
#include "workload/report.hpp"

namespace {

using namespace oftm;

struct Outcome {
  bool t2_committed = false;
  bool t3_committed = false;
  std::uint64_t t2_t3_violations = 0;
  std::uint64_t total_violations = 0;
  std::string detail;
};

template <typename Tm>
Outcome run_figure2(Tm& tm) {
  sim::Env env(3);
  Outcome out;

  env.set_body(0, [&tm] {
    sim::Env::current()->set_label(1);  // T1
    core::TxnPtr txn = tm.begin();
    (void)tm.read(*txn, 2);   // R(w): 0
    (void)tm.read(*txn, 3);   // R(z): 0
    (void)tm.write(*txn, 0, 1);  // W(x, 1)
    (void)tm.write(*txn, 1, 1);  // W(y, 1)
    sim::Env::current()->marker("t1_acquired");
    (void)tm.try_commit(*txn);
  });
  env.set_body(1, [&tm, &out] {
    sim::Env::current()->set_label(2);  // T2
    for (int i = 0; i < 50 && !out.t2_committed; ++i) {
      core::TxnPtr txn = tm.begin();
      if (!tm.read(*txn, 0).has_value()) continue;
      if (!tm.write(*txn, 2, 1)) continue;
      out.t2_committed = tm.try_commit(*txn);
    }
  });
  env.set_body(2, [&tm, &out] {
    sim::Env::current()->set_label(3);  // T3
    for (int i = 0; i < 50 && !out.t3_committed; ++i) {
      core::TxnPtr txn = tm.begin();
      if (!tm.read(*txn, 1).has_value()) continue;
      if (!tm.write(*txn, 3, 1)) continue;
      out.t3_committed = tm.try_commit(*txn);
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
  env.run_solo(1, 500000);  // E_{p·2}
  env.run_solo(2, 500000);  // ·s·3

  dap::Footprints fp;
  fp[1] = {0, 1, 2, 3};
  fp[2] = {0, 2};
  fp[3] = {1, 3};
  const dap::ConflictReport report = dap::analyze(env.trace(), fp);
  out.total_violations = report.violations;
  for (const dap::ConflictPair& p : report.pairs) {
    if (p.tx_a == 2 && p.tx_b == 3 && p.disjoint_tvars) {
      ++out.t2_t3_violations;
    }
  }
  out.detail = report.summarize();
  return out;
}

void print(const char* name, const Outcome& o) {
  // One shared-emitter JSON line per backend row.
  oftm::workload::report::emit(
      oftm::workload::report::Json()
          .field("bench", "F2")
          .field("scenario", "figure2_theorem13")
          .field("backend", name)
          .field("t2_committed", o.t2_committed)
          .field("t3_committed", o.t3_committed)
          .field("t2_t3_shared_base_objects", o.t2_t3_violations)
          .field("strict_dap_violated", o.t2_t3_violations > 0));
}

}  // namespace

int main() {
  std::puts("== F2: Figure 2 / Theorem 13 — strict DAP is impossible for");
  std::puts("   OFTMs ======================================================");
  std::puts("T1 writes x,y then suspends; T2 (x,w) and T3 (y,z) are");
  std::puts("t-variable-disjoint. An OFTM must let both commit, and then");
  std::puts("they necessarily meet on a common base object (T1's");
  std::puts("descriptor / State object).\n");

  int violations_seen = 0;
  {
    dstm::Dstm<sim::SimPlatform> tm(4, cm::make_manager("aggressive"));
    const Outcome o = run_figure2(tm);
    print("dstm", o);
    violations_seen += o.t2_t3_violations > 0;
  }
  {
    foctm::Foctm<sim::SimPlatform, foc::StrictFocPolicy<sim::SimPlatform>>
        tm(4);
    const Outcome o = run_figure2(tm);
    print("foctm", o);
    violations_seen += o.t2_t3_violations > 0;
  }
  {
    lock::Tl<sim::SimPlatform> tm(4, lock::TlOptions{8});
    const Outcome o = run_figure2(tm);
    print("tl (2PL)", o);
  }
  {
    lock::Tl2<core::BoxedSlots<sim::SimPlatform>> tm(4);
    const Outcome o = run_figure2(tm);
    print("tl2 (clock)", o);
  }
  {
    lock::Coarse<sim::SimPlatform> tm(4);
    const Outcome o = run_figure2(tm);
    print("coarse", o);
  }

  std::puts("\nReading: the OFTMs (dstm, foctm) commit both unrelated");
  std::puts("transactions *and* show a T2<->T3 base-object conflict —");
  std::puts("Theorem 13. TL is strictly DAP but T2/T3 cannot commit while");
  std::puts("T1 is suspended (not obstruction-free). TL2 commits both but");
  std::puts("shares its global clock. Coarse serializes everything behind");
  std::puts("one lock.");
  return violations_seen == 2 ? 0 : 1;
}
