// B6 — Definition 12 quantified: strict-DAP violations per workload, per
// backend, measured exactly on the simulator's base-object conflict
// journal.
//
// Three workloads on 3 simulated processes:
//   disjoint   — each process owns a private t-variable partition;
//   chained    — the Figure-2 pattern: process 0 links otherwise disjoint
//                transactions of processes 1 and 2;
//   shared     — all processes hit one t-variable (conflicts expected and
//                benign: they share a t-variable).
//
// Expected rows (EXPERIMENTS.md E-B6): DSTM/FOCTM show violations only in
// the chained workload (the Theorem 13 mechanism); TL shows none anywhere;
// TL2 shows violations everywhere (its global clock); coarse is one big
// violation.
#include <cstdio>
#include <functional>
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

struct Row {
  std::uint64_t committed = 0;
  std::uint64_t violations = 0;
  std::uint64_t benign = 0;
};

// Runs `rounds` transactions per process; vars_for(pid, round) yields the
// two t-variables each transaction reads+writes.
template <typename Tm>
Row run_workload(Tm& tm, int rounds,
                 const std::function<std::pair<core::TVarId, core::TVarId>(
                     int, int)>& vars_for,
                 bool suspend_p0_mid_txn) {
  sim::Env env(3);
  Row row;
  auto fp = std::make_shared<dap::Footprints>();

  for (int pid = 0; pid < 3; ++pid) {
    env.set_body(pid, [&tm, &row, fp, pid, rounds, vars_for,
                       suspend_p0_mid_txn] {
      sim::Env* e = sim::Env::current();
      for (int r = 0; r < rounds; ++r) {
        const std::uint64_t label =
            static_cast<std::uint64_t>(pid) * 1000 + r + 1;
        const auto [a, b] = vars_for(pid, r);
        e->set_label(label);
        (*fp)[label] = {a, b};
        for (int attempt = 0; attempt < 100; ++attempt) {
          core::TxnPtr txn = tm.begin();
          if (!tm.read(*txn, a).has_value()) continue;
          // Update both t-variables (like Figure 2's T1 writing x and y):
          // the chained workload needs p0 to own two locations at once.
          if (!tm.write(*txn, a, label * 1000 + attempt)) continue;
          if (!tm.write(*txn, b, label * 100 + attempt)) continue;
          if (suspend_p0_mid_txn && pid == 0) {
            e->marker("p0_mid_txn");
            // p0 never commits: the controller crashes it here.
          }
          if (tm.try_commit(*txn)) {
            ++row.committed;
            break;
          }
        }
        e->set_label(0);
      }
    });
  }

  env.start();
  if (suspend_p0_mid_txn) {
    auto suspended = [&env] {
      for (const sim::Step& s : env.trace()) {
        if (s.kind == sim::Step::Kind::kMarker && s.note != nullptr &&
            std::string(s.note) == "p0_mid_txn") {
          return true;
        }
      }
      return false;
    };
    for (int i = 0; i < 1000 && !suspended(); ++i) env.step(0);
    env.crash(0);
    env.run_solo(1, 2'000'000);
    env.run_solo(2, 2'000'000);
  } else {
    env.run_random(/*seed=*/123, /*max_steps=*/5'000'000);
    env.run_round_robin(5'000'000);
  }

  const dap::ConflictReport report = dap::analyze(env.trace(), *fp);
  row.violations = report.violations;
  row.benign = report.benign_conflicts;
  return row;
}

// One structured report line per (backend, workload) row, through the
// emitter every bench shares (bench/diff_baselines.py & README schema).
void emit_row(const char* backend, const char* wl, const Row& r) {
  oftm::workload::report::emit(oftm::workload::report::Json()
                                   .field("bench", "B6")
                                   .field("scenario", wl)
                                   .field("backend", backend)
                                   .field("committed", r.committed)
                                   .field("violations", r.violations)
                                   .field("benign", r.benign));
}

template <typename Tm>
void run_all(const char* name, const std::function<std::unique_ptr<Tm>()>&
                                   make) {
  // disjoint: pid p uses vars {2p, 2p+1} only.
  auto disjoint = [](int pid, int r) {
    return std::make_pair(static_cast<core::TVarId>(2 * pid + (r % 2)),
                          static_cast<core::TVarId>(2 * pid + ((r + 1) % 2)));
  };
  // chained: p0 spans vars 0 and 2; p1 uses {0,1}, p2 uses {2,3} — p1 and
  // p2 are mutually disjoint but both meet p0 (the Figure-2 linkage).
  auto chained = [](int pid, int) {
    switch (pid) {
      case 0: return std::make_pair(core::TVarId{0}, core::TVarId{2});
      case 1: return std::make_pair(core::TVarId{0}, core::TVarId{1});
      default: return std::make_pair(core::TVarId{2}, core::TVarId{3});
    }
  };
  // shared: everyone on var 0 (+ a private second var).
  auto shared = [](int pid, int) {
    return std::make_pair(core::TVarId{0},
                          static_cast<core::TVarId>(pid + 1));
  };

  {
    auto tm = make();
    emit_row(name, "disjoint", run_workload(*tm, 6, disjoint, false));
  }
  {
    auto tm = make();
    emit_row(name, "chained", run_workload(*tm, 4, chained, true));
  }
  {
    auto tm = make();
    emit_row(name, "shared", run_workload(*tm, 6, shared, false));
  }
}

}  // namespace

int main() {
  std::puts("== B6: strict-DAP violations by workload and backend ==========");
  std::puts("violations = base-object conflicts between transactions with");
  std::puts("DISJOINT t-variable sets (Definition 12 witnesses).\n");

  run_all<dstm::Dstm<sim::SimPlatform>>("dstm", [] {
    return std::make_unique<dstm::Dstm<sim::SimPlatform>>(
        8, cm::make_manager("aggressive"));
  });
  run_all<foctm::Foctm<sim::SimPlatform,
                       foc::StrictFocPolicy<sim::SimPlatform>>>(
      "foctm", [] {
        return std::make_unique<foctm::Foctm<
            sim::SimPlatform, foc::StrictFocPolicy<sim::SimPlatform>>>(8);
      });
  run_all<lock::Tl<sim::SimPlatform>>("tl", [] {
    return std::make_unique<lock::Tl<sim::SimPlatform>>(
        8, lock::TlOptions{8});
  });
  using SimTl2 = lock::Tl2<core::BoxedSlots<sim::SimPlatform>>;
  run_all<SimTl2>("tl2", [] { return std::make_unique<SimTl2>(8); });
  run_all<lock::Coarse<sim::SimPlatform>>("coarse", [] {
    return std::make_unique<lock::Coarse<sim::SimPlatform>>(8);
  });

  std::puts("\nReading: the OFTM rows show violations exactly in the");
  std::puts("chained workload (transaction-descriptor sharing through the");
  std::puts("suspended p0 — Theorem 13); TL shows none anywhere; TL2's");
  std::puts("clock makes every pair of update transactions conflict.");
  return 0;
}
