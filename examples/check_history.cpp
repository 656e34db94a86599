// check_history: the history-interchange CLI. Two modes, picked by
// whether the first argument names a readable file:
//
//   ./check_history HISTORY.json [threads]
//       Import a dbcop or elle/Jepsen rw-register history (the dialect is
//       sniffed from the document shape), run the parallel MVSG opacity
//       checker over it, and print the verdict — with the typed cycle
//       witness when the history is not opaque. `threads` follows
//       MvsgOptions: 1 = sequential, 0 (default) = one worker per
//       hardware thread. Exits 0 on an opaque history, 1 on a violation
//       or a rejected import.
//
//   ./check_history [backend] [threads]
//       Self-test: record a small contended workload on `backend`
//       (default tl2), check it directly, then push it through both
//       interchange dialects — export, reimport, recheck — and require
//       the verdict and witness to survive each round trip. This is the
//       full record→export→import→check pipeline in one process; the CI
//       examples-smoke job runs it per backend, and the exit code is a
//       real check (nonzero if any leg disagrees).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "history/checker.hpp"
#include "history/interchange.hpp"
#include "history/recorder.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace {

using oftm::history::CheckResult;
using oftm::history::MvsgOptions;
using oftm::history::TxRecord;
namespace interchange = oftm::history::interchange;

CheckResult check(const std::vector<TxRecord>& txns, bool respect_real_time,
                  int threads) {
  MvsgOptions opts;
  opts.respect_real_time = respect_real_time;
  opts.include_aborted_readers = true;
  opts.threads = threads;
  return oftm::history::check_mvsg(txns, opts);
}

void print_verdict(const CheckResult& r, std::size_t txns) {
  if (r.ok) {
    std::printf("OPAQUE: %zu transactions, no violation found\n", txns);
  } else {
    std::printf("VIOLATION: %s\n", r.error.c_str());
    if (!r.witness.empty()) {
      std::printf("  witness: %s\n", r.witness_str().c_str());
    }
  }
}

int check_file(const std::string& path, int threads) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto imported = interchange::import_history(buf.str());
  if (!imported.ok) {
    std::fprintf(stderr, "import of %s failed: %s\n", path.c_str(),
                 imported.error.c_str());
    return 1;
  }
  std::printf("imported %zu transactions (%s timing)\n", imported.txns.size(),
              imported.has_real_time ? "real-time" : "untimed");
  // Only histories that carried per-transaction intervals can be held to
  // strict serializability; untimed imports get the plain-opacity check.
  const auto r = check(imported.txns, imported.has_real_time, threads);
  if (r.capacity_exceeded) {
    std::fprintf(stderr, "checker capacity exceeded: %s\n", r.error.c_str());
    return 1;
  }
  print_verdict(r, imported.txns.size());
  return r.ok ? 0 : 1;
}

bool verdicts_match(const CheckResult& a, const CheckResult& b,
                    const char* what) {
  if (a.ok == b.ok && a.error == b.error &&
      a.witness_str() == b.witness_str()) {
    return true;
  }
  std::fprintf(stderr, "%s: verdict drifted across the round trip\n", what);
  std::fprintf(stderr, "  direct:   ok=%d %s\n", a.ok ? 1 : 0,
               a.error.c_str());
  std::fprintf(stderr, "  imported: ok=%d %s\n", b.ok ? 1 : 0,
               b.error.c_str());
  return false;
}

int selftest(const std::string& backend, int threads) {
  // A small but genuinely contended run: a hot set plus a high write
  // fraction gives the checker real rf/ww/anti edges to chew on.
  oftm::workload::WorkloadConfig config;
  config.threads = 4;
  config.tx_per_thread = 5000;
  config.ops_per_tx = 4;
  config.write_fraction = 0.5;
  config.hot_op_fraction = 0.25;
  config.pin_threads = false;
  constexpr std::size_t kTVars = 256;

  auto tm = oftm::workload::make_tm(backend, kTVars);
  oftm::history::Recorder recorder;
  oftm::history::RecordingTm recorded(*tm, recorder);
  const auto run = oftm::workload::run_workload(recorded, config);

  const auto events = recorder.events();
  const auto wf = oftm::history::Recorder::check_well_formed(events, threads);
  if (!wf.empty()) {
    std::fprintf(stderr, "recorded history is not well-formed: %s\n",
                 wf.c_str());
    return 1;
  }
  const auto txns = oftm::history::Recorder::transactions(events, threads);
  const auto direct = check(txns, /*respect_real_time=*/true, threads);
  std::printf("%s: %llu commits, %llu aborts, %zu events, %zu transactions\n",
              backend.c_str(),
              static_cast<unsigned long long>(run.committed),
              static_cast<unsigned long long>(run.aborted_attempts),
              events.size(),
              txns.size());
  print_verdict(direct, txns.size());
  if (!direct.ok) return 1;

  // Round-trip the history through both dialects. Exports embed the
  // recorder's first_seq/last_seq, so the reimport must reproduce the
  // strict (real-time-respecting) verdict exactly — elle over the full
  // history, dbcop over its committed projection.
  interchange::ExportOptions elle_opts;
  elle_opts.format = interchange::Format::kElle;
  const auto elle = interchange::import_history(
      interchange::export_history(txns, elle_opts));
  if (!elle.ok || !elle.has_real_time) {
    std::fprintf(stderr, "elle reimport failed: %s\n", elle.error.c_str());
    return 1;
  }
  if (!verdicts_match(direct, check(elle.txns, true, threads), "elle")) {
    return 1;
  }

  std::vector<TxRecord> committed;
  for (const auto& t : txns) {
    if (t.committed()) committed.push_back(t);
  }
  const auto dbcop = interchange::import_history(
      interchange::export_history(txns, {}));
  if (!dbcop.ok || !dbcop.has_real_time) {
    std::fprintf(stderr, "dbcop reimport failed: %s\n", dbcop.error.c_str());
    return 1;
  }
  if (dbcop.txns.size() != committed.size()) {
    std::fprintf(stderr,
                 "dbcop reimport: %zu transactions, expected the %zu "
                 "committed ones\n",
                 dbcop.txns.size(), committed.size());
    return 1;
  }
  if (!verdicts_match(check(committed, true, threads),
                      check(dbcop.txns, true, threads), "dbcop")) {
    return 1;
  }
  std::printf("round trips OK: elle (%zu txns) and dbcop (%zu committed) "
              "reproduce the direct verdict\n",
              elle.txns.size(), dbcop.txns.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string arg = argc > 1 ? argv[1] : "tl2";
  const int threads = argc > 2 ? std::atoi(argv[2]) : 0;
  if (std::ifstream(arg).good()) {
    return check_file(arg, threads);
  }
  const auto& known = oftm::workload::all_backends();
  bool is_backend = false;
  for (const auto& b : known) is_backend |= (b == arg);
  if (!is_backend) {
    std::fprintf(stderr,
                 "%s is neither a readable history file nor a backend "
                 "recipe\nusage: %s HISTORY.json|BACKEND [threads]\n",
                 arg.c_str(), argv[0]);
    return 2;
  }
  return selftest(arg, threads);
}
