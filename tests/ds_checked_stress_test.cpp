// Checked-stress ride-along for the region-backed containers: 100k
// committed transactions of alloc/free churn through the RegionHeap's
// epochs per structure × region recipe, with an opacity verdict.
//
// The history checker's vocabulary (and its unique-writes discipline) is
// TVarId-based, while region container traffic is word-granular and
// necessarily unrecorded (history::RecordingTm forwards the word tier
// transparently). So each churn transaction carries recorded scratch
// t-variable operations riding in the SAME transaction as the container
// op: a read of a neighbour thread's scratch var, a read of the thread's
// own, and a unique-valued write of its own. check_mvsg then certifies
// that projection of the history — if the region backend ever served the
// churn transactions a non-opaque schedule, the scratch projection
// embedded in those very transactions could not stay opaque either.
//
// Suite label: checked-stress (own CI job; excluded from the sanitizer
// presets — see tests/CMakeLists.txt and CMakePresets.json).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/atomically.hpp"
#include "core/memory_model.hpp"
#include "ds/thashmap.hpp"
#include "ds/tlist.hpp"
#include "history/checker.hpp"
#include "history/recorder.hpp"
#include "runtime/xorshift.hpp"
#include "workload/factory.hpp"

namespace oftm::ds {
namespace {

constexpr int kThreads = 4;
constexpr int kTxnsPerThread = 25'000;  // 100k committed txns per test

// One churn transaction body per call: recorded scratch ops + an
// unrecorded region container op, all in one transaction. `op` receives
// the TxView and performs the container traffic.
template <typename Op>
void run_churn(core::TransactionalMemory& recorded, Op&& op) {
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&recorded, &op, t] {
      runtime::Xoshiro256 rng(9000 + static_cast<std::uint64_t>(t));
      std::uint64_t attempt_seq = 0;
      for (int i = 0; i < kTxnsPerThread; ++i) {
        core::atomically(recorded, [&](core::TxView& tx) {
          // Unique value per ATTEMPT, not per logical op — a retried
          // attempt is a distinct recorded transaction and must not
          // duplicate a written value (unique-writes discipline).
          const core::Value unique =
              (static_cast<core::Value>(t + 1) << 40) | ++attempt_seq;
          (void)tx.read(static_cast<core::TVarId>((t + 1) % kThreads));
          (void)tx.read(static_cast<core::TVarId>(t));
          op(tx, t, rng);
          tx.write(static_cast<core::TVarId>(t), unique);
        });
      }
    });
  }
  for (auto& w : workers) w.join();
}

void check_history(history::Recorder& recorder) {
  const auto events = recorder.events();
  ASSERT_EQ(history::Recorder::check_well_formed(events, /*threads=*/0), "");
  const auto txns = history::Recorder::transactions(events, /*threads=*/0);
  EXPECT_GE(txns.size(),
            static_cast<std::size_t>(kThreads) * kTxnsPerThread);
  history::MvsgOptions opts;
  opts.respect_real_time = true;
  opts.include_aborted_readers = true;
  opts.threads = 0;  // parallel check; bit-identical to sequential
  const auto check = history::check_mvsg(txns, opts);
  EXPECT_TRUE(check.ok) << check.error;
}

void run_list_churn(const std::string& backend) {
  constexpr std::uint32_t kCap = 512;
  const std::size_t words =
      TListSetT<core::RegionMemory>::tvars_needed(kCap) + kThreads;
  auto tm = workload::make_tm_for_containers(backend, words);
  ASSERT_TRUE(tm->has_word_access());
  history::Recorder recorder;
  history::RecordingTm recorded(*tm, recorder);

  TListSetT<core::RegionMemory> set(recorded, 0, kCap);
  set.init();
  run_churn(recorded, [&set](core::TxView& tx, int /*t*/,
                             runtime::Xoshiro256& rng) {
    // Node alloc/free churn: inserts and erases through the RegionHeap's
    // size-class free lists and epoch-deferred reclamation.
    const std::uint64_t key = rng.next_range(400) + 1;
    if (rng.next_bool(0.5)) {
      set.insert(tx, key);
    } else {
      set.erase(tx, key);
    }
  });
  EXPECT_TRUE(set.audit_quiescent());
  check_history(recorder);
}

void run_map_churn(const std::string& backend) {
  constexpr std::uint32_t kCap = 1024;
  const std::size_t words =
      THashMapT<core::RegionMemory>::tvars_needed(kCap) + kThreads;
  auto tm = workload::make_tm_for_containers(backend, words);
  ASSERT_TRUE(tm->has_word_access());
  history::Recorder recorder;
  history::RecordingTm recorded(*tm, recorder);

  THashMapT<core::RegionMemory> map(recorded, 0, kCap);
  map.init();
  run_churn(recorded, [&map](core::TxView& tx, int t,
                             runtime::Xoshiro256& rng) {
    // Put/erase churn over the contiguous word-array probe table,
    // tombstone trimming included.
    const std::uint64_t key = rng.next_range(700);
    if (rng.next_bool(0.6)) {
      map.put(tx, key, (static_cast<core::Value>(t) << 32) | key);
    } else {
      map.erase(tx, key);
    }
  });
  check_history(recorder);
}

TEST(DsCheckedStress, ListChurnOpacityOnTl2Region) {
  run_list_churn("tl2-region");
}

TEST(DsCheckedStress, ListChurnOpacityOnNorecRegion) {
  run_list_churn("norec-region");
}

TEST(DsCheckedStress, MapChurnOpacityOnTl2Region) {
  run_map_churn("tl2-region");
}

TEST(DsCheckedStress, MapChurnOpacityOnNorecRegion) {
  run_map_churn("norec-region");
}

}  // namespace
}  // namespace oftm::ds
