// Checked-stress run of the sharded KV service: the full mixed OLTP
// workload (point ops, cross-shard 2PC transfers, range scans, index
// churn) with every shard's TM wrapped in a history::RecordingTm, then
// each per-shard history opacity-certified with check_mvsg and the global
// cross-shard conservation audit asserted on top.
//
// The checker's unique-writes discipline does not hold for raw container
// traffic (two puts can write the same balance; the meta word writes
// running sums), so the shard hook injects recorded scratch t-var
// operations into EVERY service transaction — a read of a neighbour
// thread's scratch var, a read of the thread's own, and a unique-valued
// write of its own — and the checked history is the projection onto the
// scratch vars (container/meta reads and writes dropped; begin/tryC/tryA
// events kept, so transaction boundaries and outcomes survive). The
// projection of a well-formed history is well-formed — responses carry
// the invocation's tvar, so matched pairs are dropped together — and if a
// backend ever served the service a non-opaque schedule, the scratch
// projection riding inside those same transactions could not stay opaque
// either. Transactions whose abort response landed on a dropped container
// op digest as active; include_aborted_readers folds their surviving
// scratch reads into the check as reader-only nodes.
//
// Region recipes need the same projection for a different reason: their
// container traffic is word-granular and unrecorded, but the meta word is
// a real recorded t-var with non-unique values.
//
// Suite label: checked-stress (own CI job; excluded from sanitizer
// presets — see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/memory_model.hpp"
#include "core/tm.hpp"
#include "history/checker.hpp"
#include "history/recorder.hpp"
#include "runtime/thread_registry.hpp"
#include "svc/service.hpp"

namespace oftm::svc {
namespace {

ServiceConfig checked_config(const std::string& backend,
                             std::uint64_t ops_per_client) {
  ServiceConfig cfg;
  cfg.backend = backend;
  cfg.num_shards = 4;
  cfg.clients = 4;
  cfg.keys = 512;
  cfg.ops_per_client = ops_per_client;
  // Transfer-heavy to stress the 2PC paths; scans kept rare because on
  // boxed recipes every balance scan records a full-table read into the
  // history (the projection drops them, but they are still logged).
  cfg.put_fraction = 0.15;
  cfg.transfer_fraction = 0.30;
  cfg.scan_fraction = 0.01;
  cfg.churn_fraction = 0.04;
  cfg.scan_span = 32;
  // Scratch t-vars the hook writes through, one per registry slot.
  cfg.extra_tvars = runtime::ThreadRegistry::kMaxThreads;
  return cfg;
}

// Scratch projection: drop container/meta t-var traffic, keep the scratch
// ops and every transaction-control event.
std::vector<history::Event> project_scratch(
    const std::vector<history::Event>& events, core::TVarId scratch_base) {
  std::vector<history::Event> kept;
  kept.reserve(events.size());
  for (const history::Event& e : events) {
    if ((e.op == history::OpType::kRead ||
         e.op == history::OpType::kWrite) &&
        e.tvar < scratch_base) {
      continue;
    }
    kept.push_back(e);
  }
  return kept;
}

// Run the service on `backend` with recorded shards; certify opacity of
// each shard's scratch projection and the cross-shard conservation audit.
template <typename Model>
void run_checked(const std::string& backend, std::uint64_t ops_per_client) {
  const ServiceConfig cfg = checked_config(backend, ops_per_client);
  const auto scratch_base = static_cast<core::TVarId>(shard_tvar_words(cfg));

  auto inner = make_service_tms(cfg);
  std::vector<std::unique_ptr<history::Recorder>> recorders;
  std::vector<std::unique_ptr<history::RecordingTm>> recorded;
  std::vector<core::TransactionalMemory*> raw;
  for (auto& tm : inner) {
    recorders.push_back(std::make_unique<history::Recorder>());
    recorded.push_back(
        std::make_unique<history::RecordingTm>(*tm, *recorders.back()));
    raw.push_back(recorded.back().get());
  }

  KvServiceT<Model> service(cfg, raw);
  for (int i = 0; i < cfg.num_shards; ++i) {
    service.shard(i).set_tx_hook([scratch_base](core::TxView& tx) {
      // Unique value per ATTEMPT: a retried attempt is a distinct recorded
      // transaction and must not duplicate a written value. The counter is
      // thread-local and the thread id is baked into the high bits, so
      // values are unique across every shard's history at once.
      static thread_local std::uint64_t attempt_seq = 0;
      const int id = runtime::ThreadRegistry::current_id();
      const core::Value unique =
          (static_cast<core::Value>(id + 1) << 40) | ++attempt_seq;
      const auto neighbour = static_cast<core::TVarId>(
          (id + 1) % runtime::ThreadRegistry::kMaxThreads);
      (void)tx.read(scratch_base + neighbour);
      (void)tx.read(scratch_base + static_cast<core::TVarId>(id));
      tx.write(scratch_base + static_cast<core::TVarId>(id), unique);
    });
  }

  service.init_and_seed();
  const SvcRunResult result = service.run_clients();

  // The run must have exercised what it claims to certify.
  EXPECT_GT(result.ops, 0u);
  EXPECT_GT(result.coord.committed_two_phase, 0u)
      << "no cross-shard transfer committed; the 2PC paths went untested";
  EXPECT_GT(result.transfers_committed, 0u);

  std::string why;
  EXPECT_TRUE(service.audit(&why)) << why;

  for (int i = 0; i < cfg.num_shards; ++i) {
    const auto projected = project_scratch(
        recorders[static_cast<std::size_t>(i)]->events(), scratch_base);
    ASSERT_EQ(history::Recorder::check_well_formed(projected, /*threads=*/0),
              "")
        << "shard " << i;
    const auto txns =
        history::Recorder::transactions(projected, /*threads=*/0);
    EXPECT_GT(txns.size(), 1000u) << "shard " << i << " saw too few txns";
    history::MvsgOptions opts;
    opts.respect_real_time = true;
    opts.include_aborted_readers = true;
    opts.threads = 0;  // parallel check; bit-identical to sequential
    const auto check = history::check_mvsg(txns, opts);
    EXPECT_TRUE(check.ok) << "shard " << i << ": " << check.error;
  }
}

// Boxed recipe: container traffic IS recorded (and projected away); the
// per-shard event logs are large, so the op count stays moderate.
TEST(SvcCheckedStress, MixedOltpOpacityOnTl2) {
  run_checked<core::BoxedMemory>("tl2", 6'250);
}

// Region recipes: container words are unrecorded, histories are compact —
// scale the op count up instead.
TEST(SvcCheckedStress, MixedOltpOpacityOnTl2Region) {
  run_checked<core::RegionMemory>("tl2-region", 12'500);
}

TEST(SvcCheckedStress, MixedOltpOpacityOnNorecRegion) {
  run_checked<core::RegionMemory>("norec-region", 12'500);
}

}  // namespace
}  // namespace oftm::svc
