// DSTM-specific mechanics beyond the backend-agnostic suites: revocable
// ownership (the CAS-on-status kill path), invisible-read invalidation,
// eager descriptor collapse, and reclamation hygiene.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "cm/managers.hpp"
#include "core/platform.hpp"
#include "dstm/dstm.hpp"
#include "runtime/epoch.hpp"
#include "tm_conformance.hpp"

namespace oftm::dstm {
namespace {

std::unique_ptr<HwDstm> make(const std::string& cm = "aggressive",
                             DstmOptions options = {}) {
  return std::make_unique<HwDstm>(16, cm::make_manager(cm), options);
}

TEST(Dstm, WriterRevokesLiveWriter) {
  auto tm = make();
  auto t1 = tm->begin();
  ASSERT_TRUE(tm->write(*t1, 0, 11));
  EXPECT_EQ(t1->status(), core::TxStatus::kActive);

  auto t2 = tm->begin();
  ASSERT_TRUE(tm->write(*t2, 0, 22));  // aggressive CM kills t1
  EXPECT_EQ(t1->status(), core::TxStatus::kAborted);
  EXPECT_FALSE(tm->try_commit(*t1));
  EXPECT_TRUE(tm->try_commit(*t2));
  EXPECT_EQ(tm->read_quiescent(0), 22u);
  EXPECT_GE(tm->stats().victim_kills, 1u);
}

TEST(Dstm, VictimCountsTheKillOnceWhereItNoticesIt) {
  // A killed transaction learns of the kill at its next operation, whether
  // a read, a write or tryC. That operation counts one cm_kill abort; the
  // operations after it find the transaction over and count nothing, and
  // neither does the committed killer.
  for (int notice = 0; notice < 3; ++notice) {
    auto tm = make();
    auto victim = tm->begin();
    ASSERT_TRUE(tm->write(*victim, 0, 11));
    auto killer = tm->begin();
    ASSERT_TRUE(tm->write(*killer, 0, 22));  // aggressive CM kills victim
    ASSERT_TRUE(tm->try_commit(*killer));
    EXPECT_FALSE(tm->read(*killer, 1).has_value());
    EXPECT_EQ(tm->stats().aborts, 0u) << "the victim has not noticed yet";

    switch (notice) {
      case 0: EXPECT_FALSE(tm->read(*victim, 1).has_value()); break;
      case 1: EXPECT_FALSE(tm->write(*victim, 1, 33)); break;
      case 2: EXPECT_FALSE(tm->try_commit(*victim)); break;
    }
    EXPECT_FALSE(tm->read(*victim, 1).has_value());
    EXPECT_FALSE(tm->write(*victim, 1, 33));
    EXPECT_FALSE(tm->try_commit(*victim));

    const runtime::TxStats s = tm->stats();
    EXPECT_EQ(s.aborts, 1u) << "notice " << notice;
    EXPECT_EQ(s.forced_aborts, 1u) << "notice " << notice;
    EXPECT_EQ(s.abort_reason[static_cast<std::size_t>(
                  obs::AbortReason::kCmKill)],
              1u)
        << "notice " << notice;
  }
}

TEST(Dstm, ReaderRevokesLiveWriter) {
  // A reader meeting a live owner must resolve it (the paper: "Ti may have
  // to eventually abort Tk") — with the aggressive manager, immediately.
  auto tm = make();
  auto writer = tm->begin();
  ASSERT_TRUE(tm->write(*writer, 0, 11));
  auto reader = tm->begin();
  EXPECT_EQ(tm->read(*reader, 0).value(), 0u);  // pre-writer value
  EXPECT_EQ(writer->status(), core::TxStatus::kAborted);
  EXPECT_TRUE(tm->try_commit(*reader));
}

TEST(Dstm, InvisibleReaderIsInvalidatedNotKilled) {
  // Readers are invisible: a later writer does NOT abort the reader's
  // descriptor; the reader discovers the conflict at validation.
  auto tm = make();
  auto reader = tm->begin();
  EXPECT_EQ(tm->read(*reader, 0).value(), 0u);

  auto writer = tm->begin();
  ASSERT_TRUE(tm->write(*writer, 0, 5));
  ASSERT_TRUE(tm->try_commit(*writer));

  // Reader is still active (invisible!), but must fail at commit: its
  // snapshot is stale.
  EXPECT_EQ(reader->status(), core::TxStatus::kActive);
  EXPECT_FALSE(tm->try_commit(*reader));
  EXPECT_EQ(reader->status(), core::TxStatus::kAborted);
}

TEST(Dstm, ReadSetRevalidationAbortsAtNextOpen) {
  // Opacity: the stale snapshot is discovered at the very next open, not
  // only at commit — a doomed transaction cannot observe an inconsistent
  // pair of values.
  auto tm = make();
  auto reader = tm->begin();
  EXPECT_EQ(tm->read(*reader, 0).value(), 0u);

  auto writer = tm->begin();
  ASSERT_TRUE(tm->write(*writer, 0, 7));
  ASSERT_TRUE(tm->write(*writer, 1, 8));
  ASSERT_TRUE(tm->try_commit(*writer));

  EXPECT_FALSE(tm->read(*reader, 1).has_value());  // would be inconsistent
}

TEST(Dstm, ReclaimedLocatorCannotValidateStaleRead) {
  // Validation compares locator addresses, so a locator a live transaction
  // read must not be reclaimed: a later locator on the same slot could
  // reuse its address, and the stale read would then validate (ABA). The
  // reader stays pinned between its operations while writers commit over
  // its read and reclamation runs.
  auto tm = make();
  auto& epochs = runtime::EpochManager::global();
  constexpr int kTrials = 2000;
  int stale_reads_validated = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto reader = tm->begin();
    ASSERT_TRUE(tm->read(*reader, 0).has_value());
    for (int w = 0; w < trial % 9 + 1; ++w) {
      auto writer = tm->begin();
      ASSERT_TRUE(tm->write(*writer, 0, static_cast<core::Value>(w + 1)));
      ASSERT_TRUE(tm->try_commit(*writer));
      for (int pass = 0; pass < 3; ++pass) epochs.reclaim();
    }
    if (tm->read(*reader, 1).has_value()) ++stale_reads_validated;
  }
  EXPECT_EQ(stale_reads_validated, 0) << "of " << kTrials << " trials";
}

TEST(Dstm, KilledTransactionOnLeasedSlotUnpinsOnItsOwnThread) {
  // The session tier leases session slots to any thread. A transaction
  // another thread's contention manager killed, dropped without a further
  // operation, must still give up its epoch pin on its own thread: kept,
  // it stops the global epoch, and the next thread to lease the slot
  // would release it from the wrong thread.
  conformance::SessionTierTm tm(make());
  auto& epochs = runtime::EpochManager::global();
  std::thread owner([&] {
    core::TxnPtr victim = tm.begin();
    ASSERT_TRUE(tm.write(*victim, 0, 1));
    std::thread([&] {
      core::TxnPtr killer = tm.begin();
      ASSERT_TRUE(tm.write(*killer, 0, 2));  // aggressive CM kills victim
      ASSERT_TRUE(tm.try_commit(*killer));
    }).join();
    ASSERT_EQ(victim->status(), core::TxStatus::kAborted);
    victim.reset();
    const std::uint64_t before = epochs.epoch();
    for (int pass = 0; pass < 3; ++pass) epochs.reclaim();
    EXPECT_GE(epochs.epoch(), before + 2) << "a pin outlived its transaction";
    // The victim's slot is the next lease: take it on another thread while
    // this one is still registered.
    std::thread([&] {
      core::TxnPtr next = tm.begin();
      EXPECT_EQ(tm.read(*next, 0).value(), 2u);
      EXPECT_TRUE(tm.try_commit(*next));
    }).join();
  });
  owner.join();
}

TEST(Dstm, UpgradeReadToWriteKeepsSnapshot) {
  auto tm = make();
  {
    auto setup = tm->begin();
    ASSERT_TRUE(tm->write(*setup, 3, 30));
    ASSERT_TRUE(tm->try_commit(*setup));
  }
  auto txn = tm->begin();
  EXPECT_EQ(tm->read(*txn, 3).value(), 30u);
  ASSERT_TRUE(tm->write(*txn, 3, 31));  // upgrade
  EXPECT_EQ(tm->read(*txn, 3).value(), 31u);
  ASSERT_TRUE(tm->try_commit(*txn));
  EXPECT_EQ(tm->read_quiescent(3), 31u);
}

TEST(Dstm, UpgradeFailsIfReadWasInvalidated) {
  auto tm = make();
  auto txn = tm->begin();
  EXPECT_EQ(tm->read(*txn, 3).value(), 0u);

  auto other = tm->begin();
  ASSERT_TRUE(tm->write(*other, 3, 99));
  ASSERT_TRUE(tm->try_commit(*other));

  EXPECT_FALSE(tm->write(*txn, 3, 1));  // snapshot is stale: abort
  EXPECT_EQ(txn->status(), core::TxStatus::kAborted);
}

TEST(Dstm, EagerCollapseKeepsSemantics) {
  DstmOptions options;
  options.eager_collapse = true;
  auto tm = make("aggressive", options);
  EXPECT_EQ(tm->name(), "dstm+collapse");
  for (int i = 1; i <= 50; ++i) {
    auto txn = tm->begin();
    const auto v = tm->read(*txn, 0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, static_cast<core::Value>(i - 1));
    ASSERT_TRUE(tm->write(*txn, 0, static_cast<core::Value>(i)));
    ASSERT_TRUE(tm->try_commit(*txn));
  }
  EXPECT_EQ(tm->read_quiescent(0), 50u);
}

TEST(Dstm, VisibleReaderIsAbortedEarlyByWriter) {
  DstmOptions options;
  options.visible_reads = true;
  auto tm = make("aggressive", options);
  EXPECT_EQ(tm->name(), "dstm+visible");

  auto reader = tm->begin();
  EXPECT_EQ(tm->read(*reader, 0).value(), 0u);
  EXPECT_EQ(reader->status(), core::TxStatus::kActive);

  auto writer = tm->begin();
  ASSERT_TRUE(tm->write(*writer, 0, 5));
  // With visible reads the writer's acquire sweep kills the reader at once
  // — no waiting for the reader's next validation.
  EXPECT_EQ(reader->status(), core::TxStatus::kAborted);
  ASSERT_TRUE(tm->try_commit(*writer));
  EXPECT_GE(tm->stats().victim_kills, 1u);
}

TEST(Dstm, VisibleReaderDeregistersOnCommit) {
  DstmOptions options;
  options.visible_reads = true;
  auto tm = make("aggressive", options);
  {
    auto reader = tm->begin();
    EXPECT_EQ(tm->read(*reader, 0).value(), 0u);
    ASSERT_TRUE(tm->try_commit(*reader));  // deregisters
  }
  auto writer = tm->begin();
  ASSERT_TRUE(tm->write(*writer, 0, 5));
  ASSERT_TRUE(tm->try_commit(*writer));
  // No stale registration: nothing to kill.
  EXPECT_EQ(tm->stats().victim_kills, 0u);
}

TEST(Dstm, VisibleReadsOverflowFallsBackToInvisible) {
  // More simultaneous readers than table slots: the overflowing ones must
  // still be correct via validation (they just are not killed early).
  DstmOptions options;
  options.visible_reads = true;
  auto tm = make("aggressive", options);
  std::vector<core::TxnPtr> readers;
  for (int i = 0; i < 12; ++i) {  // kReaderSlots is 8
    readers.push_back(tm->begin());
    EXPECT_EQ(tm->read(*readers.back(), 0).value(), 0u);
  }
  auto writer = tm->begin();
  ASSERT_TRUE(tm->write(*writer, 0, 9));
  ASSERT_TRUE(tm->try_commit(*writer));
  // Every reader — registered or overflowed — must now fail to commit.
  for (auto& r : readers) {
    EXPECT_FALSE(tm->try_commit(*r));
  }
}

TEST(Dstm, DescriptorOfExposesStatusWord) {
  auto tm = make();
  auto t1 = tm->begin();
  auto t2 = tm->begin();
  EXPECT_NE(HwDstm::descriptor_of(*t1), HwDstm::descriptor_of(*t2));
  EXPECT_NE(HwDstm::descriptor_of(*t1), nullptr);
  tm->try_abort(*t1);
  tm->try_abort(*t2);
}

TEST(Dstm, AbandonedTransactionIsAutoAborted) {
  auto tm = make();
  {
    auto txn = tm->begin();
    ASSERT_TRUE(tm->write(*txn, 5, 55));
    // Dropped without commit/abort: the handle's destructor must abort it
    // so the ownership is resolvable.
  }
  auto txn = tm->begin();
  EXPECT_EQ(tm->read(*txn, 5).value(), 0u);
  EXPECT_TRUE(tm->try_commit(*txn));
}

TEST(Dstm, ChurnDoesNotAccumulateRetiredGarbage) {
  // Locators/descriptors are retired through EBR; after quiescence and a
  // few reclaim passes the backlog must drain (leak hygiene under ASan).
  auto tm = make();
  for (int i = 0; i < 20000; ++i) {
    auto txn = tm->begin();
    (void)tm->read(*txn, static_cast<core::TVarId>(i % 16));
    (void)tm->write(*txn, static_cast<core::TVarId>((i + 1) % 16), i + 1);
    (void)tm->try_commit(*txn);
  }
  auto& mgr = runtime::EpochManager::global();
  for (int i = 0; i < 8; ++i) mgr.reclaim();
  EXPECT_LT(mgr.retired_count(), 1024u);
}

}  // namespace
}  // namespace oftm::dstm
