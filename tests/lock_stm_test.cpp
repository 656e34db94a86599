// Lock-family specifics: TL's encounter-time two-phase locking, TL2's
// global-clock validation, read-only fast path and commit-lock timeout,
// Coarse's undo rollback — the behaviours that make them the paper's
// comparison class.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "lock/coarse.hpp"
#include "lock/tl.hpp"
#include "lock/tl2.hpp"
#include "lock/versioned_lock.hpp"

namespace oftm::lock {
namespace {

TEST(LockWord, PackUnpackRoundTrip) {
  for (std::uint64_t version : {0ull, 1ull, 12345ull, (1ull << 62) - 1}) {
    for (bool locked : {false, true}) {
      const std::uint64_t w = LockWord::pack(version, locked);
      EXPECT_EQ(LockWord::version(w), version);
      EXPECT_EQ(LockWord::locked(w), locked);
    }
  }
}

TEST(Tl, EncounterLockBlocksSecondWriter) {
  HwTl tm(8, TlOptions{/*patience=*/4});
  auto t1 = tm.begin();
  ASSERT_TRUE(tm.write(*t1, 0, 11));  // t1 holds the encounter lock on 0

  auto t2 = tm.begin();
  // t2 spins out its patience and self-aborts: 2PL locks are irrevocable.
  EXPECT_FALSE(tm.write(*t2, 0, 22));
  EXPECT_EQ(t2->status(), core::TxStatus::kAborted);

  ASSERT_TRUE(tm.try_commit(*t1));
  EXPECT_EQ(tm.read_quiescent(0), 11u);

  auto t3 = tm.begin();
  ASSERT_TRUE(tm.write(*t3, 0, 33));  // lock released by t1's commit
  ASSERT_TRUE(tm.try_commit(*t3));
}

TEST(Tl, AbortReleasesEncounterLocks) {
  HwTl tm(8, TlOptions{4});
  auto t1 = tm.begin();
  ASSERT_TRUE(tm.write(*t1, 0, 11));
  tm.try_abort(*t1);
  auto t2 = tm.begin();
  ASSERT_TRUE(tm.write(*t2, 0, 22));  // lock free again, value rolled back
  ASSERT_TRUE(tm.try_commit(*t2));
  EXPECT_EQ(tm.read_quiescent(0), 22u);
}

TEST(Tl, AbandonedHandleReleasesLocks) {
  HwTl tm(8, TlOptions{4});
  {
    auto t1 = tm.begin();
    ASSERT_TRUE(tm.write(*t1, 0, 11));
    // dropped: destructor must roll back and unlock
  }
  auto t2 = tm.begin();
  ASSERT_TRUE(tm.write(*t2, 0, 22));
  ASSERT_TRUE(tm.try_commit(*t2));
}

TEST(Tl, ReaderSeesNoLockedIntermediateState) {
  HwTl tm(8, TlOptions{2});
  auto writer = tm.begin();
  ASSERT_TRUE(tm.write(*writer, 0, 50));  // locked, value NOT yet published
  auto reader = tm.begin();
  // Write-back design: the reader cannot read x while locked (self-aborts
  // after patience) — but it can never see the unpublished 50.
  const auto v = tm.read(*reader, 0);
  EXPECT_FALSE(v.has_value());
  ASSERT_TRUE(tm.try_commit(*writer));
  auto reader2 = tm.begin();
  EXPECT_EQ(tm.read(*reader2, 0).value(), 50u);
}

TEST(Tl, VersionBumpInvalidatesConcurrentReader) {
  HwTl tm(8, TlOptions{4});
  auto reader = tm.begin();
  EXPECT_EQ(tm.read(*reader, 0).value(), 0u);
  {
    auto writer = tm.begin();
    ASSERT_TRUE(tm.write(*writer, 0, 9));
    ASSERT_TRUE(tm.try_commit(*writer));
  }
  EXPECT_FALSE(tm.read(*reader, 1).has_value());  // revalidation fails
}

// Runs `check` on TL2 over both addressings: boxed slots and region words.
template <typename Check>
void on_both_addressings(Check check) {
  {
    SCOPED_TRACE("tl2");
    HwTl2 tm(8);
    check(tm);
  }
  {
    SCOPED_TRACE("tl2-region");
    Tl2Region tm(8);
    check(tm);
  }
}

TEST(Tl2, ReadOnlyFastPathCommitsWithoutLocks) {
  on_both_addressings([](auto& tm) {
    {
      auto w = tm.begin();
      ASSERT_TRUE(tm.write(*w, 0, 1));
      ASSERT_TRUE(tm.try_commit(*w));
    }
    auto r = tm.begin();
    EXPECT_EQ(tm.read(*r, 0).value(), 1u);
    EXPECT_EQ(tm.read(*r, 1).value(), 0u);
    EXPECT_TRUE(tm.try_commit(*r));
    // No writes: the commit must not have bumped any version.
    auto r2 = tm.begin();
    EXPECT_EQ(tm.read(*r2, 0).value(), 1u);
    EXPECT_TRUE(tm.try_commit(*r2));
  });
}

TEST(Tl2, StaleReadVersionAborts) {
  on_both_addressings([](auto& tm) {
    auto old_txn = tm.begin();  // rv captured now
    {
      auto w = tm.begin();
      ASSERT_TRUE(tm.write(*w, 0, 42));
      ASSERT_TRUE(tm.try_commit(*w));  // version of x now exceeds old rv
    }
    EXPECT_FALSE(tm.read(*old_txn, 0).has_value());
    EXPECT_EQ(old_txn->status(), core::TxStatus::kAborted);
  });
}

TEST(Tl2, WriteSetLockedInCanonicalOrder) {
  // Two transactions with reversed write orders must not deadlock (commit
  // locks sort by lock key); sequential here, stress covers the concurrent
  // case.
  on_both_addressings([](auto& tm) {
    auto t1 = tm.begin();
    ASSERT_TRUE(tm.write(*t1, 3, 1));
    ASSERT_TRUE(tm.write(*t1, 1, 2));
    ASSERT_TRUE(tm.try_commit(*t1));
    auto t2 = tm.begin();
    ASSERT_TRUE(tm.write(*t2, 1, 3));
    ASSERT_TRUE(tm.write(*t2, 3, 4));
    ASSERT_TRUE(tm.try_commit(*t2));
    EXPECT_EQ(tm.read_quiescent(1), 3u);
    EXPECT_EQ(tm.read_quiescent(3), 4u);
  });
}

TEST(Tl2, CommitValidatesReadSet) {
  on_both_addressings([](auto& tm) {
    auto txn = tm.begin();
    EXPECT_EQ(tm.read(*txn, 0).value(), 0u);
    ASSERT_TRUE(tm.write(*txn, 1, 5));
    {
      auto w = tm.begin();
      ASSERT_TRUE(tm.write(*w, 0, 7));
      ASSERT_TRUE(tm.try_commit(*w));
    }
    EXPECT_FALSE(tm.try_commit(*txn));  // read of x is stale
    EXPECT_EQ(tm.read_quiescent(1), 0u);
  });
}

// The commit-lock timeout: a committer that still finds a lock held after
// kTl2LockPatience spins gives back the locks it took, at their pre-lock
// versions, and aborts under lock_timeout.
TEST(Tl2, CommitLockTimeoutRestoresTakenLocks) {
  on_both_addressings([](auto& tm) {
    auto& mem = tm.memory();
    const std::uint32_t k0 = mem.meta_key(mem.loc(0));
    const std::uint32_t k1 = mem.meta_key(mem.loc(1));
    ASSERT_NE(k0, k1);
    // Locks are taken in ascending key order: the committer takes `first`,
    // then spins on `held`.
    auto& first = mem.meta(std::min(k0, k1));
    auto& held = mem.meta(std::max(k0, k1));
    const std::uint64_t first_word = first.load();
    const std::uint64_t free_word = held.load();
    const std::uint64_t held_word =
        LockWord::pack(LockWord::version(free_word), true);
    held.store(held_word);

    auto txn = tm.begin();
    ASSERT_TRUE(tm.write(*txn, 0, 10));
    ASSERT_TRUE(tm.write(*txn, 1, 11));
    EXPECT_FALSE(tm.try_commit(*txn));
    const runtime::TxStats s = tm.stats();
    EXPECT_EQ(s.aborts, 1u);
    EXPECT_EQ(s.abort_reason[static_cast<std::size_t>(
                  obs::AbortReason::kLockTimeout)],
              1u);
    EXPECT_EQ(s.cm_backoffs, static_cast<std::uint64_t>(kTl2LockPatience));
    EXPECT_EQ(first.load(), first_word);
    EXPECT_EQ(held.load(), held_word);

    held.store(free_word);
    auto retry = tm.begin();
    ASSERT_TRUE(tm.write(*retry, 0, 10));
    ASSERT_TRUE(tm.write(*retry, 1, 11));
    EXPECT_TRUE(tm.try_commit(*retry));
    EXPECT_EQ(tm.read_quiescent(0), 10u);
    EXPECT_EQ(tm.read_quiescent(1), 11u);
  });
}

TEST(Tl2, RvExtensionRescuesStaleReader) {
  Tl2Options options;
  options.rv_extension = true;
  HwTl2 tm(8, options);
  EXPECT_EQ(tm.name(), "tl2+ext");
  auto old_txn = tm.begin();  // rv captured now
  EXPECT_EQ(tm.read(*old_txn, 1).value(), 0u);  // touch an unrelated var
  {
    auto w = tm.begin();
    ASSERT_TRUE(tm.write(*w, 0, 42));
    ASSERT_TRUE(tm.try_commit(*w));  // clock moves past old rv
  }
  // Base TL2 would abort here (version of x exceeds rv); with extension the
  // read set (just x1, untouched) revalidates and rv advances.
  EXPECT_EQ(tm.read(*old_txn, 0).value(), 42u);
  EXPECT_TRUE(tm.try_commit(*old_txn));
}

TEST(Tl2, RvExtensionRefusesInvalidSnapshot) {
  Tl2Options options;
  options.rv_extension = true;
  HwTl2 tm(8, options);
  auto old_txn = tm.begin();
  EXPECT_EQ(tm.read(*old_txn, 0).value(), 0u);  // will be overwritten
  {
    auto w = tm.begin();
    ASSERT_TRUE(tm.write(*w, 0, 7));
    ASSERT_TRUE(tm.write(*w, 1, 8));
    ASSERT_TRUE(tm.try_commit(*w));
  }
  // Extension must fail: x0 itself changed, the snapshot is genuinely
  // stale, and reading x1 = 8 next to x0 = 0 would be inconsistent.
  EXPECT_FALSE(tm.read(*old_txn, 1).has_value());
  EXPECT_EQ(old_txn->status(), core::TxStatus::kAborted);
}

TEST(Coarse, UndoLogRollsBackInPlaceWrites) {
  HwCoarse tm(8);
  {
    auto setup = tm.begin();
    ASSERT_TRUE(tm.write(*setup, 0, 1));
    ASSERT_TRUE(tm.write(*setup, 1, 2));
    ASSERT_TRUE(tm.try_commit(*setup));
  }
  auto txn = tm.begin();
  ASSERT_TRUE(tm.write(*txn, 0, 100));
  ASSERT_TRUE(tm.write(*txn, 1, 200));
  ASSERT_TRUE(tm.write(*txn, 0, 300));  // double write: undo in order
  tm.try_abort(*txn);
  EXPECT_EQ(tm.read_quiescent(0), 1u);
  EXPECT_EQ(tm.read_quiescent(1), 2u);
}

TEST(Coarse, AbandonedHandleReleasesGlobalLock) {
  HwCoarse tm(8);
  {
    auto txn = tm.begin();
    ASSERT_TRUE(tm.write(*txn, 0, 5));
    // dropped while holding the global lock
  }
  auto txn = tm.begin();  // would deadlock if the lock leaked
  EXPECT_TRUE(tm.try_commit(*txn));
}

}  // namespace
}  // namespace oftm::lock
