// Tests for the history framework: recording, well-formedness, and both
// correctness checkers (MVSG and exhaustive Definition-1 search), validated
// against hand-constructed serializable and non-serializable histories —
// including the exact history from the paper's Theorem 13 proof (Figure 2),
// which must be rejected.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "history/checker.hpp"
#include "history/event.hpp"
#include "history/recorder.hpp"
#include "workload/driver.hpp"
#include "workload/factory.hpp"

namespace oftm::history {
namespace {

// Tiny DSL for building digested transactions directly.
struct TxBuilder {
  TxRecord rec;
  std::uint64_t seq;

  TxBuilder(core::TxId id, int pid, std::uint64_t start) : seq(start) {
    rec.id = id;
    rec.pid = pid;
    rec.first_seq = start;
    rec.last_seq = start;
  }
  TxBuilder& read(core::TVarId x, core::Value v) {
    TxOp op;
    op.op = OpType::kRead;
    op.tvar = x;
    op.result = v;
    op.inv_seq = ++seq;
    op.resp_seq = ++seq;
    rec.ops.push_back(op);
    rec.last_seq = seq;
    return *this;
  }
  TxBuilder& write(core::TVarId x, core::Value v) {
    TxOp op;
    op.op = OpType::kWrite;
    op.tvar = x;
    op.arg = v;
    op.inv_seq = ++seq;
    op.resp_seq = ++seq;
    rec.ops.push_back(op);
    rec.last_seq = seq;
    return *this;
  }
  TxRecord commit() {
    rec.final_status = core::TxStatus::kCommitted;
    rec.last_seq = ++seq;
    return rec;
  }
  TxRecord abort() {
    rec.final_status = core::TxStatus::kAborted;
    rec.last_seq = ++seq;
    return rec;
  }
};

TEST(Mvsg, AcceptsSequentialHistory) {
  std::vector<TxRecord> txns;
  txns.push_back(TxBuilder(1, 0, 0).write(0, 10).commit());
  txns.push_back(TxBuilder(2, 1, 100).read(0, 10).write(1, 20).commit());
  txns.push_back(TxBuilder(3, 0, 200).read(1, 20).commit());
  EXPECT_TRUE(check_mvsg(txns).ok);
  MvsgOptions strict;
  strict.respect_real_time = true;
  strict.include_aborted_readers = true;
  EXPECT_TRUE(check_mvsg(txns, strict).ok);
}

TEST(Mvsg, AcceptsSerializableInterleavingAgainstRealTime) {
  // T1 and T2 overlap; T2 commits first but T1 read the initial value of x
  // before T2's write: order T1 < T2 is legal. Without real-time edges this
  // passes even though T2's commit comes first.
  std::vector<TxRecord> txns;
  TxBuilder t1(1, 0, 0);
  t1.read(0, 0);
  TxBuilder t2(2, 1, 10);
  t2.seq = 20;
  txns.push_back(t2.write(0, 5).commit());  // commits at ~23
  t1.seq = 50;
  txns.push_back(t1.read(1, 0).commit());   // still sees old values
  EXPECT_TRUE(check_mvsg(txns).ok);
}

TEST(Mvsg, RejectsNonSerializableWriteSkew) {
  // Classic cycle: T1 reads x then writes y; T2 reads y then writes x; both
  // read initial 0 and both commit — no sequential order explains it if
  // each should have seen the other's write... here each MUST precede the
  // other through anti-dependencies.
  std::vector<TxRecord> txns;
  txns.push_back(TxBuilder(1, 0, 0).read(0, 0).write(1, 11).commit());
  txns.push_back(TxBuilder(2, 1, 1).read(1, 0).write(0, 22).commit());
  // Serializable? T1 reads x=0 (ok before T2), T1 writes y; T2 read y=0
  // must precede T1's write: T2 < T1. And T1 < T2 by T1's read of x=0?
  // x=0 read only requires T1 before T2's write — contradiction.
  EXPECT_FALSE(check_mvsg(txns).ok);
}

TEST(Mvsg, RejectsReadOfNeverWrittenValue) {
  std::vector<TxRecord> txns;
  txns.push_back(TxBuilder(1, 0, 0).read(0, 999).commit());
  const auto r = check_mvsg(txns);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no committed transaction wrote"), std::string::npos);
}

TEST(Mvsg, RejectsInconsistentRepeatedReads) {
  std::vector<TxRecord> txns;
  txns.push_back(TxBuilder(1, 0, 0).write(0, 7).commit());
  txns.push_back(TxBuilder(2, 1, 100).read(0, 0).read(0, 7).commit());
  EXPECT_FALSE(check_mvsg(txns).ok);
}

TEST(Mvsg, AbortedReaderConsistencyOnlyUnderOpacity) {
  // An aborted transaction saw an impossible snapshot (x and y written
  // together atomically, but it saw one new and one old). Serializability
  // (committed-only) accepts; opacity mode rejects.
  std::vector<TxRecord> txns;
  txns.push_back(TxBuilder(1, 0, 0).write(0, 1).write(1, 2).commit());
  TxBuilder bad(2, 1, 100);
  bad.read(0, 1);   // new value of x
  txns.push_back(bad.read(1, 0).abort());  // old value of y: inconsistent
  EXPECT_TRUE(check_mvsg(txns).ok);
  MvsgOptions opaque;
  opaque.respect_real_time = true;
  opaque.include_aborted_readers = true;
  EXPECT_FALSE(check_mvsg(txns, opaque).ok);
}

TEST(Mvsg, RealTimeOrderViolationDetected) {
  // T1 completes strictly before T2 starts, yet T2 reads the pre-T1 value:
  // fine for plain serializability (order T2 < T1), illegal when real-time
  // order must be preserved.
  std::vector<TxRecord> txns;
  txns.push_back(TxBuilder(1, 0, 0).write(0, 5).commit());       // [0, ~4]
  txns.push_back(TxBuilder(2, 1, 100).read(0, 0).commit());      // starts at 100
  EXPECT_TRUE(check_mvsg(txns).ok);
  MvsgOptions strict;
  strict.respect_real_time = true;
  EXPECT_FALSE(check_mvsg(txns, strict).ok);
}

// The Figure 2 history (Theorem 13's contradiction): T1 reads w=0, z=0 and
// writes x=1, y=1; T2 reads x=0 and writes w=1; T3 reads y=1 and writes
// z=1; all three commit. The paper shows no sequential legal order exists.
TEST(Mvsg, RejectsFigure2History) {
  std::vector<TxRecord> txns;
  txns.push_back(TxBuilder(1, 0, 0)
                     .read(/*w*/ 2, 0)
                     .read(/*z*/ 3, 0)
                     .write(/*x*/ 0, 1)
                     .write(/*y*/ 1, 1)
                     .commit());
  txns.push_back(TxBuilder(2, 1, 100).read(0, 0).write(2, 1).commit());
  txns.push_back(TxBuilder(3, 2, 200).read(1, 1).write(3, 1).commit());
  EXPECT_FALSE(check_mvsg(txns).ok);
  EXPECT_FALSE(check_exhaustive_serializability(txns).ok);
}

// The "good" variant of Figure 2: if T3 reads y = 0 instead (what a correct
// OFTM forces), the history is serializable as T2, T3, T1.
TEST(Mvsg, AcceptsFigure2CorrectedHistory) {
  std::vector<TxRecord> txns;
  txns.push_back(TxBuilder(1, 0, 0)
                     .read(2, 0)
                     .read(3, 0)
                     .write(0, 1)
                     .write(1, 1)
                     .commit());
  txns.push_back(TxBuilder(2, 1, 100).read(0, 0).write(2, 1).commit());
  txns.push_back(TxBuilder(3, 2, 200).read(1, 0).write(3, 1).commit());
  // Wait: T1 read w=0 and z=0 but T2 wrote w=1, T3 wrote z=1. Order
  // T1 < T2 < T3 works: T1 sees initial w, z; T2 sees x... T2 read x=0 but
  // T1 wrote x=1 before it — contradiction unless T2 < T1. Then T2 < T1,
  // T1 reads w=0 => T1 < T2. Cycle! So even the corrected T3 read does not
  // save the *whole* history unless T1 aborts. Model what DSTM actually
  // produces: T1 is forcefully aborted.
  txns[0].final_status = core::TxStatus::kAborted;
  EXPECT_TRUE(check_mvsg(txns).ok);
  EXPECT_TRUE(check_exhaustive_serializability(txns).ok);
}

TEST(Exhaustive, AgreesWithMvsgOnSmallHistories) {
  std::vector<TxRecord> good;
  good.push_back(TxBuilder(1, 0, 0).write(0, 1).commit());
  good.push_back(TxBuilder(2, 1, 50).read(0, 1).write(1, 2).commit());
  EXPECT_TRUE(check_exhaustive_serializability(good).ok);

  std::vector<TxRecord> bad;
  bad.push_back(TxBuilder(1, 0, 0).read(0, 0).write(1, 11).commit());
  bad.push_back(TxBuilder(2, 1, 1).read(1, 0).write(0, 22).commit());
  EXPECT_FALSE(check_exhaustive_serializability(bad).ok);
}

TEST(Exhaustive, CommitPendingMayCommitOrNot) {
  // A commit-pending transaction whose write was observed must be treated
  // as committed in some commit-completion (Definition 1).
  TxBuilder pending(1, 0, 0);
  TxRecord p = pending.write(0, 5).commit();
  p.final_status = core::TxStatus::kActive;
  p.commit_pending = true;
  std::vector<TxRecord> txns;
  txns.push_back(p);
  txns.push_back(TxBuilder(2, 1, 100).read(0, 5).commit());
  EXPECT_TRUE(check_exhaustive_serializability(txns).ok);

  // And one whose write contradicts the rest must be completable by NOT
  // committing it.
  TxRecord q = p;
  q.id = 3;
  q.ops[0].arg = 999;  // write 999 that nobody may see
  std::vector<TxRecord> txns2;
  txns2.push_back(q);
  txns2.push_back(TxBuilder(4, 1, 100).read(0, 0).commit());
  EXPECT_TRUE(check_exhaustive_serializability(txns2).ok);
}

TEST(Recorder, ProducesWellFormedHistories) {
  Recorder rec;
  Event inv;
  inv.kind = Event::Kind::kInvoke;
  inv.tx = 1;
  inv.pid = 0;
  inv.op = OpType::kRead;
  inv.tvar = 0;
  rec.record(inv);
  Event resp = inv;
  resp.kind = Event::Kind::kResponse;
  resp.result = 0;
  rec.record(resp);
  EXPECT_EQ(rec.check_well_formed(), "");

  // A second invocation without a response is ill-formed.
  rec.record(inv);
  Event inv2 = inv;
  inv2.op = OpType::kWrite;
  rec.record(inv2);
  EXPECT_NE(rec.check_well_formed(), "");
}

TEST(Recorder, DigestsTransactions) {
  Recorder rec;
  auto op = [&](core::TxId tx, OpType t, core::TVarId x, core::Value arg,
                core::Value result, bool aborted) {
    Event inv;
    inv.kind = Event::Kind::kInvoke;
    inv.tx = tx;
    inv.pid = 0;
    inv.op = t;
    inv.tvar = x;
    inv.arg = arg;
    rec.record(inv);
    Event resp = inv;
    resp.kind = Event::Kind::kResponse;
    resp.result = result;
    resp.aborted = aborted;
    rec.record(resp);
  };
  op(1, OpType::kWrite, 0, 42, 0, false);
  op(1, OpType::kTryCommit, core::kInvalidTVar, 0, 0, false);
  op(2, OpType::kRead, 0, 0, 42, false);
  op(2, OpType::kTryAbort, core::kInvalidTVar, 0, 0, true);

  const auto txns = rec.transactions();
  ASSERT_EQ(txns.size(), 2u);
  EXPECT_TRUE(txns[0].committed());
  EXPECT_EQ(txns[0].ops.size(), 2u);
  EXPECT_TRUE(txns[1].aborted());
  EXPECT_TRUE(txns[1].requested_abort);
  EXPECT_FALSE(txns[1].forcefully_aborted());
  EXPECT_TRUE(txns[0].precedes(txns[1]) ||
              txns[0].last_seq > txns[1].first_seq);
}

// Four threads record past a chunk boundary. The snapshot holds every
// event exactly once, numbered 1..n in order, with each thread's events in
// its program order; clear() empties the log and restarts the numbering.
TEST(Recorder, ChunkedLogKeepsEveryEventOnceInSeqOrder) {
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = Recorder::kChunkEvents / kThreads + 1000;
  Recorder rec;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      Event e;
      e.pid = t;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        e.tx = i;
        rec.record(e);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<Event> events = rec.events();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  ASSERT_GT(events.size(), Recorder::kChunkEvents);
  // The next tx each pid must show: a lost, repeated or reordered event
  // breaks its pid's run.
  std::vector<core::TxId> next(kThreads, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    ASSERT_EQ(e.seq, i + 1);
    ASSERT_EQ(e.tx, next[static_cast<std::size_t>(e.pid)]++)
        << "pid " << e.pid << " at seq " << e.seq;
  }
  for (const core::TxId n : next) EXPECT_EQ(n, kPerThread);

  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.record(Event{}), 1u);
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events().front().seq, 1u);
}

// Every field of every digested record, in order: equal strings mean
// identical digests.
std::string describe(const std::vector<TxRecord>& txns) {
  std::string out;
  for (const TxRecord& r : txns) {
    out += std::to_string(r.id) + " p" + std::to_string(r.pid) + " s" +
           std::to_string(static_cast<int>(r.final_status)) +
           (r.requested_abort ? " tryA" : "") +
           (r.commit_pending ? " pending" : "") + " [" +
           std::to_string(r.first_seq) + "," + std::to_string(r.last_seq) +
           "]:";
    for (const TxOp& op : r.ops) {
      out += " " + std::string(to_string(op.op)) + "(" +
             std::to_string(op.tvar) + "," + std::to_string(op.arg) + "," +
             std::to_string(op.result) + (op.aborted ? ",A" : "") + ")@" +
             std::to_string(op.inv_seq) + "-" + std::to_string(op.resp_seq);
    }
    out += "\n";
  }
  return out;
}

TEST(Recorder, WorkerCountNeverChangesDigestOrDiagnostic) {
  auto tm = workload::make_tm("tl2", 16);
  Recorder rec;
  RecordingTm recorded(*tm, rec);
  workload::WorkloadConfig config;
  config.threads = 4;
  config.tx_per_thread = 100;
  config.ops_per_tx = 4;
  config.write_fraction = 0.5;
  config.seed = 0x5EED;
  (void)workload::run_workload(recorded, config);
  std::vector<Event> events = rec.events();
  ASSERT_GT(events.size(), 1000u);

  const std::string digest = describe(Recorder::transactions(events));
  for (const int workers : {1, 2, 8}) {
    EXPECT_EQ(describe(Recorder::transactions(events, workers)), digest)
        << workers << " workers";
    EXPECT_EQ(Recorder::check_well_formed(events, workers), "")
        << workers << " workers";
  }

  // Malform the history at one event per pid, each a different kind of
  // error, at increasing seqs: whichever worker owns the earliest one, its
  // diagnostic must win.
  std::vector<std::string> expected;
  std::vector<int> broken_pids;
  for (std::size_t i = events.size() / 4; i < events.size(); ++i) {
    Event& e = events[i];
    if (e.kind != Event::Kind::kResponse) continue;
    bool seen = false;
    for (const int pid : broken_pids) seen = seen || pid == e.pid;
    if (seen) continue;
    const std::string at = " at pid " + std::to_string(e.pid);
    switch (broken_pids.size() % 2) {
      case 0:
        e.op = e.op == OpType::kRead ? OpType::kWrite : OpType::kRead;
        expected.push_back("response does not match invocation" + at);
        break;
      case 1:
        e.kind = Event::Kind::kInvoke;
        expected.push_back("invocation while an operation is pending" + at);
        break;
    }
    broken_pids.push_back(e.pid);
  }
  ASSERT_GE(broken_pids.size(), 2u);

  const std::string malformed_digest =
      describe(Recorder::transactions(events));
  for (const int workers : {1, 2, 8}) {
    EXPECT_EQ(Recorder::check_well_formed(events, workers), expected.front())
        << workers << " workers";
    EXPECT_EQ(describe(Recorder::transactions(events, workers)),
              malformed_digest)
        << workers << " workers";
  }
}

}  // namespace
}  // namespace oftm::history
