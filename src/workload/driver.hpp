// Multi-threaded workload driver: generates transactional workloads against
// any TM, measures throughput/abort behaviour and per-transaction commit
// latency, and (optionally) enforces the unique-writes discipline plus an
// invariant the checkers can verify afterwards.
//
// Scaling design: each worker owns a cache-line-isolated arena (its
// pre-generated access lists, its RunResult counters, its latency
// histograms and, when the run is traced, its trace spans). The hot path
// touches only that arena; results are flushed into the shared aggregate
// exactly once, at run end, so driver overhead stays flat as thread
// counts grow.
//
// Execution tiers: the measured loop runs on the pooled-session hot tier —
// each worker begins every transaction on its own TmSession, so after
// warm-up a transaction costs zero allocations and (when `run_workload` is
// instantiated with a concrete backend type via workload::visit_tm) no
// virtual dispatch either. The `core::TransactionalMemory&` overload keeps
// the fully type-erased path for wrappers like the history recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/tm.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "runtime/assert.hpp"
#include "runtime/barrier.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/stats.hpp"
#include "runtime/topology.hpp"
#include "runtime/xorshift.hpp"
#include "workload/zipf.hpp"

namespace oftm::workload {

enum class AccessPattern {
  kUniform,      // uniform random t-variables
  kZipf,         // skewed (s = zipf_s)
  kPartitioned,  // thread i only touches its own t-variable partition
                 // (fully disjoint transactions: the strict-DAP best case)
};

struct WorkloadConfig {
  int threads = 4;
  std::uint64_t tx_per_thread = 10000;
  // Duration-based run mode: when > 0, each worker keeps generating
  // transactions until this much wall time has elapsed after the start
  // barrier, and tx_per_thread is ignored. The mode long soaks and
  // time-bounded bench sweeps use; 0 (default) keeps the exact
  // tx-count-per-thread semantics the accounting tests rely on.
  double run_seconds = 0;
  int ops_per_tx = 8;
  double write_fraction = 0.2;  // probability an op is a write
  // Mixed-regime knobs, so one sweep covers the paper's contended and
  // uncontended regimes at once:
  //  * read_only_fraction — probability a whole transaction is read-only
  //    (its ops ignore write_fraction). The ReadMostly regime at 0.8+.
  //  * hot_op_fraction / hot_set_size — per-op probability of redirecting
  //    the access into the first hot_set_size t-variables (a HotSpot
  //    overlay on any base pattern). hot_set_size == 0 defaults to
  //    max(1, num_tvars / 64).
  double read_only_fraction = 0.0;
  double hot_op_fraction = 0.0;
  std::size_t hot_set_size = 0;
  AccessPattern pattern = AccessPattern::kUniform;
  double zipf_s = 0.99;
  std::uint64_t seed = 42;
  int max_retries = 1'000'000;  // per transaction before giving up
  bool pin_threads = true;
};

// t-variable range [base, base + size) owned by thread t under
// AccessPattern::kPartitioned. The remainder when n is not a multiple of
// threads is folded into the last partition so the union always covers
// [0, n) exactly.
struct PartitionBounds {
  std::size_t base = 0;
  std::size_t size = 0;
};
PartitionBounds partition_bounds(std::size_t num_tvars, int threads,
                                 int thread);

// Structured per-run report. Per-worker instances accumulate privately
// during the run and are merged (merge_from) into the returned aggregate
// after the workers join.
struct RunResult {
  double seconds = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted_attempts = 0;
  std::uint64_t gave_up = 0;  // transactions that hit max_retries
  // Wall time from a logical transaction's first begin() to its successful
  // commit, retries included, in nanoseconds. count() == committed.
  runtime::Log2Histogram commit_latency_ns;
  // Aborted attempts a committed transaction burned before succeeding
  // (0 == first-try commit). count() == committed.
  runtime::Log2Histogram retries_per_commit;
  // Commits per worker, in thread order — the per-thread skew the fairness
  // analysis reads (a starved worker shows up as a small entry).
  std::vector<std::uint64_t> per_thread_committed;
  runtime::TxStats tm_stats;

  double throughput() const {
    return seconds > 0 ? static_cast<double>(committed) / seconds : 0.0;
  }
  // Worker flush: concatenates o's per-thread entries after this one's
  // (the callers in driver.cpp merge workers in thread order). Does not
  // touch seconds/tm_stats — those are whole-run properties the driver
  // fills in once.
  void merge_from(const RunResult& o);
  // Fold a later run of the same configuration (e.g. another benchmark
  // iteration) into this one: counters and histograms add, seconds
  // extends, per-thread commits add element-wise so entry i stays "worker
  // i" across iterations, tm_stats accumulates.
  void accumulate_run(const RunResult& o);
  std::string to_string() const;
};

namespace detail {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Unique-writes discipline: no two writes anywhere produce the same value,
// and no write produces the initial value 0.
inline core::Value unique_value(int thread, std::uint64_t counter) {
  return (static_cast<core::Value>(thread + 1) << 40) | (counter + 1);
}

inline constexpr int kMaxOpsPerTx = 64;

// One pre-generated logical transaction: its access list plus a write
// bitmask (bit k set == op k is a read-modify-write).
struct TxSpec {
  core::TVarId vars[kMaxOpsPerTx];
  std::uint64_t write_mask = 0;
};

// Number of pre-generated transaction specs each worker cycles through
// (count mode with fewer transactions allocates only tx_per_thread). Large
// enough that recycling does not visibly narrow the access distribution,
// small enough that a worker's spec ring (1024 * 520 B ≈ 0.5 MiB) stays
// cache-resident instead of evicting the TM's own metadata.
inline constexpr std::size_t kArenaSpecs = 1024;

// Everything a worker touches on the hot path, isolated on its own cache
// line(s): pre-generated access lists, private result counters and
// histograms, and one span per attempt when the run is traced. No shared
// writes until flush at run end.
struct alignas(runtime::kCacheLineSize) WorkerArena {
  std::vector<TxSpec> specs;
  RunResult local;
  obs::SpanRing spans;  // sized only when the run is traced
};

// Draw the access lists for one worker into its arena, before the start
// barrier, so generation cost (PRNG, zipf rejection sampling) is entirely
// off the measured path and patterns stay reproducible per (seed, thread).
void pregenerate_specs(WorkerArena& arena, const WorkloadConfig& config,
                       std::size_t n, int t);

// The measured loop, templated over the TM type: with a concrete backend
// (final class) every session/read/write/commit call devirtualizes and
// inlines; with Tm = core::TransactionalMemory this is the portable
// virtual-dispatch path. Either way every transaction runs on the
// worker's pooled session — no per-transaction allocations.
template <typename Tm>
RunResult run_workload_impl(Tm& tm, const WorkloadConfig& config) {
  OFTM_ASSERT(config.threads >= 1);
  const std::size_t n = tm.num_tvars();
  OFTM_ASSERT(n >= static_cast<std::size_t>(config.threads));

  runtime::SpinBarrier barrier(static_cast<std::uint32_t>(config.threads) + 1);
  std::vector<std::thread> workers;
  std::vector<WorkerArena> arenas(static_cast<std::size_t>(config.threads));
#if OFTM_OBS
  // A run is traced iff $OFTM_TRACE_FILE names a file as it starts.
  const std::string trace_path = obs::trace_file();
#endif

  for (int t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t] {
      if (config.pin_threads) runtime::pin_current_thread(t);
      WorkerArena& arena = arenas[static_cast<std::size_t>(t)];
      pregenerate_specs(arena, config, n, t);
      RunResult& mine = arena.local;
      // The worker's pooled session: one reusable descriptor for every
      // transaction (and retry) this thread runs.
      core::TmSession& session = tm.this_thread_session();
      // Per-op write decisions are baked into the specs; the value counter
      // is the only generation state left on the hot path.
      std::uint64_t value_counter = 0;
#if OFTM_OBS
      // Sized before the start barrier, so recording a span is a plain
      // store into the arena; untraced, the measured loop pays one
      // untaken branch per attempt.
      const bool tracing = !trace_path.empty();
      if (tracing) arena.spans.reserve();
#endif

      barrier.arrive_and_wait();

      const bool timed = config.run_seconds > 0;
      const auto deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(config.run_seconds));
      const int ops =
          config.ops_per_tx <= kMaxOpsPerTx ? config.ops_per_tx : kMaxOpsPerTx;
      const std::size_t spec_count = arena.specs.size();

      for (std::uint64_t i = 0; timed || i < config.tx_per_thread; ++i) {
        // The per-transaction latency timestamp doubles as the duration-mode
        // deadline check — no extra clock reads on the hot path.
        const auto tx_start = Clock::now();
        if (timed && tx_start >= deadline) break;
        // Cycle the pre-generated access lists; retries replay the same
        // accesses (it is the same transaction restarted).
        const TxSpec& spec = arena.specs[i % spec_count];

        bool done = false;
        bool expired = false;
        int attempt = 0;
        for (; attempt < config.max_retries && !done; ++attempt) {
          // In duration mode the retry loop must also honour the deadline:
          // a hot-key transaction can otherwise spin through max_retries
          // (seconds of wall time) long after the budget ran out.
          if (timed && (attempt & 0xFF) == 0xFF && Clock::now() >= deadline) {
            expired = true;
            break;
          }
#if OFTM_OBS
          const std::uint64_t span_start = tracing ? obs::now_ticks() : 0;
#endif
          core::Transaction& txn = tm.begin(session);
          bool ok = true;
          for (int k = 0; k < ops && ok; ++k) {
            if ((spec.write_mask >> k) & 1) {
              // Read-modify-write discipline: every write is preceded by a
              // read of the same t-variable. Besides being the realistic
              // access shape, it lets the history checker reconstruct
              // per-variable version orders exactly (see
              // history/checker.hpp).
              ok = tm.read(txn, spec.vars[k]).has_value() &&
                   tm.write(txn, spec.vars[k],
                            unique_value(t, value_counter++));
            } else {
              ok = tm.read(txn, spec.vars[k]).has_value();
            }
          }
          if (ok && tm.try_commit(txn)) {
            ++mine.committed;
            mine.commit_latency_ns.record(ns_between(tx_start, Clock::now()));
            mine.retries_per_commit.record(static_cast<std::uint64_t>(attempt));
            done = true;
          } else {
            ++mine.aborted_attempts;
          }
#if OFTM_OBS
          if (tracing) {
            // An abort span carries the reason the backend noted when it
            // counted this thread's most recent abort.
            arena.spans.record(
                {span_start, obs::now_ticks() - span_start, i,
                 static_cast<std::uint32_t>(attempt), done,
                 done ? obs::AbortReason{} : obs::last_abort_reason()});
          }
#endif
        }
        // Expired mid-retry: the unfinished logical transaction is simply
        // abandoned (its failed attempts are already counted in
        // aborted_attempts; no TM transaction is live here). It is not a
        // gave_up — it never exhausted max_retries.
        if (expired) break;
        if (!done) ++mine.gave_up;
      }
      barrier.arrive_and_wait();
    });
  }

  barrier.arrive_and_wait();
  const auto start = Clock::now();
  barrier.arrive_and_wait();
  const auto stop = Clock::now();
  for (auto& w : workers) w.join();

  // Single flush point: per-worker arenas merge into the aggregate only
  // after every worker has passed the end barrier.
  RunResult total;
  total.seconds = seconds_between(start, stop);
  for (WorkerArena& arena : arenas) {
    arena.local.per_thread_committed.assign(1, arena.local.committed);
    total.merge_from(arena.local);
  }
  total.tm_stats = tm.stats();
#if OFTM_OBS
  // The run's spans join the process's trace document, and the file is
  // rewritten with all of it.
  if (!trace_path.empty()) {
    std::vector<const obs::SpanRing*> rings;
    for (const WorkerArena& arena : arenas) rings.push_back(&arena.spans);
    obs::append_trace(trace_path, tm.name(), rings);
  }
#endif
  return total;
}

}  // namespace detail

// Run the configured workload to completion. Written values follow the
// unique-writes discipline (value = (thread+1) << 40 | counter), so recorded
// histories can be checked with history::check_mvsg.
RunResult run_workload(core::TransactionalMemory& tm,
                       const WorkloadConfig& config);

// Same loop with the TM's concrete type visible to the compiler: backends
// are final classes, so session/begin/read/write/try_commit devirtualize
// and inline. Pair with workload::visit_tm to go from a recipe name to
// this overload.
template <typename Tm>
RunResult run_workload(Tm& tm, const WorkloadConfig& config) {
  return detail::run_workload_impl(tm, config);
}

// Transfer workload preserving a checkable invariant: `accounts` t-vars
// each start with `initial_balance`; every transaction moves a random
// amount between two accounts. After the run, the sum of balances must be
// accounts * initial_balance. Returns false (in *invariant_ok) on violation.
// pin_threads defaults like WorkloadConfig; pass false for oversubscribed
// runs (threads > cores).
RunResult run_bank_workload(core::TransactionalMemory& tm, int threads,
                            std::uint64_t tx_per_thread, std::size_t accounts,
                            core::Value initial_balance, std::uint64_t seed,
                            bool* invariant_ok, bool pin_threads = true);

}  // namespace oftm::workload
