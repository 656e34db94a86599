#include "workload/driver.hpp"

#include <cstdio>

namespace oftm::workload {

namespace detail {

void pregenerate_specs(WorkerArena& arena, const WorkloadConfig& config,
                       std::size_t n, int t) {
  runtime::Xoshiro256 rng(runtime::mix64(config.seed * 1000003 +
                                         static_cast<std::uint64_t>(t)));
  ZipfSampler zipf(n, config.zipf_s,
                   runtime::mix64(config.seed ^ (t * 7919 + 13)));
  const PartitionBounds part = partition_bounds(n, config.threads, t);
  const std::size_t hot_n =
      config.hot_set_size > 0
          ? (config.hot_set_size < n ? config.hot_set_size : n)
          : (n / 64 > 0 ? n / 64 : 1);

  const bool timed = config.run_seconds > 0;
  const std::size_t count =
      timed ? kArenaSpecs
            : (config.tx_per_thread < kArenaSpecs
                   ? static_cast<std::size_t>(config.tx_per_thread)
                   : kArenaSpecs);
  arena.specs.resize(count > 0 ? count : 1);

  const int ops =
      config.ops_per_tx <= kMaxOpsPerTx ? config.ops_per_tx : kMaxOpsPerTx;
  for (TxSpec& spec : arena.specs) {
    const bool read_only = rng.next_bool(config.read_only_fraction);
    for (int k = 0; k < ops; ++k) {
      std::size_t x = 0;
      if (config.hot_op_fraction > 0 && rng.next_bool(config.hot_op_fraction)) {
        x = rng.next_range(hot_n);  // HotSpot overlay
      } else {
        switch (config.pattern) {
          case AccessPattern::kUniform:
            x = rng.next_range(n);
            break;
          case AccessPattern::kZipf:
            x = zipf.next();
            break;
          case AccessPattern::kPartitioned:
            x = part.base + rng.next_range(part.size);
            break;
        }
      }
      spec.vars[k] = static_cast<core::TVarId>(x);
      if (!read_only && rng.next_bool(config.write_fraction)) {
        spec.write_mask |= std::uint64_t{1} << k;
      }
    }
  }
}

}  // namespace detail

PartitionBounds partition_bounds(std::size_t num_tvars, int threads,
                                 int thread) {
  OFTM_ASSERT(threads >= 1);
  OFTM_ASSERT(thread >= 0 && thread < threads);
  const std::size_t part_size = num_tvars / static_cast<std::size_t>(threads);
  PartitionBounds b;
  b.base = static_cast<std::size_t>(thread) * part_size;
  // Fold the n % threads remainder into the last partition so "fully
  // disjoint" sweeps use every t-variable.
  b.size = thread == threads - 1 ? num_tvars - b.base : part_size;
  return b;
}

void RunResult::merge_from(const RunResult& o) {
  committed += o.committed;
  aborted_attempts += o.aborted_attempts;
  gave_up += o.gave_up;
  commit_latency_ns += o.commit_latency_ns;
  retries_per_commit += o.retries_per_commit;
  per_thread_committed.insert(per_thread_committed.end(),
                              o.per_thread_committed.begin(),
                              o.per_thread_committed.end());
}

void RunResult::accumulate_run(const RunResult& o) {
  seconds += o.seconds;
  committed += o.committed;
  aborted_attempts += o.aborted_attempts;
  gave_up += o.gave_up;
  commit_latency_ns += o.commit_latency_ns;
  retries_per_commit += o.retries_per_commit;
  if (per_thread_committed.size() < o.per_thread_committed.size()) {
    per_thread_committed.resize(o.per_thread_committed.size(), 0);
  }
  for (std::size_t i = 0; i < o.per_thread_committed.size(); ++i) {
    per_thread_committed[i] += o.per_thread_committed[i];
  }
  tm_stats.merge(o.tm_stats);
}

std::string RunResult::to_string() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%.3fs committed=%llu aborted=%llu gave_up=%llu "
                "throughput=%.0f tx/s latency[p50<=%lluns p99<=%lluns]",
                seconds, static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(aborted_attempts),
                static_cast<unsigned long long>(gave_up), throughput(),
                static_cast<unsigned long long>(commit_latency_ns.quantile(0.5)),
                static_cast<unsigned long long>(
                    commit_latency_ns.quantile(0.99)));
  return buf;
}

RunResult run_workload(core::TransactionalMemory& tm,
                       const WorkloadConfig& config) {
  return detail::run_workload_impl<core::TransactionalMemory>(tm, config);
}

RunResult run_bank_workload(core::TransactionalMemory& tm, int threads,
                            std::uint64_t tx_per_thread, std::size_t accounts,
                            core::Value initial_balance, std::uint64_t seed,
                            bool* invariant_ok, bool pin_threads) {
  using detail::Clock;
  OFTM_ASSERT(accounts >= 2);
  OFTM_ASSERT(tm.num_tvars() >= accounts);

  // Seed balances through a committed transaction (quiescent setup).
  {
    core::Transaction& txn = tm.begin(tm.this_thread_session());
    for (std::size_t a = 0; a < accounts; ++a) {
      OFTM_ASSERT(tm.write(txn, static_cast<core::TVarId>(a),
                           initial_balance));
    }
    OFTM_ASSERT(tm.try_commit(txn));
  }

  runtime::SpinBarrier barrier(static_cast<std::uint32_t>(threads) + 1);
  std::vector<std::thread> workers;
  std::vector<detail::WorkerArena> arenas(static_cast<std::size_t>(threads));

  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      if (pin_threads) runtime::pin_current_thread(t);
      runtime::Xoshiro256 rng(runtime::mix64(seed + 31 * t));
      RunResult& mine = arenas[static_cast<std::size_t>(t)].local;
      core::TmSession& session = tm.this_thread_session();
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < tx_per_thread; ++i) {
        const auto from = static_cast<core::TVarId>(rng.next_range(accounts));
        auto to = static_cast<core::TVarId>(rng.next_range(accounts));
        if (to == from) to = static_cast<core::TVarId>((to + 1) % accounts);
        const core::Value amount = rng.next_range(10) + 1;
        const auto tx_start = Clock::now();
        std::uint64_t attempts = 0;
        bool done = false;
        while (!done) {
          core::Transaction& txn = tm.begin(session);
          const auto fb = tm.read(txn, from);
          if (!fb) {
            ++mine.aborted_attempts;
            ++attempts;
            continue;
          }
          if (*fb < amount) {
            tm.try_abort(txn);  // insufficient funds: requested abort
            done = true;        // not a retry — the transfer is dropped
            break;
          }
          const auto tb = tm.read(txn, to);
          if (!tb || !tm.write(txn, from, *fb - amount) ||
              !tm.write(txn, to, *tb + amount) || !tm.try_commit(txn)) {
            ++mine.aborted_attempts;
            ++attempts;
            continue;
          }
          ++mine.committed;
          mine.commit_latency_ns.record(
              detail::ns_between(tx_start, Clock::now()));
          mine.retries_per_commit.record(attempts);
          done = true;
        }
      }
      barrier.arrive_and_wait();
    });
  }

  barrier.arrive_and_wait();
  const auto start = Clock::now();
  barrier.arrive_and_wait();
  const auto stop = Clock::now();
  for (auto& w : workers) w.join();

  core::Value sum = 0;
  for (std::size_t a = 0; a < accounts; ++a) {
    sum += tm.read_quiescent(static_cast<core::TVarId>(a));
  }
  if (invariant_ok != nullptr) {
    *invariant_ok = (sum == initial_balance * accounts);
  }

  RunResult total;
  total.seconds = detail::seconds_between(start, stop);
  for (detail::WorkerArena& arena : arenas) {
    arena.local.per_thread_committed.assign(1, arena.local.committed);
    total.merge_from(arena.local);
  }
  total.tm_stats = tm.stats();
  return total;
}

}  // namespace oftm::workload
