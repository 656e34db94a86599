// The sharded transactional KV service: N independent TM instances, one
// router, one 2PC coordinator, and a client harness that drives a mixed
// OLTP op set against them — the ROADMAP's millions-of-users scenario
// scaled to a process.
//
// Client ops (mix drawn per op from ServiceConfig's fractions):
//   get       point read of one Zipf-drawn key (single shard)
//   put       additive point update (single shard; waits out 2PC locks)
//   transfer  move funds between two keys; same-shard = one transaction
//             (fast path), cross-shard = two-phase commit; kBusy retried
//             with backoff, kInsufficient accepted as a completed outcome
//   scan      ordered key-index count across every shard, or a one-shard
//             balance range aggregate (a full-table snapshot)
//   churn     membership toggle on a shard's key index
//
// Measurement mirrors workload::run_workload: each client accumulates
// into a cache-line-isolated arena (latency histograms per op kind,
// private coordinator counters) and flushes once after the stop barrier,
// so the harness adds no shared hot spot of its own.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/memory_model.hpp"
#include "core/tm.hpp"
#include "runtime/backoff.hpp"
#include "runtime/barrier.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/stats.hpp"
#include "runtime/xorshift.hpp"
#include "svc/config.hpp"
#include "svc/coordinator.hpp"
#include "svc/router.hpp"
#include "svc/shard.hpp"
#include "workload/zipf.hpp"

namespace oftm::svc {

// Aggregated outcome of one service run. Histograms are nanoseconds per
// *completed client op*, internal retries included — the client-visible
// latency the p99/p999 report fields summarize.
struct SvcRunResult {
  double seconds = 0;
  std::uint64_t ops = 0;  // completed client ops (gave-ups excluded)
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t scans = 0;
  std::uint64_t churns = 0;
  std::uint64_t transfers_committed = 0;
  std::uint64_t transfers_insufficient = 0;  // completed, funds lacking
  std::uint64_t transfers_gave_up = 0;       // exhausted busy retries
  std::uint64_t transfer_busy_retries = 0;   // extra attempts burned on kBusy

  runtime::Log2Histogram op_latency_ns;
  runtime::Log2Histogram get_latency_ns;
  runtime::Log2Histogram put_latency_ns;
  runtime::Log2Histogram scan_latency_ns;
  runtime::Log2Histogram transfer_latency_ns;

  CoordinatorStats coord;
  runtime::TxStats tm_stats;  // merged across every shard's TM
  std::vector<std::uint64_t> per_shard_commits;

  double throughput() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  }

  // Client-arena flush; whole-run fields (seconds, tm_stats, per-shard
  // commits) are filled once by the harness.
  void merge_from(const SvcRunResult& o) {
    ops += o.ops;
    gets += o.gets;
    puts += o.puts;
    scans += o.scans;
    churns += o.churns;
    transfers_committed += o.transfers_committed;
    transfers_insufficient += o.transfers_insufficient;
    transfers_gave_up += o.transfers_gave_up;
    transfer_busy_retries += o.transfer_busy_retries;
    op_latency_ns += o.op_latency_ns;
    get_latency_ns += o.get_latency_ns;
    put_latency_ns += o.put_latency_ns;
    scan_latency_ns += o.scan_latency_ns;
    transfer_latency_ns += o.transfer_latency_ns;
    coord.merge(o.coord);
  }
};

template <core::MemoryModel M>
class KvServiceT {
 public:
  // `tms` must hold cfg.num_shards instances, each sized for
  // shard_tvar_words(cfg) + cfg.extra_tvars (see make_service_tms). The
  // service borrows them — tests interpose recording wrappers this way.
  KvServiceT(const ServiceConfig& cfg,
             const std::vector<core::TransactionalMemory*>& tms)
      : cfg_(cfg), router_(cfg.num_shards) {
    OFTM_ASSERT(tms.size() == static_cast<std::size_t>(cfg.num_shards));
    OFTM_ASSERT(cfg.put_fraction + cfg.transfer_fraction + cfg.scan_fraction +
                    cfg.churn_fraction <=
                1.0);
    OFTM_ASSERT(cfg.keys >= 2 && cfg.scan_span >= 1);
    shards_.reserve(tms.size());
    std::vector<ShardT<M>*> raw;
    for (int i = 0; i < cfg.num_shards; ++i) {
      shards_.push_back(std::make_unique<ShardT<M>>(*tms[i], cfg, i));
      raw.push_back(shards_.back().get());
    }
    coordinator_ =
        std::make_unique<TwoPhaseCoordinator<M>>(std::move(raw), router_);
  }

  const ServiceConfig& config() const noexcept { return cfg_; }
  const ShardRouter& router() const noexcept { return router_; }
  ShardT<M>& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  ShardT<M>& shard_for(std::uint64_t key) {
    return shard(router_.shard_of(key));
  }
  TwoPhaseCoordinator<M>& coordinator() { return *coordinator_; }

  // Partition the keyspace through the router and seed every shard.
  // Quiescent; run once before clients.
  void init_and_seed() {
    std::vector<std::vector<std::uint64_t>> owned(
        static_cast<std::size_t>(cfg_.num_shards));
    for (std::uint64_t k = 0; k < cfg_.keys; ++k) {
      owned[static_cast<std::size_t>(router_.shard_of(k))].push_back(k);
    }
    for (int i = 0; i < cfg_.num_shards; ++i) {
      shards_[static_cast<std::size_t>(i)]->init();
      shards_[static_cast<std::size_t>(i)]->seed(
          owned[static_cast<std::size_t>(i)], cfg_.initial_balance);
      // Stats reported after run_clients() should cover the client phase,
      // not the seeding batches.
      shards_[static_cast<std::size_t>(i)]->tm().reset_stats();
    }
  }

  // One client op by explicit kind — the unit the equivalence tests drive
  // deterministically. Returns the op's observable result (get value /
  // scan count / transfer vote) encoded as a Value for easy comparison.
  core::Value do_get(std::uint64_t key) {
    return shard_for(key).get(key).value_or(~core::Value{0});
  }
  void do_put(std::uint64_t key, core::Value delta) {
    shard_for(key).put_add(key, delta);
  }
  Vote do_transfer(std::uint64_t src, std::uint64_t dst, core::Value amount,
                   CoordinatorStats& stats) {
    return coordinator_->transfer(src, dst, amount, stats);
  }
  // Global ordered-index count: per-shard snapshots, summed. Each shard's
  // contribution is one consistent transaction; the union is as atomic as
  // a cross-shard read-only op can be without a global read lock.
  std::uint64_t do_scan_index(std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t n = 0;
    for (auto& s : shards_) n += s->scan_index(lo, hi);
    return n;
  }
  core::Value do_scan_balances(int shard_id, std::uint64_t lo,
                               std::uint64_t hi) {
    return shard(shard_id).scan_balances(lo, hi);
  }
  void do_churn(std::uint64_t key) { shard_for(key).churn_index(key); }

  // Run cfg.clients threads of the mixed workload to completion.
  SvcRunResult run_clients() {
    const int n = cfg_.clients;
    OFTM_ASSERT(n >= 1);
    runtime::SpinBarrier barrier(static_cast<std::uint32_t>(n) + 1);
    std::vector<ClientArena> arenas(static_cast<std::size_t>(n));
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
      clients.emplace_back([&, t] {
        client_loop(t, arenas[static_cast<std::size_t>(t)], barrier);
      });
    }
    barrier.arrive_and_wait();
    const auto start = Clock::now();
    barrier.arrive_and_wait();
    const auto stop = Clock::now();
    for (auto& c : clients) c.join();

    SvcRunResult total;
    total.seconds = std::chrono::duration<double>(stop - start).count();
    for (ClientArena& arena : arenas) total.merge_from(arena.local);
    for (auto& s : shards_) {
      const runtime::TxStats st = s->tm().stats();
      total.per_shard_commits.push_back(st.commits);
      total.tm_stats.merge(st);
    }
    return total;
  }

  // Quiescent audit: conservation (every balance ever created is
  // accounted: seeds + committed put deltas), drained lock tables, and
  // structurally sound indices. On failure *why (if given) names the
  // violated check.
  bool audit(std::string* why = nullptr) {
    core::Value actual = 0;
    core::Value put_delta = 0;
    for (auto& s : shards_) {
      actual += s->sum_balances();
      put_delta += s->applied_put_delta();
      if (s->locks_held_quiescent() != 0) {
        if (why) *why = "lock table not drained on shard " +
                        std::to_string(s->id());
        return false;
      }
      if (!s->audit_index_quiescent()) {
        if (why) *why = "index audit failed on shard " +
                        std::to_string(s->id());
        return false;
      }
    }
    const core::Value expected =
        cfg_.keys * cfg_.initial_balance + put_delta;
    if (actual != expected) {
      if (why) {
        *why = "conservation violated: balances sum to " +
               std::to_string(actual) + ", expected " +
               std::to_string(expected);
      }
      return false;
    }
    return true;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct alignas(runtime::kCacheLineSize) ClientArena {
    SvcRunResult local;
  };

  // Clients run unpinned: the service targets oversubscribed client
  // counts (clients >> cores), where pinning would serialize the world.
  void client_loop(int t, ClientArena& arena, runtime::SpinBarrier& barrier) {
    runtime::Xoshiro256 rng(runtime::mix64(
        cfg_.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(t) + 1));
    workload::ZipfSampler zipf(
        cfg_.keys, cfg_.zipf_s,
        runtime::mix64(cfg_.seed + 0x5bd1e995u * (static_cast<std::uint64_t>(t) + 1)));
    SvcRunResult& mine = arena.local;

    barrier.arrive_and_wait();

    const bool timed = cfg_.run_seconds > 0;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(cfg_.run_seconds));
    const double p_put = cfg_.put_fraction;
    const double p_transfer = p_put + cfg_.transfer_fraction;
    const double p_scan = p_transfer + cfg_.scan_fraction;
    const double p_churn = p_scan + cfg_.churn_fraction;

    for (std::uint64_t i = 0; timed || i < cfg_.ops_per_client; ++i) {
      const auto op_start = Clock::now();
      if (timed && op_start >= deadline) break;
      const double r = rng.next_double();

      if (r < p_put) {
        const std::uint64_t key = zipf.next();
        shard_for(key).put_add(key, rng.next_range(8) + 1);
        ++mine.puts;
        ++mine.ops;
        record(mine, mine.put_latency_ns, op_start);
      } else if (r < p_transfer) {
        std::uint64_t src = zipf.next();
        std::uint64_t dst = zipf.next();
        if (src == dst) dst = (dst + 1) % cfg_.keys;
        const core::Value amount = rng.next_range(cfg_.max_transfer) + 1;
        run_transfer(mine, src, dst, amount, timed, deadline);
        record(mine, mine.transfer_latency_ns, op_start);
      } else if (r < p_scan) {
        const std::uint64_t span =
            cfg_.scan_span < cfg_.keys ? cfg_.scan_span : cfg_.keys;
        const std::uint64_t lo = rng.next_range(cfg_.keys - span + 1);
        if (rng.next_bool(0.5)) {
          do_scan_index(lo, lo + span);
        } else {
          do_scan_balances(router_.shard_of(lo), lo, lo + span);
        }
        ++mine.scans;
        ++mine.ops;
        record(mine, mine.scan_latency_ns, op_start);
      } else if (r < p_churn) {
        do_churn(zipf.next());
        ++mine.churns;
        ++mine.ops;
        record(mine, mine.op_latency_ns, op_start);  // churn folds into all
      } else {
        const std::uint64_t key = zipf.next();
        shard_for(key).get(key);
        ++mine.gets;
        ++mine.ops;
        record(mine, mine.get_latency_ns, op_start);
      }
    }

    barrier.arrive_and_wait();
  }

  // Transfer with busy-retry: kBusy means a prepare race was lost, which
  // backoff resolves; the deadline check keeps a pathological hot pair
  // from pinning a timed run past its budget.
  void run_transfer(SvcRunResult& mine, std::uint64_t src, std::uint64_t dst,
                    core::Value amount, bool timed,
                    Clock::time_point deadline) {
    runtime::ExponentialBackoff backoff;
    for (int attempt = 1;; ++attempt) {
      const Vote v = do_transfer(src, dst, amount, mine.coord);
      if (v == Vote::kYes) {
        ++mine.transfers_committed;
        ++mine.ops;
        return;
      }
      if (v == Vote::kInsufficient) {
        ++mine.transfers_insufficient;
        ++mine.ops;
        return;
      }
      ++mine.transfer_busy_retries;
      if (attempt >= cfg_.max_transfer_attempts ||
          (timed && Clock::now() >= deadline)) {
        ++mine.transfers_gave_up;
        return;
      }
      backoff.pause();
    }
  }

  void record(SvcRunResult& mine, runtime::Log2Histogram& kind,
              Clock::time_point op_start) {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             op_start)
            .count());
    mine.op_latency_ns.record(ns);
    if (&kind != &mine.op_latency_ns) kind.record(ns);
  }

  ServiceConfig cfg_;
  ShardRouter router_;
  std::vector<std::unique_ptr<ShardT<M>>> shards_;
  std::unique_ptr<TwoPhaseCoordinator<M>> coordinator_;
};

// ---------------------------------------------------------------------------
// Backend-agnostic entry points (service.cpp).

// Build cfg.num_shards TM instances of cfg.backend, each sized for one
// shard's containers plus cfg.extra_tvars scratch t-variables.
std::vector<std::unique_ptr<core::TransactionalMemory>> make_service_tms(
    const ServiceConfig& cfg);

// Full service lifecycle on any recipe: build, seed, run clients, audit.
struct ServiceRun {
  SvcRunResult result;
  bool audit_ok = false;
  std::string audit_why;
};
ServiceRun run_service(const ServiceConfig& cfg);

// Emit one JSON-lines report record for a service run (throughput plus
// per-op-kind latency histograms with the p99/p999 tail fields).
void emit_service_run(std::string_view bench, std::string_view scenario,
                      const ServiceConfig& cfg, const SvcRunResult& result);

}  // namespace oftm::svc
