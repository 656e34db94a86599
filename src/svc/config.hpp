// Configuration for the sharded transactional KV service (src/svc/).
//
// The service partitions one logical keyspace [0, keys) across
// `num_shards` *independent* TM instances — the regime "Distributed
// Transactional Systems Cannot Be Fast" (PAPERS.md) predicts the
// interesting cost curve in: single-shard operations stay as cheap as one
// TM allows, while cross-shard transfers pay a two-phase commit built
// from per-shard transactions (svc/coordinator.hpp).
//
// Every knob a run needs is here, so a report line carrying the config is
// reproducible without the source; the derived per-shard container sizing
// lives here too, so the service, the tests and the benches agree on the
// t-var layout byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/types.hpp"

namespace oftm::svc {

inline constexpr std::uint32_t next_pow2(std::uint64_t v) noexcept {
  std::uint32_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

struct ServiceConfig {
  // Which factory recipe backs every shard (workload::make_tm_for_containers
  // grammar — boxed or region; the service dispatches the layout at runtime
  // via core::with_memory_model).
  std::string backend = "tl2";
  int num_shards = 4;
  int clients = 4;

  // Global keyspace [0, keys), hash-partitioned across shards. Every key
  // is seeded with initial_balance before clients start.
  std::uint64_t keys = 2048;
  core::Value initial_balance = 1000;

  // Client op mix, drawn per op: put / transfer / scan / index churn, the
  // remainder point gets. Fractions are cumulative probabilities' summands
  // and must total <= 1.
  double put_fraction = 0.20;
  double transfer_fraction = 0.20;
  double scan_fraction = 0.05;
  double churn_fraction = 0.05;

  // Range scans cover [lo, lo + scan_span); transfers move 1..max_transfer.
  std::uint64_t scan_span = 64;
  core::Value max_transfer = 16;

  // Zipf skew of the client key distribution (key 0 hottest). 0 = uniform.
  double zipf_s = 0.99;

  // Count mode (run_seconds == 0): each client runs ops_per_client ops.
  // Duration mode (run_seconds > 0): clients run until the deadline.
  std::uint64_t ops_per_client = 10'000;
  double run_seconds = 0;

  std::uint64_t seed = 42;

  // A transfer that keeps losing prepare races (kBusy) is retried with
  // backoff up to this many attempts before the client gives up on it.
  int max_transfer_attempts = 1'000'000;

  // Extra t-variables appended to every shard's TM beyond the container
  // layout — scratch space the checked-stress harness writes its recorded
  // projection through (tests/svc_checked_stress_test.cpp).
  std::size_t extra_tvars = 0;

  // ---- Derived per-shard sizing ----------------------------------------
  // Shards are hash partitions, so per-shard load is binomial around
  // keys/num_shards; 2x the mean plus constant slack is far beyond any
  // realistic tail (the seeder asserts the real load fits).
  std::uint64_t per_shard_key_bound() const {
    const std::uint64_t mean = keys / static_cast<std::uint64_t>(num_shards);
    const std::uint64_t bound = 2 * mean + 128;
    return bound < keys ? bound : keys;
  }
  // Balance table: open addressing wants <= 50% load.
  std::uint32_t map_capacity() const {
    return next_pow2(2 * per_shard_key_bound());
  }
  // 2PC lock table: at most one entry per in-flight transfer participant.
  std::uint32_t lock_capacity() const {
    const std::uint64_t inflight = 8 * static_cast<std::uint64_t>(clients);
    return next_pow2(inflight < 64 ? 64 : inflight);
  }
  // Sorted key index (range scans / membership churn): holds every key the
  // shard owns.
  std::uint32_t index_capacity() const {
    return static_cast<std::uint32_t>(per_shard_key_bound());
  }
};

// Outcome of a 2PC prepare (and of the whole transfer, whose verdict is
// the logical AND of its participants' votes).
enum class Vote {
  kYes,           // validated and locked
  kBusy,          // a concurrent transfer holds a participant; retry
  kInsufficient,  // the debit side lacks funds; permanent for this amount
};

inline const char* to_string(Vote v) noexcept {
  switch (v) {
    case Vote::kYes: return "yes";
    case Vote::kBusy: return "busy";
    case Vote::kInsufficient: return "insufficient";
  }
  return "?";
}

}  // namespace oftm::svc
