// oftm_benchmark: the repository benchmark's load driver.
//
// Runs one workload as a closed loop: kClients client threads, each
// issuing its next op only when the previous one returns, against the
// public APIs of src/svc (KvServiceT::do_*) and src/core
// (core::atomically on a factory-built TM). Every op is timed from
// outside; every run ends with a correctness audit. Prints one JSON
// record on stdout; benchmark/run.py builds this program, runs it and
// turns the record into the benchmark's output.
//
//   oftm_benchmark --workload W [--seed S] [--seconds T] [--warmup T]
//                  [--trace 0|1]
//   oftm_benchmark --self-test
//
// Untraced (the default): kRounds rounds, each of which sets up a fresh
// instance, warms it up, measures its share of the window and audits it;
// the record holds the end-to-end metrics, each the median over the
// rounds. Traced (--trace 1): half the time measures an untraced instance
// as the reference, half a fresh instance whose TMs are wrapped in
// TimedTm; the record holds the per-layer metrics, and the trace and layer
// files are written to benchmark/out/.
#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "core/atomically.hpp"
#include "core/memory_model.hpp"
#include "histogram.hpp"
#include "obs/phase_timer.hpp"
#include "obs/profile.hpp"
#include "runtime/backoff.hpp"
#include "runtime/xorshift.hpp"
#include "svc/service.hpp"
#include "timed_tm.hpp"
#include "workload/factory.hpp"
#include "workload/report.hpp"
#include "workload/zipf.hpp"

namespace oftm::bench {
namespace {

using workload::report::Json;

// ---------------------------------------------------------------------------
// Load shape and workloads.

constexpr int kClients = 3;
constexpr core::Value kInitialBalance = 1000;
constexpr core::Value kMaxTransfer = 16;
constexpr core::Value kMaxDeposit = 8;
constexpr std::uint64_t kScanSpan = 64;
constexpr std::uint64_t kSpanStride = 64;         // keep spans of every 64th op
constexpr std::size_t kSpanCapacity = 1 << 14;    // per client
constexpr std::size_t kSeedBatch = 64;  // bank seeding writes per txn, as ShardT::seed
// Traced runs write <workload>.trace.json and .layers.json here,
// relative to the working directory (the repository root).
constexpr const char* kTraceDir = "benchmark/out";
// An untraced run is kRounds rounds, each on a freshly set-up instance.
// Each end-to-end metric is the median over the rounds, so one round
// that a host hiccup or an unlucky memory placement slowed does not set
// the run's value; setup_s is the median of the rounds' set-ups.
constexpr int kRounds = 3;

enum class Family { kSvc, kBank };

struct Mix {
  double get, put, transfer, scan, churn;

  double share(int kind) const {
    const double shares[kKinds] = {get, put, transfer, scan, churn};
    return shares[kind];
  }
};

struct Spec {
  const char* name;
  Family family;
  const char* backend;
  int shards;  // svc only
  std::uint64_t keys;
  double zipf;
  Mix mix;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// A scan (a read-only multi-key op) is, on svc, an ordered-index count
// across shards or one shard's balance range aggregate (50/50); on the
// bank, one transaction summing kScanSpan adjacent accounts.
constexpr Spec kSpecs[] = {
    {"svc_mixed", Family::kSvc, "tl2", 4, 2048, 0.99,
     {0.50, 0.20, 0.20, 0.05, 0.05}},
    {"svc_transfer", Family::kSvc, "norec-region", 4, 8192, 0.99,
     {0.40, 0.20, 0.40, 0.0, 0.0}},
    {"tm_bank_dstm", Family::kBank, "dstm:karma", 1, 4096, 0.99,
     {0.20, 0.0, 0.70, 0.10, 0.0}},
    {"tm_bank_large", Family::kBank, "tl2-region", 1, std::uint64_t{1} << 24,
     0.0, {0.20, 0.0, 0.70, 0.10, 0.0}},
};

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 12;
  double warmup = 2;
  bool trace = false;
};

// ---------------------------------------------------------------------------
// Small helpers.

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double thread_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string s = brand;
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  Json j;
  for (const Metric& m : ms) {
    // Full precision: report::Json rounds doubles to 6 digits.
    j.field_raw(m.name, Json()
                            .field_raw("value", json_number(m.value))
                            .field("unit", m.unit)
                            .str());
  }
  return j.str();
}

// ---------------------------------------------------------------------------
// Clients.

struct Op {
  Kind kind = kGet;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  core::Value amount = 0;
  bool alt = false;
};

// One client's private state: its input streams, histograms and
// counters. Everything is allocated here, before the warm-up starts.
struct alignas(64) Client {
  Client(const Spec& spec, std::uint64_t seed, int index, bool traced)
      : index(index),
        rng(stream_seed(seed, index, 1)),
        zipf(spec.keys, spec.zipf, stream_seed(seed, index, 2)),
        backoff_seed(stream_seed(seed, index, 3)),
        trace(traced ? std::make_unique<TraceCtx>(kSpanCapacity) : nullptr) {}

  // Independent streams per (client, purpose), all fixed by --seed.
  static std::uint64_t stream_seed(std::uint64_t seed, int index,
                                   std::uint64_t purpose) {
    return runtime::mix64(seed * 0x9e3779b97f4a7c15ull +
                          purpose * 0x5bd1e995ull +
                          static_cast<std::uint64_t>(index));
  }

  // Draws the op kind from the mix; the workload draws its parameters.
  Kind draw_kind(const Mix& m) {
    double r = rng.next_double();
    if ((r -= m.put) < 0) return kPut;
    if ((r -= m.transfer) < 0) return kTransfer;
    if ((r -= m.scan) < 0) return kScan;
    if ((r -= m.churn) < 0) return kChurn;
    return kGet;
  }

  // Two distinct keys from the workload's key distribution.
  void draw_pair(Op& op, std::uint64_t keys) {
    op.a = zipf.next();
    op.b = zipf.next();
    if (op.a == op.b) op.b = (op.b + 1) % keys;
  }

  const int index;
  runtime::Xoshiro256 rng;
  workload::ZipfSampler zipf;
  std::uint64_t backoff_seed;
  LogLinearHistogram hist[kKinds];
  std::uint64_t attempted = 0;  // ops begun inside the measured window
  std::uint64_t failed = 0;     // of those, transfers that gave up
  std::uint64_t wrong = 0;      // results that fail a per-op check
  svc::CoordinatorStats coord;         // measured window
  svc::CoordinatorStats warmup_coord;  // discarded
  AllocCount allocs;                   // heap allocations in the window
  std::unique_ptr<TraceCtx> trace;
};

// ---------------------------------------------------------------------------
// Workload targets: set-up, op draw and execution, audit.

svc::ServiceConfig service_config(const Spec& spec, std::uint64_t seed) {
  svc::ServiceConfig cfg;
  cfg.backend = spec.backend;
  cfg.num_shards = spec.shards;
  cfg.clients = kClients;
  cfg.keys = spec.keys;
  cfg.initial_balance = kInitialBalance;
  cfg.put_fraction = spec.mix.put;
  cfg.transfer_fraction = spec.mix.transfer;
  cfg.scan_fraction = spec.mix.scan;
  cfg.churn_fraction = spec.mix.churn;
  cfg.scan_span = kScanSpan;
  cfg.max_transfer = kMaxTransfer;
  cfg.zipf_s = spec.zipf;
  cfg.seed = seed;
  return cfg;
}

std::string abort_reason_audit(
    const std::vector<core::TransactionalMemory*>& tms) {
  for (core::TransactionalMemory* tm : tms) {
    if (!tm->stats().abort_reasons_consistent()) {
      return "abort-reason counters do not sum to aborts on " + tm->name();
    }
  }
  return "";
}

template <core::MemoryModel M>
class SvcTarget {
 public:
  SvcTarget(const Spec& spec, std::uint64_t seed, bool timed)
      : spec_(spec),
        cfg_(service_config(spec, seed)),
        tms_(svc::make_service_tms(cfg_)) {
    std::vector<core::TransactionalMemory*> raw;
    for (auto& tm : tms_) {
      if (timed) {
        timed_.push_back(std::make_unique<TimedTm>(*tm));
        raw.push_back(timed_.back().get());
      } else {
        raw.push_back(tm.get());
      }
    }
    service_ = std::make_unique<svc::KvServiceT<M>>(cfg_, raw);
    service_->init_and_seed();
  }

  std::vector<core::TransactionalMemory*> tms() const {
    std::vector<core::TransactionalMemory*> out;
    for (const auto& tm : tms_) out.push_back(tm.get());
    return out;
  }

  Op draw(Client& c) const {
    Op op;
    op.kind = c.draw_kind(spec_.mix);
    switch (op.kind) {
      case kGet:
      case kChurn: op.a = c.zipf.next(); break;
      case kPut:
        op.a = c.zipf.next();
        op.amount = c.rng.next_range(kMaxDeposit) + 1;
        break;
      case kTransfer:
        c.draw_pair(op, cfg_.keys);
        op.amount = c.rng.next_range(kMaxTransfer) + 1;
        break;
      case kScan: {
        const std::uint64_t span = std::min(kScanSpan, cfg_.keys);
        op.a = c.rng.next_range(cfg_.keys - span + 1);
        op.b = op.a + span;
        op.alt = c.rng.next_bool(0.5);
        break;
      }
    }
    return op;
  }

  // False when the op failed (a transfer that exhausted its retries).
  bool run(const Op& op, Client& c, bool counting) {
    constexpr core::Value kMissing = ~core::Value{0};
    switch (op.kind) {
      case kGet:
        if (service_->do_get(op.a) == kMissing) ++c.wrong;
        return true;
      case kPut: service_->do_put(op.a, op.amount); return true;
      case kTransfer: return transfer(op, c, counting);
      case kScan:
        if (op.alt) {
          if (service_->do_scan_index(op.a, op.b) > op.b - op.a) ++c.wrong;
        } else {
          service_->do_scan_balances(service_->router().shard_of(op.a), op.a,
                                     op.b);
        }
        return true;
      case kChurn: service_->do_churn(op.a); return true;
    }
    return true;
  }

  std::string audit() {
    std::string why;
    if (!service_->audit(&why)) return why;
    return abort_reason_audit(tms());
  }

  Json config() const {
    return Json()
        .field("shards", cfg_.num_shards)
        .field("keys", cfg_.keys)
        .field("zipf_s", cfg_.zipf_s)
        .field("initial_balance", cfg_.initial_balance)
        .field("max_transfer", cfg_.max_transfer)
        .field("scan_span", cfg_.scan_span)
        .field("max_transfer_attempts", cfg_.max_transfer_attempts);
  }

 private:
  // Busy votes are retried with backoff up to cfg.max_transfer_attempts,
  // the policy of KvServiceT::run_transfer; kInsufficient completes.
  bool transfer(const Op& op, Client& c, bool counting) {
    svc::CoordinatorStats& stats = counting ? c.coord : c.warmup_coord;
    TraceCtx* trace = c.trace.get();
    std::optional<runtime::ExponentialBackoff> backoff;
    for (int attempt = 1;; ++attempt) {
      if (trace) trace->coord_begin();
      const svc::Vote v = service_->do_transfer(op.a, op.b, op.amount, stats);
      if (trace) trace->coord_end();
      if (v != svc::Vote::kBusy) return true;
      if (attempt >= cfg_.max_transfer_attempts) return false;
      if (!backoff) backoff.emplace(16, 1u << 14, ++c.backoff_seed);
      const std::uint64_t t0 = obs::now_ticks();
      backoff->pause();
      if (trace) trace->busy_backoff(obs::now_ticks() - t0);
    }
  }

  const Spec& spec_;
  const svc::ServiceConfig cfg_;
  // Declaration order is destruction order in reverse: the service goes
  // first, then the wrappers, then the TMs they reference.
  std::vector<std::unique_ptr<core::TransactionalMemory>> tms_;
  std::vector<std::unique_ptr<TimedTm>> timed_;
  std::unique_ptr<svc::KvServiceT<M>> service_;
};

// A bank of spec.keys accounts, one t-variable each, on one TM. Its mixes
// issue gets, transfers and scans only.
class BankTarget {
 public:
  BankTarget(const Spec& spec, std::uint64_t, bool timed)
      : spec_(spec), tm_(workload::make_tm(spec.backend, spec.keys)) {
    for (std::uint64_t at = 0; at < spec.keys; at += kSeedBatch) {
      const std::uint64_t end = std::min(at + kSeedBatch, spec.keys);
      core::atomically(*tm_, [&](core::TxView& tx) {
        for (std::uint64_t i = at; i < end; ++i) {
          tx.write(static_cast<core::TVarId>(i), kInitialBalance);
        }
      });
    }
    tm_->reset_stats();
    if (timed) timed_ = std::make_unique<TimedTm>(*tm_);
  }

  std::vector<core::TransactionalMemory*> tms() const { return {tm_.get()}; }

  Op draw(Client& c) const {
    Op op;
    op.kind = c.draw_kind(spec_.mix);
    switch (op.kind) {
      case kTransfer:
        c.draw_pair(op, spec_.keys);
        op.amount = c.rng.next_range(kMaxTransfer) + 1;
        break;
      // Uniform start, like the service's range scans.
      case kScan: op.a = c.rng.next_range(spec_.keys - kScanSpan + 1); break;
      default: op.a = c.zipf.next(); break;  // get
    }
    return op;
  }

  bool run(const Op& op, Client&, bool) {
    core::TransactionalMemory& tm =
        timed_ ? static_cast<core::TransactionalMemory&>(*timed_) : *tm_;
    const auto a = static_cast<core::TVarId>(op.a);
    const auto b = static_cast<core::TVarId>(op.b);
    switch (op.kind) {
      case kTransfer:
        core::atomically(tm, [&](core::TxView& tx) {
          const core::Value from = tx.read(a);
          const core::Value to = tx.read(b);
          if (!tx.ok() || from < op.amount) return;
          tx.write(a, from - op.amount);
          tx.write(b, to + op.amount);
        });
        break;
      case kScan:
        core::atomically(tm, [&](core::TxView& tx) {
          core::Value sum = 0;
          for (std::uint64_t i = 0; i < kScanSpan; ++i) {
            sum += tx.read(a + static_cast<core::TVarId>(i));
          }
          return sum;
        });
        break;
      default:  // get
        core::atomically(tm, [&](core::TxView& tx) { return tx.read(a); });
        break;
    }
    return true;
  }

  // Conservation: transfers move money, so the balances sum to the seeded
  // total.
  std::string audit() {
    const core::Value expected = spec_.keys * kInitialBalance;
    core::Value actual = 0;
    for (std::uint64_t i = 0; i < spec_.keys; ++i) {
      actual += tm_->read_quiescent(static_cast<core::TVarId>(i));
    }
    if (actual != expected) {
      return "conservation violated: balances sum to " +
             std::to_string(actual) + ", expected " + std::to_string(expected);
    }
    return abort_reason_audit(tms());
  }

  Json config() const {
    return Json()
        .field("accounts", spec_.keys)
        .field("zipf_s", spec_.zipf)
        .field("initial_balance", kInitialBalance)
        .field("max_transfer", kMaxTransfer)
        .field("scan_span", kScanSpan);
  }

 private:
  const Spec& spec_;
  std::unique_ptr<core::TransactionalMemory> tm_;
  std::unique_ptr<TimedTm> timed_;
};

// ---------------------------------------------------------------------------
// The closed loop.

struct Run {
  std::vector<std::unique_ptr<Client>> clients;
  double seconds = 0;  // measured window
  double main_cpu_share = 0;
  // Per-TM stats at the window's start and end (traced runs only).
  std::vector<runtime::TxStats> tm_before;
  std::vector<runtime::TxStats> tm_after;

  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->attempted;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->failed;
    return n;
  }
  std::uint64_t wrong() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->wrong;
    return n;
  }
};

std::vector<runtime::TxStats> collect_stats(
    const std::vector<core::TransactionalMemory*>& tms) {
  std::vector<runtime::TxStats> out;
  for (core::TransactionalMemory* tm : tms) out.push_back(tm->stats());
  return out;
}

template <class Target>
void client_loop(Target& target, Client& c, std::latch& go,
                 const std::uint64_t& warm_end, const std::uint64_t& end) {
  TraceCtx* trace = c.trace.get();
  t_trace = trace;
  go.wait();
  std::uint64_t index = 0;  // ops begun in the window
  AllocCount at_window;
  for (;;) {
    const Op op = target.draw(c);
    const std::uint64_t t0 = obs::now_ticks();
    if (t0 >= end) break;
    const bool counting = t0 >= warm_end;
    if (counting && index == 0) at_window = thread_alloc_count();
    if (trace) {
      trace->op_begin(op.kind, counting, index % kSpanStride == 0,
                      (static_cast<std::uint64_t>(c.index) << 40) | index, t0);
    }
    const bool ok = target.run(op, c, counting);
    const std::uint64_t t1 = obs::now_ticks();
    if (trace) trace->op_end(t0, t1);
    if (counting) {
      c.hist[op.kind].record(t1 - t0);
      ++index;
      if (!ok) ++c.failed;
    }
  }
  c.attempted = index;
  if (index > 0) {
    const AllocCount now = thread_alloc_count();
    c.allocs = {now.calls - at_window.calls, now.bytes - at_window.bytes};
  }
  t_trace = nullptr;
}

// kClients threads run the loop; this thread only sleeps and joins.
template <class Target>
Run measure(Target& target, const Spec& spec, std::uint64_t seed,
            double warmup, double seconds, bool traced) {
  Run run;
  run.seconds = seconds;
  for (int i = 0; i < kClients; ++i) {
    run.clients.push_back(std::make_unique<Client>(spec, seed, i, traced));
  }
  const double ticks_per_s = 1e9 / obs::ns_per_tick();
  std::uint64_t warm_end = 0;
  std::uint64_t end = 0;
  std::latch go(1);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      client_loop(target, *run.clients[static_cast<std::size_t>(i)], go,
                  warm_end, end);
    });
  }
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = thread_cpu_seconds();
  auto ticks = [&](double s) {
    return static_cast<std::uint64_t>(s * ticks_per_s);
  };
  warm_end = obs::now_ticks() + ticks(warmup);
  end = warm_end + ticks(seconds);
  go.count_down();
  if (traced) {
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    run.tm_before = collect_stats(target.tms());
  }
  for (std::thread& t : threads) t.join();
  run.main_cpu_share = (thread_cpu_seconds() - cpu0) / seconds_since(wall0);
  if (traced) run.tm_after = collect_stats(target.tms());
  return run;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Record {
  bool correct = true;
  std::string audit = "ok";
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<Metric> metrics;    // end-to-end, or per-layer when traced
  std::vector<Metric> reference;  // printed for reference, never bounded
  std::string config;
  std::string extra;              // mode-specific JSON fields
};

// Folds one run's outcome into the record. A run that fails its audit, a
// per-op result check or the main-thread self-check fails every op it ran.
void check(Record& r, const Run& run, const std::string& audit_why) {
  std::string why = audit_why;
  if (why.empty() && run.wrong() != 0) {
    why = std::to_string(run.wrong()) + " op results failed their check";
  }
  if (why.empty() && run.main_cpu_share >= 0.05) {
    why = "self-check: main thread used " + json_number(run.main_cpu_share) +
          " of a CPU while clients ran";
  }
  r.attempted += run.attempted();
  r.failed += why.empty() ? run.failed() : run.attempted();
  r.wrong += run.wrong();
  if (!why.empty() && r.correct) {
    r.correct = false;
    r.audit = why;
  }
}

double throughput(const Run& run) {
  return static_cast<double>(run.attempted()) / run.seconds;
}

// The bounded latency quantiles per op kind. A workload reports those of
// the kinds its mix issues.
struct KindQuantile {
  Kind kind;
  double q;
  const char* name;
};
constexpr KindQuantile kKindQuantiles[] = {
    {kGet, 0.50, "get_p50_us"},           {kGet, 0.99, "get_p99_us"},
    {kPut, 0.99, "put_p99_us"},           {kTransfer, 0.50, "transfer_p50_us"},
    {kTransfer, 0.99, "transfer_p99_us"}, {kScan, 0.50, "scan_p50_us"},
    {kScan, 0.99, "scan_p99_us"},
};

// One round's throughput and latencies, and its reference-only numbers.
// Every round of a workload yields the same names in the same order.
void round_metrics(const Spec& spec, const Run& run, std::vector<Metric>& out,
                   std::vector<Metric>& reference) {
  const double us_per_tick = obs::ns_per_tick() / 1000.0;
  LogLinearHistogram kinds[kKinds];
  LogLinearHistogram all;
  for (const auto& c : run.clients) {
    for (int k = 0; k < kKinds; ++k) {
      kinds[k] += c->hist[k];
      all += c->hist[k];
    }
  }
  auto us = [&](const LogLinearHistogram& h, double q) {
    return h.quantile(q) * us_per_tick;
  };
  out = {
      {"throughput_ops_s", throughput(run), "ops/s"},
      {"latency_p50_us", us(all, 0.50), "us"},
      {"latency_p99_us", us(all, 0.99), "us"},
  };
  for (const KindQuantile& kq : kKindQuantiles) {
    if (spec.mix.share(kq.kind) > 0) {
      out.push_back({kq.name, us(kinds[kq.kind], kq.q), "us"});
    }
  }
  reference = {
      {"latency_p999_us", us(all, 0.999), "us"},
      {"samples_per_round", static_cast<double>(all.count()), "count"},
      {"runtime.main_thread_cpu_share", run.main_cpu_share, "ratio"},
  };
  for (int k = 0; k < kKinds; ++k) {
    if (spec.mix.share(k) == 0) continue;
    const std::string name = kKindNames[k];
    reference.push_back({name + "_p999_us", us(kinds[k], 0.999), "us"});
    reference.push_back({name + "_samples_per_round",
                         static_cast<double>(kinds[k].count()), "count"});
  }
}

// Metric by metric, the median over the rounds.
std::vector<Metric> median_over(const std::vector<std::vector<Metric>>& rounds) {
  std::vector<Metric> out = rounds.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const auto& round : rounds) values.push_back(round[i].value);
    out[i].value = median(values);
  }
  return out;
}

runtime::TxStats window_delta(const runtime::TxStats& after,
                              const runtime::TxStats& before) {
  runtime::TxStats d;
  d.commits = after.commits - before.commits;
  d.aborts = after.aborts - before.aborts;
  d.forced_aborts = after.forced_aborts - before.forced_aborts;
  d.cm_backoffs = after.cm_backoffs - before.cm_backoffs;
  d.victim_kills = after.victim_kills - before.victim_kills;
  for (std::size_t i = 0; i < obs::kNumAbortReasons; ++i) {
    d.abort_reason[i] = after.abort_reason[i] - before.abort_reason[i];
  }
  for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
    d.phase_ns[i] = after.phase_ns[i] - before.phase_ns[i];
  }
  return d;
}

// Per-layer metrics of a traced run; see timed_tm.hpp for the layers.
// Per-kind metrics cover the kinds the workload's mix issues.
void layer_metrics(Record& r, const Spec& spec, const Run& run,
                   double untraced_throughput) {
  const double tick_ns = obs::ns_per_tick();
  KindCounters k[kKinds];
  KindCounters all;
  LayerCounters layer;
  svc::CoordinatorStats coord;
  AllocCount allocs;
  for (const auto& c : run.clients) {
    for (int i = 0; i < kKinds; ++i) {
      k[i] += c->trace->kinds[i];
      all += c->trace->kinds[i];
    }
    layer += c->trace->layer;
    coord.merge(c->coord);
    allocs.calls += c->allocs.calls;
    allocs.bytes += c->allocs.bytes;
  }
  auto per = [](std::uint64_t num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  auto ns_per = [&](std::uint64_t ticks, std::uint64_t den) {
    return per(ticks, den) * tick_ns;
  };
  std::vector<Metric>& m = r.metrics;
  auto add = [&m](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };
  std::vector<int> issued;
  for (int i = 0; i < kKinds; ++i) {
    if (spec.mix.share(i) > 0) issued.push_back(i);
  }

  // svc: the client op itself. Self time = op - coord - other children.
  const std::uint64_t outside = layer.child_ticks - layer.coord_child_ticks;
  const double svc_self_ns =
      (static_cast<double>(all.op_ticks) -
       static_cast<double>(layer.coord_ticks) - static_cast<double>(outside)) *
      tick_ns;
  const std::uint64_t transfers = k[kTransfer].ops;
  add("svc.self_ns_per_op", ratio(svc_self_ns, static_cast<double>(all.ops)),
      "ns");
  add("svc.busy_retries_per_transfer", per(layer.busy_retries, transfers),
      "count");
  add("svc.backoff_ns_per_transfer", ns_per(layer.backoff_ticks, transfers),
      "ns");

  // coord: one do_transfer call.
  const std::uint64_t coord_self = layer.coord_ticks - layer.coord_child_ticks;
  add("coord.self_ns_per_call", ns_per(coord_self, layer.coord_calls), "ns");
  add("coord.shard_txns_per_call", per(layer.coord_commits, layer.coord_calls),
      "count");
  add("coord.two_phase_share",
      per(coord.committed_two_phase,
          coord.committed_two_phase + coord.committed_fast_path),
      "ratio");
  const std::uint64_t calls = coord.transfers_attempted;
  add("coord.busy_first_per_1k", 1000 * per(coord.busy_first, calls), "count");
  add("coord.busy_second_per_1k", 1000 * per(coord.busy_second, calls),
      "count");
  add("coord.rollbacks_per_1k", 1000 * per(coord.rollbacks, calls), "count");

  // shard: committed transactions per op, and commit balance across TMs.
  for (const int i : issued) {
    add(std::string("shard.txns_per_op.") + kKindNames[i],
        per(k[i].commits, k[i].ops), "count");
  }
  runtime::TxStats t;
  std::uint64_t max_commits = 0;
  for (std::size_t i = 0; i < run.tm_after.size(); ++i) {
    const runtime::TxStats d = window_delta(run.tm_after[i], run.tm_before[i]);
    max_commits = std::max(max_commits, d.commits);
    t.merge(d);
  }
  add("shard.commit_skew",
      per(max_commits * run.tm_after.size(), t.commits), "ratio");

  // core: attempts through core::atomically.
  for (const int i : issued) {
    const std::string kind = kKindNames[i];
    add("core.attempts_per_op." + kind, per(k[i].attempts, k[i].ops), "count");
    add("core.attempt_ns_per_op." + kind, ns_per(k[i].attempt_ticks, k[i].ops),
        "ns");
    add("core.wasted_ns_per_op." + kind, ns_per(k[i].wasted_ticks, k[i].ops),
        "ns");
    add("core.retry_gap_ns_per_op." + kind, ns_per(k[i].gap_ticks, k[i].ops),
        "ns");
  }
  add("core.attempts_per_op", per(all.attempts, all.ops), "count");
  add("core.attempt_ns_per_op", ns_per(all.attempt_ticks, all.ops), "ns");
  add("core.wasted_ns_per_op", ns_per(all.wasted_ticks, all.ops), "ns");
  add("core.retry_gap_ns_per_op", ns_per(all.gap_ticks, all.ops), "ns");
  add("core.useful_share",
      per(all.attempt_ticks - all.wasted_ticks, all.attempt_ticks), "ratio");

  // ds: t-variable traffic the containers (or the bank) issue per op.
  for (const int i : issued) {
    const std::string kind = kKindNames[i];
    add("ds.reads_per_op." + kind, per(k[i].reads, k[i].ops), "count");
    add("ds.writes_per_op." + kind, per(k[i].writes, k[i].ops), "count");
  }
  add("ds.allocs_per_op", per(all.allocs, all.ops), "count");
  add("ds.frees_per_op", per(all.frees, all.ops), "count");

  // tm: the backends' own counters over the window, summed over TMs.
  add("tm.abort_ratio", t.abort_ratio(), "ratio");
  add("tm.forced_abort_ratio", t.forced_abort_ratio(), "ratio");
  for (std::size_t i = 0; i < obs::kNumAbortReasons; ++i) {
    add(std::string("tm.aborts_per_1k_commits.") + obs::abort_reason_name(i),
        1000 * per(t.abort_reason[i], t.commits), "count");
  }
  // Phase intervals are sampled on one transaction in `stride`.
#if OFTM_OBS
  const std::uint64_t stride = obs::phase_sample_stride();
#else
  const std::uint64_t stride = 1;
#endif
  for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
    add(std::string("tm.phase_ns_per_commit.") + obs::phase_name(i),
        per(t.phase_ns[i] * stride, t.commits), "ns");
  }
  add("tm.cm_backoffs_per_1k_commits", 1000 * per(t.cm_backoffs, t.commits),
      "count");
  add("tm.victim_kills_per_1k_commits", 1000 * per(t.victim_kills, t.commits),
      "count");

  // runtime.
  add("runtime.heap_allocs_per_op", per(allocs.calls, all.ops), "count");
  add("runtime.heap_bytes_per_op", per(allocs.bytes, all.ops), "bytes");
  add("runtime.main_thread_cpu_share", run.main_cpu_share, "ratio");
  add("trace_overhead", 1 - ratio(throughput(run), untraced_throughput),
      "ratio");

  // Where an op's time went: these four add up to op_ns_per_op.
  r.reference = {
      {"throughput_ops_s.traced", throughput(run), "ops/s"},
      {"throughput_ops_s.untraced_reference", untraced_throughput, "ops/s"},
      {"op_ns_per_op", ns_per(all.op_ticks, all.ops), "ns"},
      {"layer_ns_per_op.svc", ratio(svc_self_ns, static_cast<double>(all.ops)),
       "ns"},
      {"layer_ns_per_op.coord", ns_per(coord_self, all.ops), "ns"},
      {"layer_ns_per_op.attempts", ns_per(all.attempt_ticks, all.ops), "ns"},
      {"layer_ns_per_op.retry_gaps", ns_per(all.gap_ticks, all.ops), "ns"},
  };
}

// ---------------------------------------------------------------------------
// Trace export.

const char* span_name(const Span& s) {
  switch (s.type) {
    case Span::kOp: return "op";
    case Span::kCoord: return "coord.transfer";
    case Span::kCommit: return "tm.attempt:commit";
    case Span::kAbort: return "tm.attempt:abort";
  }
  return "?";
}

// Counts spans that do not lie inside their parent: an attempt inside its
// coord span (when it has one), every other child inside its op span.
// Spans are stored in opening order, so a parent precedes its children.
std::uint64_t nesting_violations(const std::vector<Span>& spans) {
  std::uint64_t bad = 0;
  const Span* op = nullptr;
  const Span* coord = nullptr;
  for (const Span& s : spans) {
    if (s.type == Span::kOp) {
      op = &s;
      coord = nullptr;
      continue;
    }
    if (s.type == Span::kCoord) coord = &s;
    const Span* parent =
        s.type != Span::kCoord && s.coord != 0 ? coord : op;
    if (parent == nullptr || parent->op != s.op ||
        (parent == coord && s.type != Span::kCoord &&
         parent->coord != s.coord) ||
        s.start < parent->start || s.end > parent->end || s.end < s.start) {
      ++bad;
    }
  }
  return bad;
}

std::uint64_t write_trace(const std::string& path, const Run& run) {
  std::uint64_t base = ~std::uint64_t{0};
  for (const auto& c : run.clients) {
    if (!c->trace->spans.empty()) {
      base = std::min(base, c->trace->spans.front().start);
    }
  }
  const double us_per_tick = obs::ns_per_tick() / 1000.0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  std::uint64_t n = 0;
  for (const auto& c : run.clients) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%d,\"args\":{\"name\":\"client %d\"}}",
                 n == 0 ? "" : ",\n", c->index + 1, c->index);
    ++n;
    for (const Span& s : c->trace->spans) {
      std::fprintf(
          f,
          ",\n{\"name\":\"%s%s%s\",\"cat\":\"bench\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,"
          "\"args\":{\"op\":%llu}}",
          span_name(s), s.type == Span::kOp ? ":" : "",
          s.type == Span::kOp ? kKindNames[s.kind] : "",
          static_cast<double>(s.start - base) * us_per_tick,
          static_cast<double>(s.end - s.start) * us_per_tick, c->index + 1,
          static_cast<unsigned long long>(s.op));
      ++n;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0 ? n : 0;
}

// ---------------------------------------------------------------------------
// Modes.

// Each round sets up a fresh instance, timed, then warms it up and
// measures it for its share of the run, and audits it. The previous
// round's instance is gone by then, so peak memory is one instance's.
template <class Target>
Record run_untraced(const Spec& spec, const Options& o) {
  Record r;
  std::vector<double> setups;
  std::vector<std::vector<Metric>> rounds(kRounds);
  std::vector<std::vector<Metric>> references(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    Target target(spec, o.seed, false);
    setups.push_back(seconds_since(t0));
    r.config = target.config().str();
    const Run run = measure(target, spec, o.seed, o.warmup / kRounds,
                            o.seconds / kRounds, false);
    check(r, run, target.audit());
    round_metrics(spec, run, rounds[i], references[i]);
  }
  r.metrics = median_over(rounds);
  r.metrics.push_back({"setup_s", median(setups), "s"});
  r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  r.reference = median_over(references);
  for (int i = 0; i < kRounds; ++i) {
    const std::string n = std::to_string(i + 1);
    r.reference.push_back(
        {"throughput_ops_s.round" + n, rounds[i].front().value, "ops/s"});
    r.reference.push_back({"setup_s.round" + n, setups[i], "s"});
  }
  return r;
}

template <class Target>
Record run_traced(const Spec& spec, const Options& o) {
  Record r;
  const double half = o.seconds / 2;
  double reference = 0;
  {
    Target target(spec, o.seed, false);
    const Run run = measure(target, spec, o.seed, o.warmup, half, false);
    check(r, run, target.audit());
    reference = throughput(run);
  }
  Target target(spec, o.seed, true);
  r.config = target.config().str();
  const Run run = measure(target, spec, o.seed, o.warmup, half, true);
  check(r, run, target.audit());
  layer_metrics(r, spec, run, reference);

  std::uint64_t kept = 0;
  std::uint64_t bad = 0;
  for (const auto& c : run.clients) {
    kept += c->trace->spans.size();
    bad += nesting_violations(c->trace->spans);
  }
  if (bad != 0 && r.correct) {
    r.correct = false;
    r.audit = std::to_string(bad) + " trace spans lie outside their parent";
  }
  std::filesystem::create_directories(kTraceDir);
  const std::string stem = std::string(kTraceDir) + "/" + spec.name;
  const std::uint64_t written = write_trace(stem + ".trace.json", run);
  const std::string layers =
      Json()
          .field("workload", spec.name)
          .field("seed", o.seed)
          .field("measured_s", half)
          .field("untraced_reference_s", half)
          .field("span_stride", kSpanStride)
          .field("spans_kept", kept)
          .field("nesting_violations", bad)
          .field_raw("metrics", metrics_json(r.metrics))
          .field_raw("reference", metrics_json(r.reference))
          .str();
  std::FILE* f = std::fopen((stem + ".layers.json").c_str(), "w");
  const bool layers_ok =
      f != nullptr && std::fputs((layers + "\n").c_str(), f) >= 0 &&
      std::fclose(f) == 0;
  if ((written == 0 || !layers_ok) && r.correct) {
    r.correct = false;
    r.audit = "could not write " + stem + ".{trace,layers}.json";
  }
  r.extra = Json()
                .field("trace_file", stem + ".trace.json")
                .field("layers_file", stem + ".layers.json")
                .field("spans_kept", kept)
                .str();
  return r;
}

template <class Target>
Record run_mode(const Spec& spec, const Options& o) {
  return o.trace ? run_traced<Target>(spec, o) : run_untraced<Target>(spec, o);
}

Record run_workload(const Spec& spec, const Options& o) {
  if (spec.family == Family::kBank) return run_mode<BankTarget>(spec, o);
  // The container layout follows the backend: boxed t-vars or region words.
  const auto probe = workload::make_tm_for_containers(spec.backend, 1);
  return core::with_memory_model(*probe, [&](auto tag) {
    using Model = typename decltype(tag)::type;
    return run_mode<SvcTarget<Model>>(spec, o);
  });
}

std::string record_json(const Spec& spec, const Options& o, const Record& r) {
  const std::string mix = Json()
                              .field("get", spec.mix.get)
                              .field("put", spec.mix.put)
                              .field("transfer", spec.mix.transfer)
                              .field("scan", spec.mix.scan)
                              .field("churn", spec.mix.churn)
                              .str();
  const std::string load = Json()
                               .field("loop", "closed")
                               .field("clients", kClients)
                               .field("think_time_s", 0)
                               .field("warmup_s", o.warmup)
                               .field("measured_s", o.seconds)
                               .field("rounds", o.trace ? 1 : kRounds)
                               .str();
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  const std::string build = Json()
                                .field("compiler", compiler)
                                .field("build_type", OFTM_BENCH_BUILD_TYPE)
                                .field("oftm_obs", OFTM_OBS)
                                .str();
  const std::int64_t nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::int64_t l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const std::int64_t l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::string machine = Json()
                                  .field("nproc", nproc)
                                  .field("cpu_model", cpu_model())
                                  .field("l2_bytes", l2)
                                  .field("l3_bytes", l3)
                                  .field("oversubscribed", nproc < kClients + 1)
                                  .str();
  const double failed_ratio = ratio(static_cast<double>(r.failed),
                                    static_cast<double>(r.attempted));
  return Json()
      .field("workload", spec.name)
      .field("backend", spec.backend)
      .field("seed", o.seed)
      .field("traced", o.trace)
      .field_raw("config", r.config)
      .field_raw("mix", mix)
      .field_raw("load", load)
      .field_raw("build", build)
      .field_raw("machine", machine)
      .field("correct", r.correct)
      .field("audit", r.audit)
      .field("attempted", r.attempted)
      .field("failed", r.failed)
      .field_raw("failed_ratio", json_number(failed_ratio))
      .field("wrong_results", r.wrong)
      .field_raw("metrics", metrics_json(r.metrics))
      .field_raw("reference", metrics_json(r.reference))
      .field_raw("extra", r.extra.empty() ? "{}" : r.extra)
      .str();
}

// ---------------------------------------------------------------------------
// Self-test: histogram quantiles against a sorted-sample oracle.

int self_test() {
  runtime::Xoshiro256 rng(42);
  int checks = 0;
  int failures = 0;
  auto expect = [&](bool ok, const char* what, double got, double want) {
    ++checks;
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "self-test: %s: got %.3f, want %.3f\n", what, got,
                   want);
    }
  };
  struct Dist {
    const char* name;
    std::uint64_t (*draw)(runtime::Xoshiro256&);
  };
  const Dist dists[] = {
      {"exact range", [](runtime::Xoshiro256& r) { return r.next_range(256); }},
      {"log-uniform",
       [](runtime::Xoshiro256& r) {
         return static_cast<std::uint64_t>(
             std::exp2(r.next_double() * 36.0));
       }},
      {"bimodal tail",
       [](runtime::Xoshiro256& r) {
         return r.next_bool(0.01) ? 1'000'000 + r.next_range(4'000'000)
                                  : 300 + r.next_range(100);
       }},
      {"constant", [](runtime::Xoshiro256&) { return std::uint64_t{123457}; }},
  };
  const double qs[] = {0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
  for (const Dist& d : dists) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{200'000}}) {
      std::vector<std::uint64_t> samples(n);
      LogLinearHistogram whole;
      LogLinearHistogram parts[3];
      for (std::size_t i = 0; i < n; ++i) {
        samples[i] = d.draw(rng);
        whole.record(samples[i]);
        parts[i % 3].record(samples[i]);
      }
      LogLinearHistogram merged;
      for (const auto& p : parts) merged += p;
      std::sort(samples.begin(), samples.end());
      for (const double q : qs) {
        const auto want = static_cast<double>(
            samples[LogLinearHistogram::nearest_rank(q, n) - 1]);
        const double got = whole.quantile(q);
        const double tolerance = want < 256 ? 0 : 0.01 * want;
        expect(std::abs(got - want) <= tolerance, d.name, got, want);
        expect(merged.quantile(q) == got, "merge", merged.quantile(q), got);
      }
    }
  }
  // Bucket edges: every value lands in range, and below the clamp in a
  // bucket whose midpoint is within 1% of it.
  using H = LogLinearHistogram;
  for (int e = 0; e < 64; ++e) {
    for (const std::uint64_t v :
         {std::uint64_t{1} << e, (std::uint64_t{1} << e) + 1,
          (std::uint64_t{1} << e) - 1 + (std::uint64_t{1} << e)}) {
      const std::size_t b = H::bucket_of(v);
      const auto want = static_cast<double>(v);
      expect(e > H::kMaxMsb ||
                 std::abs(H::bucket_value(b) - want) <= 0.01 * want,
             "bucket midpoint", H::bucket_value(b), want);
      expect(b < H::kBuckets, "bucket index", static_cast<double>(b),
             static_cast<double>(H::kBuckets));
    }
  }
  std::printf("%s\n", Json()
                          .field("self_test_ok", failures == 0)
                          .field("checks", checks)
                          .field("failures", failures)
                          .str()
                          .c_str());
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: oftm_benchmark --workload W [--seed S] "
               "[--seconds T] [--warmup T] [--trace 0|1]\n"
               "       oftm_benchmark --self-test\n"
               "workloads:",
               why);
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace oftm::bench

int main(int argc, char** argv) {
  using namespace oftm::bench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (arg == "--warmup") {
      o.warmup = std::strtod(v.c_str(), &end);
    } else if (arg == "--trace") {
      o.trace = v != "0";
    } else {
      return usage(("unknown option " + arg).c_str());
    }
    if (end != nullptr && (end == v.c_str() || *end != '\0')) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  const Spec* spec = find_spec(o.workload);
  if (spec == nullptr) return usage("unknown or missing --workload");
  if (!(o.seconds > 0 && o.seconds <= 600) ||
      !(o.warmup >= 0 && o.warmup <= 600)) {
    return usage("--seconds must be in (0, 600] and --warmup in [0, 600]");
  }
  const Record r = run_workload(*spec, o);
  std::printf("%s\n", record_json(*spec, o, r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
