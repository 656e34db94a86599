// Observability taxonomy: the abort-reason and phase vocabularies.
//
// This header is dependency-free on purpose: runtime/stats.hpp needs the
// enum sizes to shape TxStats without pulling the rest of the obs layer
// (and its runtime/ includes) into a cycle. The names here are the wire
// vocabulary — they appear verbatim as JSON keys in workload::report
// lines and as span annotations in exported traces, so changing one is a
// baseline-breaking change (re-record bench/baselines/REPORT_*.jsonl).
//
// The OFTM_OBS gate also lives here so every translation unit sees the
// same setting: 1 (default) compiles the instrumentation in, 0 compiles
// it away entirely (CMake -DOFTM_OBS=OFF). TxStats keeps its obs-shaped
// fields in both modes — they just stay zero when the gate is off — so
// the struct layout never depends on the gate (no ODR hazard between
// obs-on and obs-off objects is possible anyway, but report/consumer
// code stays identical too).
#pragma once

#include <cstddef>
#include <cstdint>

#ifndef OFTM_OBS
#define OFTM_OBS 1
#endif

#if OFTM_OBS
#define OFTM_OBS_ONLY(...) __VA_ARGS__
#else
#define OFTM_OBS_ONLY(...)
#endif

namespace oftm::obs {

// Why a transaction aborted. Stamped at every abort site in every
// backend; per-reason counts must sum exactly to TxStats::aborts (the
// reconciliation invariant obs_test enforces across all recipes).
enum class AbortReason : std::uint8_t {
  // try_abort with no more specific cause: the program gave up on the
  // transaction (TxView::cancel, conformance-test aborts, driver
  // shutdown).
  kUserRequested = 0,
  // TxView::retry(): the program asked for a fresh attempt (condition
  // not yet true). Distinguished from kUserRequested via a thread-local
  // hint because both funnel through the same try_abort entry point.
  kExplicitRetry = 1,
  // A read (or commit-time read-set validation) observed a version,
  // value, or locator newer than the transaction's snapshot.
  kReadValidation = 2,
  // Commit-time (TL2) or encounter-time (TL) lock acquisition exhausted
  // its bounded patience against a concurrently held lock.
  kLockTimeout = 3,
  // The global snapshot moved (NOrec seqlock, FOCTM version register)
  // and value-based revalidation could not re-anchor the read set.
  kSnapshotChanged = 4,
  // Killed by or for a concurrent transaction: a contention-manager
  // kAbortSelf decision, an externally installed kAborted status
  // (DSTM kill / reader sweep), or FOCTM ownership revocation.
  kCmKill = 5,
  // Reserved: aborts forced by reclamation pressure (no backend
  // currently aborts for this; the counter exists so the report schema
  // is stable when one does).
  kEpochPressure = 6,
};

inline constexpr std::size_t kNumAbortReasons = 7;

inline constexpr const char* abort_reason_name(std::size_t i) {
  constexpr const char* kNames[kNumAbortReasons] = {
      "user_requested", "explicit_retry",   "read_validation",
      "lock_timeout",   "snapshot_changed", "cm_kill",
      "epoch_pressure",
  };
  return i < kNumAbortReasons ? kNames[i] : "?";
}

// Where a transaction spends its time. Instrumented as scoped intervals
// (inclusive timing: a backoff pause inside a commit-lock loop counts
// toward both kBackoff and kCommitLock).
enum class Phase : std::uint8_t {
  kReadLookup = 0,   // own-write / read-set probe on the read path
  kValidation = 1,   // read-set validation & value-based revalidation
  kCommitLock = 2,   // lock/ownership acquisition (commit- or encounter-time)
  kWriteBack = 3,    // redo-log write-back / undo rollback
  kBackoff = 4,      // contention pauses inside acquisition loops
};

inline constexpr std::size_t kNumPhases = 5;

inline constexpr const char* phase_name(std::size_t i) {
  constexpr const char* kNames[kNumPhases] = {
      "read_lookup", "validation", "commit_lock", "write_back", "backoff",
  };
  return i < kNumPhases ? kNames[i] : "?";
}

// One entry of the merged conflict heat map: a contended location (TVarId
// for the boxed backends, stripe index for tl2-region, word index —
// address >> 3 — for norec-region) and how many forced aborts it caused.
struct HotVar {
  std::uint64_t key = 0;
  std::uint64_t hits = 0;
};

// Sentinel for "no location attributable" (e.g. a whole-read-set
// validation failure that cannot name a single culprit).
inline constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

}  // namespace oftm::obs
