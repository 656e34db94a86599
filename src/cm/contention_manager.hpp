// Contention management for obstruction-free TMs.
//
// Section 1 of the paper: "A contention manager might tell Tk to back off
// for some fixed time (maybe random) to give Ti a chance, but eventually Tk
// must be able to abort Ti and acquire x without any interaction with Ti."
//
// The decision interface below encodes exactly that contract: a manager may
// answer kWait finitely many times, but obstruction-freedom requires that
// for any fixed conflict, repeated consultation eventually yields
// kAbortVictim or kAbortSelf (it must not force the caller to wait on the
// victim forever). Every implementation in managers.hpp satisfies this and
// a property test enforces it (cm_test.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "core/types.hpp"

namespace oftm::cm {

enum class Decision {
  kAbortVictim,  // forcefully abort the transaction that owns the object
  kWait,         // back off and re-examine the conflict
  kAbortSelf,    // abort the requesting transaction
};

// A conflict between the calling transaction ("self") and the current owner
// of an object ("victim"). `attempt` counts consecutive consultations for
// the same conflict; managers use it to bound politeness.
struct Conflict {
  int self_tid = 0;
  int victim_tid = 0;
  core::TxId self_tx = 0;
  core::TxId victim_tx = 0;
  int attempt = 0;
};

// Shared by all threads of one TM instance; implementations must be
// thread-safe. Notification hooks let managers maintain priorities.
class ContentionManager {
 public:
  virtual ~ContentionManager() = default;

  virtual Decision on_conflict(const Conflict& c) = 0;

  // Lifecycle notifications (no-ops by default).
  virtual void on_tx_begin(int tid, core::TxId tx) { (void)tid; (void)tx; }
  virtual void on_open(int tid) { (void)tid; }
  virtual void on_commit(int tid) { (void)tid; }

  virtual std::string name() const = 0;
};

}  // namespace oftm::cm
