// Pluggable conflict scheduling for the lock manager — the CcProtocol
// seam (see core/options.h).
//
// The lock manager's grant rule (Moss compatibility: every conflicting
// holder must be an ancestor) is protocol-independent; what varies is
// the fate of a requester the rule rejects. ConflictPolicy owns exactly
// that decision, made under the key's mutex with the conflicting holder
// set in hand:
//
//   detect    — wait, registered in a policy-private wait-for graph; a
//               registration that would close a cycle victimizes someone
//               (the engine's historical behaviour, and the default).
//   wait-die  — wait iff the requester is older than EVERY conflicting
//               holder (TransactionId lexicographic order; path[0] is
//               the top-level begin ordinal, so cross-tree age is begin
//               order). A younger requester dies with Status::Deadlock.
//               All waits run young->old — an acyclic order, so no
//               deadlock can form and no detector exists.
//   no-wait   — any conflict dies immediately with Status::Deadlock.
//
// State ownership: the wait-for graph, the cycle detector and the victim
// policy are all private to the detection policy. Prevention policies carry no
// state at all — their decisions are pure functions of (requester,
// holders) — which is what makes them trivially correct against the
// doom registry, the park table and the batched release path: those
// engine mechanisms never consult the policy.
//
// Lock-word interaction: every OnConflict call happens on the slow path
// under an inflated key (WaitForGrant re-asserts inflation before
// reading holders), so a prevention-policy abort is a conflict event
// like any other — the key escalates to the mutex regime, and a
// conflicting fast-path CAS can never spin-retry its way past a policy
// that wanted the requester dead.
#ifndef NESTEDTX_CORE_CC_POLICY_H_
#define NESTEDTX_CORE_CC_POLICY_H_

#include <memory>
#include <vector>

#include "core/options.h"
#include "core/wait_graph.h"
#include "tx/transaction_id.h"
#include "util/status.h"

namespace nestedtx {

class ConflictPolicy {
 public:
  virtual ~ConflictPolicy() = default;

  /// What WaitForGrant does with a conflicting request.
  struct Decision {
    enum class Action {
      kWait,   // park on the key's cv and re-evaluate on wake
      kAbort,  // return `status` to the caller (the requester dies)
    };
    Action action = Action::kWait;
    /// kWait only: the waiter entered the policy's wait registry and
    /// must be cleared via OnWaitEnd when the wait resolves.
    bool registered = false;
    /// kAbort only: the status to return (always retryable).
    Status status;
    /// kAbort only: a prevention-rule death (wait-die / no-wait), as
    /// opposed to a detected-cycle victim. Drives the stats split:
    /// prevention aborts count under kStatPreventionAborts, detected
    /// cycles under kStatDeadlocks.
    bool prevention = false;
  };

  /// Decide the fate of `txn`, blocked on `holders` (non-empty, already
  /// deduplicated, no ancestors of txn). Called under the key's mutex.
  /// `info` describes where the requester would park; detection may
  /// append victim Wakeups the caller must deliver (key mutex dropped)
  /// before re-evaluating.
  virtual Decision OnConflict(const TransactionId& txn,
                              const std::vector<TransactionId>& holders,
                              const WaitGraph::WaiterInfo& info,
                              std::vector<WaitGraph::Wakeup>* wakeups) = 0;

  /// True (at most once) when another transaction's conflict handling
  /// marked `txn` as a victim; consumes the mark and its registration.
  /// Prevention policies never victimize third parties.
  virtual bool TakeVictim(const TransactionId& txn) {
    (void)txn;
    return false;
  }

  /// Clear `txn`'s wait registration (every WaitForGrant exit with
  /// Decision::registered still outstanding).
  virtual void OnWaitEnd(const TransactionId& txn) { (void)txn; }

  /// Defensive teardown sweep from Transaction::Abort/Commit: drop any
  /// registration `txn` may have leaked (an operation torn down with a
  /// result still in flight).
  virtual void OnTransactionEnd(const TransactionId& txn) { (void)txn; }

  /// Registered waiters (drain diagnostics; 0 for prevention policies,
  /// whose waiters are tracked only by the park table).
  virtual size_t NumWaiters() const { return 0; }

  /// The detection policy's wait graph; nullptr for prevention policies
  /// (test surface — production code never reaches past the policy).
  virtual WaitGraph* graph() { return nullptr; }

  virtual const char* Name() const = 0;
};

/// The per-engine protocol switch (Cavalia's DYNAMIC_CC idiom): one
/// construction-time dispatch on EngineOptions::cc_protocol, after which
/// the lock manager talks only to the interface.
std::unique_ptr<ConflictPolicy> MakeConflictPolicy(
    const EngineOptions& options);

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_CC_POLICY_H_
