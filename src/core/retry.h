// Fault-tolerant execution: subtree retry under bounded backoff, orphan
// cancellation on failure, and admission control on top-level begins.
//
// The paper's serial-correctness result (Theorem 34) holds for EVERY
// schedule the lock discipline admits, so an execution layer is free to
// abort a failed subtree and re-run it — as a fresh subtransaction with a
// fresh id — without touching the correctness argument. RetryExecutor is
// that layer: it turns the transient failures the engine reports
// (deadlock victims, lock timeouts, injected faults) into bounded
// re-execution of exactly the failed subtree, which is the practical
// payoff of nesting over flat transactions.
//
// Safety hinges on three engine facts:
//   1. An aborted subtransaction's effects are discarded wholesale by the
//      lock manager, so a re-run cannot double-apply.
//   2. Each attempt runs under a fresh TransactionId (monotone child
//      counters never reuse indices), so stale state — doom entries,
//      wait-graph edges — can never be mistaken for the new attempt.
//   3. Cancellation (Transaction::Cancel) only dooms ids by subtree
//      prefix; the doom lifts when the doomed root aborts.
//
// Retry is NOT attempted for semantic failures (InvalidArgument,
// NotFound surfaced as errors, FailedPrecondition) or for admission
// sheds (Overloaded); IsRetryable below is the one rule, and every
// managed loop applies it: RetryExecutor::Run and RunChild, hence
// Database::RunTransaction and RunNested, which are thin calls into them.
#ifndef NESTEDTX_CORE_RETRY_H_
#define NESTEDTX_CORE_RETRY_H_

#include <cstdint>

#include "core/database.h"
#include "tx/transaction_id.h"
#include "util/status.h"

namespace nestedtx {

/// Knobs for RetryExecutor. Database::RunTransaction and RunNested run
/// with the defaults (50us..12.8ms backoff, no tree budget) and their
/// own attempt count; RunNested also turns escalate_cancels_parent off.
struct RetryPolicy {
  /// Attempts per subtree retry scope (the initial run counts as one).
  /// Kept deliberately small: a subtree retry cannot release
  /// ancestor-held locks, so a deadlock cycle running through the
  /// parents is only broken by the subtree exhausting its attempts and
  /// escalating — small bounds escalate (and so resolve) quickly.
  /// At least 1.
  int max_attempts = 8;

  /// Attempts for the top level (RetryExecutor::Run). A top-level retry
  /// releases everything the tree held, so generous bounds are safe and
  /// useful where subtree bounds are not. 0 = same as max_attempts.
  int max_attempts_top = 0;

  /// Shared re-run budget for one transaction tree: the top-level loop
  /// and the nested RunChild loops its body runs draw from the same pool
  /// (lookup rule: see RetryExecutor), so a storm of failing subtrees
  /// cannot multiply work combinatorially. 0 = unlimited.
  int tree_budget = 0;

  /// Exponential backoff before the n-th retry: jittered uniform in
  /// (0, min(backoff_base_us << (n-1), backoff_cap_us)]. base 0 = none.
  uint32_t backoff_base_us = 50;
  uint32_t backoff_cap_us = 12800;

  /// Seed for the jitter stream. Delays are a pure function of
  /// (seed, retry scope id, attempt), so a fixed seed gives reproducible
  /// backoff schedules in tests.
  uint64_t seed = 0xbac0ffULL;

  /// When a subtree exhausts its attempts, cancel the parent's subtree
  /// before reporting failure: sibling work that can no longer commit
  /// usefully (the parent is about to abort or retry) stops early.
  /// Database::RunNested turns it off: a replicated quorum's failed copy
  /// must abort only its own call and leave the parent committable.
  bool escalate_cancels_parent = true;
};

/// The deterministic backoff delay before retry `attempt` (1-based) of
/// the scope identified by `scope`. Every retry loop passes the id of
/// the attempt that just failed: fresh per attempt and distinct across
/// loops, so two transactions that abort each other (deadlock victims,
/// prevention deaths, OCC validation failures) never sleep identical
/// delays and re-collide forever.
uint64_t RetryBackoffDelayUs(const RetryPolicy& policy,
                             const TransactionId& scope, int attempt);

/// The retry rule: true iff an attempt that failed with `s` can be
/// aborted and re-run under a fresh id without applying anything twice.
/// Deadlock, TimedOut, Aborted and Cancelled are transient (a fresh
/// attempt's id matches no stale doom); IoError is a WAL append that
/// failed before any effect was installed. DurabilityLost is not: the
/// effects are installed, and a re-run would apply them again.
/// RunChild adds one rule of its own (see there).
inline bool IsRetryable(const Status& s) {
  return s.IsDeadlock() || s.IsTimedOut() || s.IsAborted() ||
         s.IsCancelled() || s.IsIoError();
}

/// Runs transaction bodies with subtree-granular retry. Thread-safe: one
/// executor may serve many threads and shares no mutable state between
/// them.
///
/// Tree budget lookup: Run keeps its tree's pool (RetryPolicy::
/// tree_budget) in a thread-local slot for the duration of its body. A
/// RunChild on the thread running that body, under a parent of the same
/// tree, draws from that pool. Any other RunChild — on a thread the body
/// handed a handle to, or under a tree begun with a raw Begin() — gets a
/// pool of its own, sized tree_budget, for this one call.
///
/// Cancellation: a failed attempt is cancelled (its subtree doomed) before
/// its abort only while it still has live children, i.e. handles the body
/// gave to other threads. Only those can be parked in a lock wait the
/// doom wakes; any live doom costs every thread's IsDoomed the doom mutex
/// and turns off lock-word fast grants, so a failed attempt without live
/// children is aborted without one.
class RetryExecutor {
 public:
  explicit RetryExecutor(Database* db, RetryPolicy policy = {})
      : RetryExecutor(db->manager(), policy) {}
  /// The same, for a caller that holds only a transaction handle
  /// (Database::RunNested passes parent.manager()).
  RetryExecutor(TransactionManager& manager, RetryPolicy policy);

  /// Run `body` as a top-level transaction under the retry policy.
  /// Passes the admission gate first (Status::Overloaded when shed; the
  /// slot is held across ALL attempts, so retries of admitted work never
  /// re-queue behind fresh arrivals).
  Status Run(const Database::TxnBody& body);

  /// Run `body` as a subtransaction of `parent`, retrying only this
  /// subtree on transient failure. Beyond IsRetryable, Cancelled (from
  /// the body or from BeginChild) is retried only while `parent` is not
  /// doomed: under a cancelled ancestor the subtree is an orphan and must
  /// unwind, not spin. On exhaustion, escalates per policy (cancels the
  /// parent's subtree) and returns the give-up status; the caller's own
  /// retry scope decides what happens next.
  Status RunChild(Transaction& parent, const Database::TxnBody& body);

  const RetryPolicy& policy() const { return policy_; }

 private:
  /// True if a retry may proceed (consumes one unit of `*remaining` when
  /// budgeted).
  bool ConsumeRetry(int* remaining) const;
  /// Backoff before retry `attempt` of `scope`; kRetryBackoff failpoint
  /// may inject a failure, returned for the caller to count as a failed
  /// attempt.
  Status Backoff(const TransactionId& scope, int attempt);
  /// Abort a failed attempt: cancel it first if it has live children
  /// (see the class comment), then wait out any children a body leaked
  /// to other threads (Abort refuses while children are active).
  static void AbortFailed(Transaction& txn);
  /// IsRetryable plus RunChild's rule for Cancelled under `parent`.
  bool RetryableUnder(const Status& s, const Transaction& parent) const;

  TransactionManager& manager_;
  RetryPolicy policy_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_RETRY_H_
