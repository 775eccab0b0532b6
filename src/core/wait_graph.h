// Wait-for graph for deadlock detection, ancestor-aware.
//
// A waiter registers edges to the (non-ancestor) holders blocking it; the
// registration reports a cycle if one would result, and the configured
// VictimPolicy picks a transaction on the cycle to abort. Nested
// transactions make a waiter the cheap place to be a victim: only the
// waiting subtree retries, not the whole top-level transaction — the
// partial-abort advantage the paper's introduction motivates.
//
// Detector: iterative DFS on an explicit stack (no recursion-depth
// blowups) over an adjacency map keyed by packed TransactionId. The map's
// lexicographic key order doubles as an ancestor-closure index: the
// registered waiters related to a node n are n's registered ancestors
// (one O(log n) lookup per prefix of n's path) plus a contiguous key
// range of registered descendants starting at upper_bound(n) — so each
// node expansion costs O(depth·log W + related) instead of scanning every
// edge in the graph. Negative reachability results are memoized across
// the per-holder checks of one registration (edge removals cannot create
// paths, so negatives stay valid).
#ifndef NESTEDTX_CORE_WAIT_GRAPH_H_
#define NESTEDTX_CORE_WAIT_GRAPH_H_

#include <condition_variable>
#include <map>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "core/options.h"
#include "tx/transaction_id.h"
#include "util/status.h"

namespace nestedtx {

class WaitGraph {
 public:
  /// Where a registered waiter sleeps, so a cycle check that victimizes
  /// it can wake it. The mutex is the one the waiter's condition wait
  /// releases; notifying under it closes the lost-wakeup window between
  /// the victim's flag check and its wait.
  struct WaiterInfo {
    std::mutex* mutex = nullptr;
    std::condition_variable* cv = nullptr;
  };

  /// A victim notification the caller must deliver: acquire and release
  /// `*mutex`, then `cv->notify_all()` with no mutex held. Passing
  /// through the mutex orders the delivery after the victim's
  /// check-then-wait critical section (no lost wakeup); notifying after
  /// dropping it means the woken victim never blocks on a mutex the
  /// notifier still owns. Delivered by the caller, not under the graph
  /// mutex, so the graph never takes a key mutex (lock-order safety).
  struct Wakeup {
    std::mutex* mutex = nullptr;
    std::condition_variable* cv = nullptr;
  };

  /// Victim choice on cycle (default: requester dies, no signalling).
  void SetVictimPolicy(VictimPolicy policy);

  /// Register `waiter -> holder` edges (replacing any previous edges of
  /// `waiter` — including on failure: a rejected registration never
  /// leaves the previous wait's edges behind). Edges where holder is an
  /// ancestor or descendant of waiter are skipped — ancestors do not
  /// conflict, and a wait on one's own descendant resolves when the
  /// child returns.
  ///
  /// If the registration would close a cycle and the policy picks the
  /// requester, returns Deadlock (entry removed). If the policy picks
  /// another waiter on the cycle, that waiter is marked (see TakeVictim),
  /// its edges are cleared, a Wakeup for it is appended to `wakeups`,
  /// and registration proceeds.
  Status AddWait(const TransactionId& waiter,
                 const std::vector<TransactionId>& holders,
                 const WaiterInfo& info, std::vector<Wakeup>* wakeups);
  Status AddWait(const TransactionId& waiter,
                 const std::vector<TransactionId>& holders) {
    return AddWait(waiter, holders, WaiterInfo(), nullptr);
  }

  /// Remove all outgoing edges of `waiter` (wait over or re-evaluated).
  void RemoveWait(const TransactionId& waiter);

  /// True (at most once) if `waiter` was chosen as a deadlock victim by
  /// another transaction's cycle check; consumes the mark and removes the
  /// entry. A waiting transaction must check this on every wakeup.
  bool TakeVictim(const TransactionId& waiter);

  /// Number of transactions currently waiting (diagnostics). Victimized
  /// entries pending pickup are not counted — their wait is over.
  size_t NumWaiters() const;

  /// Current outgoing edges of `waiter` (diagnostics/tests).
  std::vector<TransactionId> WaitingOn(const TransactionId& waiter) const;

 private:
  struct Node {
    std::vector<TransactionId> holders;  // sorted unique outgoing edges
    std::mutex* waiter_mutex = nullptr;
    std::condition_variable* waiter_cv = nullptr;
    bool victim = false;  // chosen as victim; pending TakeVictim pickup
  };
  using NodeMap = std::map<TransactionId, Node>;
  using IdHashSet = std::unordered_set<TransactionId, TransactionIdHash>;

  // True iff `target` is reachable from `from`, treating an edge u->v as
  // blocking every transaction related (ancestor/descendant) to u: a node
  // is blocked by its own wait, a live descendant's wait (the parent
  // cannot return until the child does), or an ancestor's wait (the
  // ancestor's lock moves only when the ancestor progresses). This is
  // deliberately conservative — a false cycle costs one subtree retry; a
  // missed cycle costs a hang. On success, `cycle_waiters` receives the
  // registered waiters whose edges form the path (victim candidates);
  // `no_path` accumulates nodes proven unable to reach `target`.
  // Caller holds mutex_.
  bool FindCycle(const TransactionId& from, const TransactionId& target,
                 IdHashSet* no_path,
                 std::vector<TransactionId>* cycle_waiters) const;

  // Pick the victim among the requester and the cycle's registered
  // waiters, per policy_. Ties always go to the requester (cheapest: no
  // cross-thread signalling). Caller holds mutex_.
  TransactionId ChooseVictim(
      const TransactionId& requester,
      const std::vector<TransactionId>& cycle_waiters) const;

  mutable std::mutex mutex_;
  VictimPolicy policy_ = VictimPolicy::kRequester;
  NodeMap waiters_;  // lexicographic order == tree pre-order
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_WAIT_GRAPH_H_
