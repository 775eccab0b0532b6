#include "core/retry.h"

#include <chrono>
#include <thread>

#include "core/failpoints.h"
#include "core/metrics.h"
#include "util/cleanup.h"
#include "util/random.h"
#include "util/strings.h"

namespace nestedtx {

uint64_t RetryBackoffDelayUs(const RetryPolicy& policy,
                             const TransactionId& scope, int attempt) {
  if (policy.backoff_base_us == 0 || attempt <= 0) return 0;
  const int shift = attempt - 1 < 20 ? attempt - 1 : 20;
  uint64_t ceiling = uint64_t{policy.backoff_base_us} << shift;
  if (ceiling > policy.backoff_cap_us) ceiling = policy.backoff_cap_us;
  // Jitter is a pure function of (seed, scope, attempt): reproducible,
  // yet distinct scopes desynchronize — which is what breaks the
  // repeated-collision livelock two identical backoff schedules cause.
  Rng rng(policy.seed ^ static_cast<uint64_t>(scope.Hash()) ^
          (static_cast<uint64_t>(attempt) * 0x9e3779b97f4a7c15ULL));
  return rng.Uniform(ceiling) + 1;
}

namespace {

// The pool of the tree whose Run body is executing on this thread (see
// the lookup rule in retry.h). Run saves and restores it, so a Run
// nested in another Run's body leaves the outer tree's slot intact.
struct TreeSlot {
  const RetryExecutor* owner = nullptr;
  uint32_t top_index = 0;  // TransactionId path[0] of the live attempt
  int* remaining = nullptr;
};
thread_local TreeSlot tls_tree;

}  // namespace

RetryExecutor::RetryExecutor(TransactionManager& manager, RetryPolicy policy)
    : manager_(manager), policy_(policy) {
  if (policy_.max_attempts < 1) policy_.max_attempts = 1;
  if (policy_.max_attempts_top < 1) {
    policy_.max_attempts_top = policy_.max_attempts;
  }
}

bool RetryExecutor::ConsumeRetry(int* remaining) const {
  if (policy_.tree_budget <= 0) return true;
  return (*remaining)-- > 0;
}

Status RetryExecutor::Backoff(const TransactionId& scope, int attempt) {
  FailPoints::MaybeDelay(FailPoints::kRetryBackoff);
  const Status injected = FailPoints::MaybeFail(FailPoints::kRetryBackoff);
  const uint64_t us = RetryBackoffDelayUs(policy_, scope, attempt);
  if (us > 0) {
    // Histogram the sleep actually taken (the scheduler may oversleep),
    // not the planned delay.
    MetricsRegistry& metrics = manager_.metrics();
    const uint64_t start_ns = metrics.enabled() ? MonotonicNowNs() : 0;
    std::this_thread::sleep_for(std::chrono::microseconds(us));
    if (metrics.enabled()) {
      metrics.Record(kHistRetryBackoffNs, MonotonicNowNs() - start_ns);
    }
  }
  return injected;
}

void RetryExecutor::AbortFailed(Transaction& txn) {
  if (txn.returned()) return;
  // Doom first only if children on other threads may be parked in lock
  // waits: they wake with Cancelled now, and the abort below (once they
  // unwound) lifts the doom.
  if (txn.active_children() > 0) txn.Cancel();
  while (!txn.returned()) {
    if (txn.Abort().ok()) return;
    // Abort refuses while children are active: a body handed child
    // handles to threads it is still joining. Wait them out.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool RetryExecutor::RetryableUnder(const Status& s,
                                   const Transaction& parent) const {
  // A failed child's own doom lifted when it aborted; a doom on the
  // parent means this whole subtree is an orphan.
  return IsRetryable(s) &&
         !(s.IsCancelled() && manager_.locks().IsDoomed(parent.id()));
}

Status RetryExecutor::Run(const Database::TxnBody& body) {
  RETURN_IF_ERROR(manager_.AdmitTopLevel());
  auto release = MakeCleanup([this] { manager_.ReleaseTopLevel(); });

  // One budget pool for the whole logical unit of work: every attempt of
  // the top level AND every RunChild its body runs on this thread draw
  // from it.
  int remaining = policy_.tree_budget;
  const TreeSlot enclosing = tls_tree;
  auto restore = MakeCleanup([enclosing] { tls_tree = enclosing; });

  // Both are set by the failed attempt before anything reads them.
  Status last;
  // Jitter from the failed attempt's own id (see RetryBackoffDelayUs).
  TransactionId backoff_scope;
  bool budget_exhausted = false;
  for (int attempt = 0; attempt < policy_.max_attempts_top; ++attempt) {
    if (attempt > 0) {
      if (!ConsumeRetry(&remaining)) {
        budget_exhausted = true;
        break;
      }
      manager_.stats().Add(kStatRetriesAttempted);
      const Status injected = Backoff(backoff_scope, attempt);
      if (!injected.ok()) {
        last = injected;  // injected fault consumes the attempt
        continue;
      }
    }
    std::unique_ptr<Transaction> txn = manager_.Begin();
    if (txn == nullptr) return manager_.failure();  // engine poisoned
    txn->NoteRetryAttempt(static_cast<uint32_t>(attempt));
    tls_tree = TreeSlot{this, txn->id()[0], &remaining};
    Status s = body(*txn);
    if (s.ok()) {
      s = txn->Commit();
      if (s.ok()) return Status::OK();
    }
    AbortFailed(*txn);
    if (!IsRetryable(s)) return s;
    last = s;
    backoff_scope = txn->id();
  }
  manager_.stats().Add(kStatRetriesExhausted);
  return Status::Aborted(StrCat(
      "transaction gave up (",
      budget_exhausted ? "tree retry budget exhausted" : "attempt limit",
      " after ", policy_.max_attempts_top, " attempts); last: ",
      last.ToString()));
}

Status RetryExecutor::RunChild(Transaction& parent,
                               const Database::TxnBody& body) {
  int isolated = policy_.tree_budget;
  int* remaining = &isolated;
  if (tls_tree.owner == this && tls_tree.top_index == parent.id()[0]) {
    remaining = tls_tree.remaining;
  }

  Status last;  // set by the failed attempt before anything reads it
  // As in Run(), the scope tracks the failed child (fresh child indices
  // per attempt); a failed BeginChild keeps the previous scope.
  TransactionId backoff_scope = parent.id();
  bool budget_exhausted = false;
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      if (!ConsumeRetry(remaining)) {
        budget_exhausted = true;
        break;
      }
      manager_.stats().Add(kStatRetriesAttempted);
      const Status injected = Backoff(backoff_scope, attempt);
      if (!injected.ok()) {
        last = injected;
        continue;
      }
    }
    Result<std::unique_ptr<Transaction>> child = parent.BeginChild();
    if (!child.ok()) {
      // An injected begin fault consumes this attempt; a parent-scope
      // refusal (returned, doomed) is not ours to retry.
      if (!RetryableUnder(child.status(), parent)) return child.status();
      last = child.status();
      continue;
    }
    (*child)->NoteRetryAttempt(static_cast<uint32_t>(attempt));
    Status s = body(**child);
    if (s.ok()) {
      s = (*child)->Commit();
      if (s.ok()) return Status::OK();
    }
    AbortFailed(**child);
    if (!RetryableUnder(s, parent)) return s;
    last = s;
    backoff_scope = (*child)->id();
  }
  manager_.stats().Add(kStatRetriesExhausted);
  // Escalation: this subtree cannot make progress, so the parent will
  // have to abort or retry — stop sibling work that can no longer
  // usefully commit. The parent's own Abort lifts the doom.
  if (policy_.escalate_cancels_parent) parent.Cancel();
  return Status::Aborted(StrCat(
      "subtree under ", parent.id(), " gave up (",
      budget_exhausted ? "tree retry budget exhausted" : "attempt limit",
      " after ", policy_.max_attempts, " attempts); last: ",
      last.ToString()));
}

}  // namespace nestedtx
