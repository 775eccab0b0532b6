#include "core/wait_graph.h"

#include <algorithm>

#include "util/strings.h"

namespace nestedtx {

namespace {

bool Related(const TransactionId& a, const TransactionId& b) {
  return a.IsAncestorOf(b) || b.IsAncestorOf(a);
}

// `a` is a "younger subtree" than `b`: deeper in the tree, or at equal
// depth begun later (child indices grow monotonically, so the
// lexicographically greater sibling path is the later one).
bool YoungerSubtree(const TransactionId& a, const TransactionId& b) {
  if (a.Depth() != b.Depth()) return a.Depth() > b.Depth();
  return b < a;
}

}  // namespace

void WaitGraph::SetVictimPolicy(VictimPolicy policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  policy_ = policy;
}

bool WaitGraph::FindCycle(const TransactionId& from,
                          const TransactionId& target, IdHashSet* no_path,
                          std::vector<TransactionId>* cycle_waiters) const {
  // Trail of discovered nodes with parent links so the cycle path can be
  // reconstructed; `stack` holds indices still to expand (explicit-stack
  // DFS — deep wait chains must not recurse).
  struct Trail {
    TransactionId id;
    int parent;          // index into trail, -1 for the root
    int via_waiter;      // index into waiter_ids, -1 for the root
  };
  std::vector<Trail> trail;
  std::vector<TransactionId> waiter_ids;  // registered waiters traversed
  std::vector<size_t> stack;
  trail.push_back(Trail{from, -1, -1});
  stack.push_back(0);

  // Expand every registered, non-victimized waiter related to trail[cur]
  // — its ancestors via one map lookup per path prefix, its descendants
  // via the contiguous lexicographic range just after it.
  auto expand = [&](size_t cur) {
    const auto visit = [&](NodeMap::const_iterator it) {
      if (it->second.holders.empty()) return;
      const int via = static_cast<int>(waiter_ids.size());
      waiter_ids.push_back(it->first);
      for (const TransactionId& dst : it->second.holders) {
        if (no_path->count(dst) != 0) continue;
        trail.push_back(Trail{dst, static_cast<int>(cur), via});
        stack.push_back(trail.size() - 1);
      }
    };
    for (TransactionId a = trail[cur].id;; a = a.Parent()) {
      auto it = waiters_.find(a);
      if (it != waiters_.end()) visit(it);
      if (a.IsRoot()) break;
    }
    // Proper descendants occupy a contiguous key range after the id.
    const TransactionId self = trail[cur].id;  // trail may reallocate
    for (auto it = waiters_.upper_bound(self);
         it != waiters_.end() && self.IsAncestorOf(it->first); ++it) {
      visit(it);
    }
  };

  while (!stack.empty()) {
    const size_t cur = stack.back();
    stack.pop_back();
    const TransactionId id = trail[cur].id;
    if (Related(id, target)) {
      // Reconstruct the registered waiters along the path (victim
      // candidates; deduped, order irrelevant).
      for (int i = static_cast<int>(cur); i != -1; i = trail[i].parent) {
        const int via = trail[i].via_waiter;
        if (via == -1) continue;
        const TransactionId& w = waiter_ids[via];
        if (std::find(cycle_waiters->begin(), cycle_waiters->end(), w) ==
            cycle_waiters->end()) {
          cycle_waiters->push_back(w);
        }
      }
      return true;
    }
    if (!no_path->insert(id).second) continue;  // already expanded
    expand(cur);
  }
  // Exhaustive failure: everything in no_path was fully expanded without
  // reaching target, so those negatives are reusable by later checks.
  return false;
}

TransactionId WaitGraph::ChooseVictim(
    const TransactionId& requester,
    const std::vector<TransactionId>& cycle_waiters) const {
  switch (policy_) {
    case VictimPolicy::kRequester:
      return requester;
    case VictimPolicy::kYoungestSubtree: {
      TransactionId best = requester;
      for (const TransactionId& cand : cycle_waiters) {
        if (YoungerSubtree(cand, best)) best = cand;
      }
      return best;
    }
  }
  return requester;
}

Status WaitGraph::AddWait(const TransactionId& waiter,
                          const std::vector<TransactionId>& holders,
                          const WaiterInfo& info,
                          std::vector<Wakeup>* wakeups) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TransactionId> useful;
  for (const TransactionId& h : holders) {
    if (Related(h, waiter)) continue;
    auto it = std::lower_bound(useful.begin(), useful.end(), h);
    if (it == useful.end() || !(*it == h)) useful.insert(it, h);
  }
  // This registration replaces any previous wait by `waiter`, so the old
  // edges are dropped before the cycle check — stale self-edges must not
  // count as paths (and must not survive a rejected registration).
  Node& node = waiters_[waiter];
  node.holders.clear();
  node.waiter_mutex = info.mutex;
  node.waiter_cv = info.cv;
  if (useful.empty()) return Status::OK();

  // Would any holder's blocked-set reach back to the waiter? Negative
  // results carry across holders (removals cannot create paths); the memo
  // is discarded after a victimization, whose successful search polluted
  // it with nodes that did reach the target.
  IdHashSet no_path;
  for (size_t i = 0; i < useful.size();) {
    const TransactionId& h = useful[i];
    std::vector<TransactionId> cycle_waiters;
    if (!FindCycle(h, waiter, &no_path, &cycle_waiters)) {
      ++i;
      continue;
    }
    const TransactionId victim = ChooseVictim(waiter, cycle_waiters);
    if (victim == waiter) {
      // Keep the entry only if a concurrent check already victimized us
      // (the pending mark must survive until TakeVictim).
      if (!node.victim) waiters_.erase(waiter);
      return Status::Deadlock(
          StrCat("wait by ", waiter, " on ", h, " closes a cycle"));
    }
    // Victimize another waiter on the cycle: mark it, drop its edges (it
    // is no longer logically waiting), and hand its wakeup to the caller.
    // Re-check the same holder — a second cycle may remain. Terminates:
    // every victimization clears a non-empty edge set.
    Node& v = waiters_[victim];
    v.victim = true;
    v.holders.clear();
    if (v.waiter_cv != nullptr && wakeups != nullptr) {
      wakeups->push_back(Wakeup{v.waiter_mutex, v.waiter_cv});
    }
    no_path.clear();
  }
  node.holders = std::move(useful);
  return Status::OK();
}

void WaitGraph::RemoveWait(const TransactionId& waiter) {
  std::lock_guard<std::mutex> lock(mutex_);
  waiters_.erase(waiter);
}

bool WaitGraph::TakeVictim(const TransactionId& waiter) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = waiters_.find(waiter);
  if (it == waiters_.end() || !it->second.victim) return false;
  waiters_.erase(it);
  return true;
}

size_t WaitGraph::NumWaiters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& [id, node] : waiters_) {
    if (!node.holders.empty()) ++n;
  }
  return n;
}

std::vector<TransactionId> WaitGraph::WaitingOn(
    const TransactionId& waiter) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = waiters_.find(waiter);
  if (it == waiters_.end()) return {};
  return it->second.holders;
}

}  // namespace nestedtx
