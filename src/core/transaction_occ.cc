// The optimistic protocol family of Transaction (CcProtocol::kOcc;
// DESIGN.md §4.9): buffered access, child validate-and-merge, top-level
// commit. Transaction::Access and Transaction::Commit (transaction.cc)
// enter here once per operation.
#include <algorithm>

#include "core/transaction.h"
#include "serial/data_type.h"
#include "util/strings.h"

namespace nestedtx {

Result<std::optional<int64_t>> Transaction::OccAccess(const std::string& key,
                                                      OpDescriptor op) {
  // Reads and Add observe the current value, recording a read dependency
  // alongside any buffered write; the blind Put and Delete do not.
  std::optional<int64_t> current;
  if (op.code == ops::kRead || op.code == ops::kCellAdd) {
    Result<std::optional<int64_t>> r = OccObserve(key);
    if (!r.ok()) return r;
    current = *r;
  }
  const std::optional<int64_t> next = ApplyCellOp(op, current);
  if (op.code == ops::kRead) {
    manager_->stats().Add(kStatOccReads);
  } else {
    RecordWrite(key, next);
    manager_->stats().Add(kStatOccWrites);
  }
  if (manager_->locks().trace_recorder() != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    occ_ops_.push_back(OccOp{key, op, next});
  }
  return next;
}

Transaction::OccHit Transaction::OccLookupLocked(
    const std::string& key, std::optional<int64_t>* value) {
  auto wit = FindByKey(writes_, key);
  if (wit != writes_.end() && wit->key == key) {
    *value = wit->value;
    return OccHit::kWrite;
  }
  auto rit = FindByKey(occ_reads_, key);
  if (rit != occ_reads_.end() && rit->key == key) {
    *value = rit->observed;
    return OccHit::kRead;
  }
  return OccHit::kNone;
}

Transaction::OccHit Transaction::OccLookupChain(
    Transaction* t, const std::string& key, std::optional<int64_t>* value) {
  OccHit hit = OccHit::kNone;
  for (; t != nullptr && hit == OccHit::kNone; t = t->parent_) {
    std::lock_guard<std::mutex> lock(t->mutex_);
    hit = t->OccLookupLocked(key, value);
  }
  return hit;
}

Result<std::optional<int64_t>> Transaction::OccObserve(
    const std::string& key) {
  // Own buffers first: a handle's repeat reads are served locally, so the
  // read set holds at most one entry per key and reads are repeatable.
  std::optional<int64_t> v;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (OccLookupLocked(key, &v) != OccHit::kNone) return v;
  }
  // Ancestors' buffers: a child reads through the parent chain the way a
  // locking child reads through inherited versions (never with our own
  // mutex held — see OccLookupChain).
  LockManager::OccReadEntry e;
  e.key = key;
  if (OccLookupChain(parent_, key, &v) != OccHit::kNone) {
    // Buffer-sourced: no word to validate; the merge into the parent
    // re-resolves the key and fails if the observation went stale.
    e.observed = v;
    e.from_store = false;
  } else if (manager_->locks().trace_recorder() != nullptr) {
    // Traced runs replay the commit through the mutex-ordered grant
    // paths, which keep keys inflated — the word is no validation
    // version there. ReadBase gives the committed value; the replay
    // itself re-validates every observation under real locks.
    e.observed = manager_->locks().ReadBase(key);
    e.from_store = true;
    v = e.observed;
  } else {
    Result<std::optional<int64_t>> r = manager_->locks().OccReadKey(key, &e);
    if (!r.ok()) return r.status();
    v = *r;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  occ_reads_.insert(FindByKey(occ_reads_, e.key), std::move(e));
  return v;
}

Status Transaction::OccMergeIntoParent() {
  std::vector<WalWrite> writes;
  std::vector<LockManager::OccReadEntry> reads;
  std::vector<OccOp> ops;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    writes.swap(writes_);
    reads.swap(occ_reads_);
    ops.swap(occ_ops_);
  }
  // parent_->mutex_ is held across validate AND merge: sibling merges
  // serialize here, so two children that both observed a key and both
  // buffered conflicting writes cannot slip past each other's
  // validation. Resolution above the parent locks one ancestor at a
  // time, strictly child->ancestor — merges at different depths take
  // mutexes in depth order and cannot deadlock.
  std::lock_guard<std::mutex> plock(parent_->mutex_);
  for (const LockManager::OccReadEntry& e : reads) {
    std::optional<int64_t> v;
    OccHit h = parent_->OccLookupLocked(e.key, &v);
    if (h == OccHit::kNone) h = OccLookupChain(parent_->parent_, e.key, &v);
    if (h == OccHit::kNone) {
      if (!e.from_store) {
        // The ancestor buffer this read was served from is gone —
        // nothing left to pin the observation; fail conservatively.
        manager_->stats().Add(kStatOccValidationAborts);
        return Status::Aborted(StrCat(
            id_, " OCC merge: buffered source for key '", e.key,
            "' vanished"));
      }
      continue;  // store-sourced: rides up for top-level validation
    }
    if (v != e.observed) {
      // A sibling's merged write (or a differing ancestor observation)
      // invalidated this read: partial abort — only this subtree
      // discards its work and retries.
      manager_->stats().Add(kStatOccValidationAborts);
      return Status::Aborted(StrCat(
          id_, " OCC merge validation failed on key '", e.key, "'"));
    }
    // Disposition on a value match: buffer-sourced entries are pure
    // duplicates of the ancestor's own observation and drop out (the
    // merge below skips !from_store). Store-sourced entries ALWAYS
    // keep their word — even when an ancestor's buffered write
    // matches the value, the store observation is independent, and a
    // concurrent top-level committer could still invalidate it
    // between our read and the tree's install.
  }
  // Merge. Surviving store-sourced reads insert unless an identical word
  // entry already exists; writes fold child-wins; traced ops append after
  // the parent's own (exactly the order a serial execution of the tree
  // would produce them in).
  std::vector<LockManager::OccReadEntry>& preads = parent_->occ_reads_;
  for (LockManager::OccReadEntry& e : reads) {
    if (!e.from_store) continue;  // dropped above (or never had a word)
    auto it = FindByKey(preads, e.key);
    bool dup = false;
    for (auto d = it; d != preads.end() && d->key == e.key && !dup; ++d) {
      dup = d->key_state == e.key_state && d->word == e.word;
    }
    if (!dup) preads.insert(it, std::move(e));
  }
  FoldWritesIntoParentLocked(&writes);
  for (OccOp& op : ops) parent_->occ_ops_.push_back(std::move(op));
  return Status::OK();
}

Status Transaction::OccReplayTraced() {
  std::vector<OccOp> ops;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ops.swap(occ_ops_);
  }
  // Replay in sorted key order (stable, so per-key program order is
  // preserved). Every op on a write-set key — reads included — takes the
  // WRITE lock, so there are no upgrades; with sorted exclusive
  // acquisition a replaying committer only ever waits for keys greater
  // than everything it holds, and concurrent replays cannot deadlock.
  std::stable_sort(
      ops.begin(), ops.end(),
      [](const OccOp& a, const OccOp& b) { return a.key < b.key; });
  for (const OccOp& op : ops) {
    const auto w = FindByKey(writes_, op.key);
    const bool exclusive = w != writes_.end() && w->key == op.key;
    Result<std::optional<int64_t>> r = LockedAccess(op.key, op.op, exclusive);
    if (!r.ok()) return r.status();
    // The replay must reproduce the optimistic observation (only reads
    // and Add can diverge: a blind write reports what it writes).
    if (*r != op.reported) {
      manager_->stats().Add(kStatOccValidationAborts);
      return Status::Aborted(StrCat(
          id_, " OCC replay validation failed on key '", op.key, "'"));
    }
  }
  return Status::OK();
}

Status Transaction::CommitOcc(uint64_t req_ns) {
  if (parent_ != nullptr) {
    // Child commit: validate-and-merge is the OCC image of lock
    // inheritance — the parent absorbs the child's observations and
    // intents; nothing touches shared state. No trace events either way
    // (OCC children are invisible to the trace; see BeginChild).
    Status s = OccMergeIntoParent();
    if (!s.ok()) return Rollback(std::move(s), req_ns, 0);
    return Finish(Status::OK(), req_ns, 0, /*committed=*/true);
  }
  if (manager_->locks().trace_recorder() != nullptr) {
    // Traced: the buffered ops replay through the locking access path on
    // this handle, and the commit takes the locking top-level tail under
    // the replayed locks, so the checker sees an R/W Locking schedule.
    Status s = OccReplayTraced();
    if (!s.ok()) return Rollback(std::move(s), req_ns, 0);
    return CommitLocked(req_ns);
  }
  // Top-level commit: the only point an OCC tree touches shared state.
  // Every child has returned, and its merge happened-before its
  // active_children_ decrement, so the buffers are read without mutex_.
  // OccCommit appends the image itself, between validation and install
  // (the write-set words are still MICRO-locked there).
  const size_t touched = writes_.size() + occ_reads_.size();
  WriteAheadLog* wal = manager_->wal();
  WalTicket wal_ticket;
  if (touched != 0) {
    Status s = manager_->locks().OccCommit(
        writes_, occ_reads_, id_[0], wal != nullptr ? &wal_ticket : nullptr);
    if (!s.ok()) return Rollback(std::move(s), req_ns, touched);
  }
  // Installed; now park for durability. Same asymmetry as the locking
  // path: a flush failure reports the non-retryable DurabilityLost
  // without undoing the install.
  Status durable = Status::OK();
  if (wal_ticket.seq != 0) durable = wal->WaitDurable(wal_ticket);
  return Finish(std::move(durable), req_ns, touched, /*committed=*/true);
}

}  // namespace nestedtx
