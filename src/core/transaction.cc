#include "core/transaction.h"

#include <algorithm>

#include "core/failpoints.h"
#include "serial/data_type.h"
#include "util/strings.h"

namespace nestedtx {

const char* VictimPolicyName(VictimPolicy policy) {
  switch (policy) {
    case VictimPolicy::kRequester:
      return "requester";
    case VictimPolicy::kYoungestSubtree:
      return "youngest-subtree";
  }
  return "?";
}

const char* CcProtocolName(CcProtocol protocol) {
  switch (protocol) {
    case CcProtocol::kDetect:
      return "detect";
    case CcProtocol::kWaitDie:
      return "wait-die";
    case CcProtocol::kNoWait:
      return "no-wait";
    case CcProtocol::kOcc:
      return "occ";
  }
  return "?";
}

Transaction::Transaction(TransactionManager* manager, Transaction* parent,
                         TransactionId id)
    : manager_(manager),
      parent_(parent),
      id_(std::move(id)),
      occ_(manager->options().cc_protocol == CcProtocol::kOcc) {
  manager_->stats().Add(kStatTxnsBegun);
  MetricsRegistry& metrics = manager_->metrics();
  if (metrics.enabled()) {
    begin_ns_ = MonotonicNowNs();
    // Every transaction (children included) rolls the sampling dice; a
    // sampled child gets its own span in the ring.
    if (metrics.spans().Sample()) {
      span_sampled_ = true;
      span_.id = id_;
      span_.begin_ns = begin_ns_;
    }
  }
}

// Charges the calling thread's lock-wait delta to the sampled span; a
// no-op shell when the transaction carries no span.
class Transaction::SpanAccessScope {
 public:
  explicit SpanAccessScope(Transaction* t) : t_(t) {
    if (!t_->span_sampled_) return;
    before_ = ThreadWaitAccounting();
    if (t_->span_.first_lock_ns == 0) {
      t_->span_.first_lock_ns = MonotonicNowNs();
    }
  }
  ~SpanAccessScope() {
    if (!t_->span_sampled_) return;
    const ThreadWaitCounters& after = ThreadWaitAccounting();
    t_->span_.wait_ns += after.ns - before_.ns;
    t_->span_.wait_count += static_cast<uint32_t>(after.count - before_.count);
  }

 private:
  Transaction* t_;
  ThreadWaitCounters before_{};
};

void Transaction::FinishSpan(uint64_t end_ns, size_t keys_touched,
                             Status::Code code) {
  if (!span_sampled_) return;
  span_.end_ns = end_ns;
  span_.keys_touched = static_cast<uint32_t>(keys_touched);
  span_.final_status = code;
  manager_->metrics().spans().Append(span_);
  span_sampled_ = false;
}

Transaction::~Transaction() {
  if (!returned_.load()) {
    Abort();  // RAII: dropping an open transaction aborts it
  }
}

Status Transaction::CheckActive() const {
  if (returned_.load()) {
    return Status::FailedPrecondition(
        StrCat(id_, " has already returned"));
  }
  if (manager_->locks().IsDoomed(id_)) {
    return Status::Cancelled(
        StrCat(id_, " is orphaned (ancestor abort/cancel in progress)"));
  }
  return Status::OK();
}

void Transaction::Cancel() { manager_->locks().DoomSubtree(id_); }

Result<std::optional<int64_t>> Transaction::Access(const std::string& key,
                                                   OpDescriptor op,
                                                   bool exclusive) {
  if (occ_) {
    // Optimistic: no lock, no holder-set insert — the op lands in the
    // private buffers and is validated at commit.
    RETURN_IF_ERROR(CheckActive());
    return OccAccess(key, op);
  }
  // Repeat-read fast path: if we already hold `key`, try the seqlock
  // lane in place on the cached handle. A hit proves the handle is
  // current, so none of the general path's handle copy-out, access-id
  // bookkeeping, or write-back happens. The guard re-states CheckActive
  // with plain loads (no Status construction on the hot path). Sampled
  // spans take the lane too: a hit never waits, and the key's first
  // access already stamped first_lock_ns. The lane itself bails when
  // tracing is on or the word has moved.
  if (!exclusive && manager_->locks().FastLanesEnabled() &&
      !returned_.load(std::memory_order_relaxed) &&
      !manager_->locks().IsDoomed(id_)) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = FindByKey(keys_, key);
    if (it != keys_.end() && it->key == key) {
      std::optional<int64_t> v;
      if (manager_->locks().TryFastReadLane(it->held, &v)) return v;
    }
  }
  RETURN_IF_ERROR(CheckActive());
  return LockedAccess(key, op, exclusive);
}

Result<std::optional<int64_t>> Transaction::TryGet(const std::string& key) {
  return Access(key, {ops::kRead, 0}, /*exclusive=*/false);
}

// Under OCC there is no read-lock-upgrade hazard to pre-empt (nothing is
// locked until commit), so only the locking family uses `exclusive`.
Result<std::optional<int64_t>> Transaction::GetForUpdate(
    const std::string& key) {
  return Access(key, {ops::kRead, 0}, /*exclusive=*/true);
}

Result<int64_t> Transaction::Get(const std::string& key) {
  Result<std::optional<int64_t>> r = TryGet(key);
  if (!r.ok()) return r.status();
  if (!r->has_value()) {
    return Status::NotFound(StrCat("key '", key, "' not found"));
  }
  return **r;
}

Status Transaction::Put(const std::string& key, int64_t value) {
  Result<std::optional<int64_t>> r = Access(key, {ops::kWrite, value}, true);
  return r.ok() ? Status::OK() : r.status();
}

Result<int64_t> Transaction::Add(const std::string& key, int64_t delta) {
  Result<std::optional<int64_t>> r = Access(key, {ops::kCellAdd, delta}, true);
  if (!r.ok()) return r.status();
  return **r;  // a cell add always leaves a value
}

Status Transaction::Delete(const std::string& key) {
  Result<std::optional<int64_t>> r = Access(key, {ops::kCellDelete, 0}, true);
  return r.ok() ? Status::OK() : r.status();
}

Result<std::optional<int64_t>> Transaction::LockedAccess(
    const std::string& key, OpDescriptor op, bool exclusive) {
  AccessTraceInfo info;
  LockManager::HeldLock held;
  bool have_held = false;
  size_t idx = 0;
  const AccessTraceInfo* trace =
      PrepareAccess(key, op, &info, &held, &have_held, &idx);
  const LockManager::HeldLock before = held;
  Result<std::optional<int64_t>> r = [&]() -> Result<std::optional<int64_t>> {
    SpanAccessScope span_scope(this);
    LockManager& locks = manager_->locks();
    if (!exclusive) return locks.AcquireRead(id_, key, trace, &held);
    // A GetForUpdate is a write lock running the read op: the version
    // copy is what the model's write access does, and it makes the read
    // abort-safe.
    const LockManager::Mutator apply = [op](std::optional<int64_t> v) {
      return ApplyCellOp(op, v);
    };
    return locks.AcquireWrite(id_, key, apply, trace, &held);
  }();
  if (!r.ok()) return r;
  if (!have_held || held.word != before.word || held.read != before.read) {
    CacheHeld(idx, key, held);
  }
  if (op.code != ops::kRead && manager_->wal() != nullptr) {
    RecordWrite(key, *r);
  }
  if (trace != nullptr) AddToAggregate(r->value_or(kAbsentValue));
  return r;
}

const AccessTraceInfo* Transaction::PrepareAccess(
    const std::string& key, OpDescriptor op, AccessTraceInfo* info,
    LockManager::HeldLock* held, bool* have_held, size_t* idx) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = FindByKey(keys_, key);
  if (it == keys_.end() || it->key != key) {
    it = keys_.insert(it, LockManager::KeyHold{key, {}});
  }
  *idx = static_cast<size_t>(it - keys_.begin());
  if (it->held.key != nullptr) {
    *held = it->held;
    *have_held = true;
  }
  if (manager_->locks().trace_recorder() == nullptr) return nullptr;
  // Accesses are children of this transaction in the model; they share
  // the child-index space with subtransactions.
  info->access_id = id_.Child(child_counter_++);
  info->op_code = op.code;
  info->op_arg = op.arg;
  return info;
}

void Transaction::CacheHeld(size_t idx, const std::string& key,
                            const LockManager::HeldLock& held) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (idx < keys_.size() && keys_[idx].key == key) {
    keys_[idx].held = held;
    return;
  }
  // A committing child merged entries in and shifted the index.
  auto it = FindByKey(keys_, key);
  if (it != keys_.end() && it->key == key) it->held = held;
}

void Transaction::AddToAggregate(Value v) {
  std::lock_guard<std::mutex> lock(mutex_);
  aggregate_ = WrapAdd(aggregate_, v);
}

void Transaction::RecordWrite(const std::string& key,
                              std::optional<int64_t> value) {
  std::lock_guard<std::mutex> lock(mutex_);
  UpsertWrite(writes_, key, value);
}

void Transaction::UpsertWrite(std::vector<WalWrite>& writes, std::string key,
                              std::optional<int64_t> value) {
  auto it = FindByKey(writes, key);
  if (it != writes.end() && it->key == key) {
    it->value = value;
  } else {
    writes.insert(it, WalWrite{std::move(key), value});
  }
}

void Transaction::FoldWritesIntoParentLocked(std::vector<WalWrite>* mine) {
  // Child entries overwrite the parent's: the child's version replaced
  // the parent's (in the lock manager's version map, or in the OCC
  // buffers), so the child's value is the subtree's final word on the key.
  for (WalWrite& w : *mine) {
    UpsertWrite(parent_->writes_, std::move(w.key), w.value);
  }
}

Result<std::unique_ptr<Transaction>> Transaction::BeginChild() {
  RETURN_IF_ERROR(CheckActive());
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kBeginTxn));
  FailPoints::MaybeDelay(FailPoints::kBeginTxn);
  TransactionId child_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    child_id = id_.Child(child_counter_++);
  }
  active_children_.fetch_add(1);
  // OCC children are invisible to the trace: a subtransaction only moves
  // private buffers around, and its effects surface as the top-level
  // replay commit's accesses (see CommitOcc). Emitting create/commit
  // events for lock-free children would give the checker transactions
  // with no access structure to certify.
  if (!occ_) {
    if (EngineTraceRecorder* rec = manager_->locks().trace_recorder()) {
      rec->Emit(Event::RequestCreate(child_id));
      rec->Emit(Event::Create(child_id));
    }
  }
  return std::unique_ptr<Transaction>(
      new Transaction(manager_, this, std::move(child_id)));
}

void Transaction::MergeKeysIntoParent(
    const std::vector<LockManager::KeyHold>& keys) {
  // Cached handles ride along: their KeyState pointers stay valid, and a
  // handle whose epoch/modes no longer fit the parent simply falls back
  // to the full grant path (see lock_manager.h on inherited handles).
  std::lock_guard<std::mutex> lock(parent_->mutex_);
  std::vector<LockManager::KeyHold>& pkeys = parent_->keys_;
  for (const LockManager::KeyHold& k : keys) {
    // Sorted-unique insert; an existing entry (and its cached handle) wins.
    auto it = FindByKey(pkeys, k.key);
    if (it == pkeys.end() || it->key != k.key) pkeys.insert(it, k);
  }
}

std::vector<LockManager::KeyHold> Transaction::TakeKeys() {
  std::vector<LockManager::KeyHold> keys;
  std::lock_guard<std::mutex> lock(mutex_);
  keys.swap(keys_);
  return keys;
}

Status Transaction::Commit() {
  if (active_children_.load() != 0) {
    return Status::FailedPrecondition(
        StrCat(id_, " cannot commit with active children"));
  }
  RETURN_IF_ERROR(CheckActive());
  if (returned_.exchange(true)) {
    return Status::FailedPrecondition(StrCat(id_, " already returned"));
  }
  // One clock read up front covers the span's commit-request stamp and
  // the release-duration histogram (span sampling implies enabled()).
  const uint64_t req_ns = manager_->metrics().enabled() ? MonotonicNowNs() : 0;
  if (span_sampled_) span_.commit_request_ns = req_ns;
  return occ_ ? CommitOcc(req_ns) : CommitLocked(req_ns);
}

Status Transaction::CommitLocked(uint64_t req_ns) {
  // No wait-graph sweep here: a committing transaction has returned from
  // every access, and each WaitForGrant exit clears its entry via a
  // scoped guard — taking the global graph mutex on the commit hot path
  // would buy nothing. Rollback keeps a defensive sweep (it is the
  // teardown path for errors in flight).
  LockManager& locks = manager_->locks();
  EngineTraceRecorder* rec = locks.trace_recorder();
  Value my_aggregate = 0;
  if (rec != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    my_aggregate = aggregate_;
  }
  WriteAheadLog* wal = manager_->wal();
  if (parent_ != nullptr) {
    // Subtransaction commit. The inventory is swapped out once and the
    // same vector feeds both the batched release and the parent merge —
    // no deep copy of the key strings on the commit path.
    if (rec != nullptr) {
      rec->Emit(Event::RequestCommit(id_, my_aggregate));
      rec->Emit(Event::Commit(id_));
    }
    const std::vector<LockManager::KeyHold> keys = TakeKeys();
    locks.OnCommit(id_, parent_->id_, keys);
    MergeKeysIntoParent(keys);
    // The WAL face of lock inheritance: the child's write image folds
    // into the parent's, so only the top-level commit ever reaches the
    // log — the paper's "only top-level commit is externally meaningful".
    if (wal != nullptr) {
      std::vector<WalWrite> mine;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        mine.swap(writes_);
      }
      std::lock_guard<std::mutex> plock(parent_->mutex_);
      FoldWritesIntoParentLocked(&mine);
    }
    if (rec != nullptr) {
      rec->Emit(Event::ReportCommit(id_, my_aggregate));
      parent_->AddToAggregate(my_aggregate);
    }
    return Finish(Status::OK(), req_ns, keys.size(), /*committed=*/true);
  }
  // Durability point: append the merged write image while every write
  // lock is still held — the release below has not touched the holder
  // sets yet, so a later writer of any of these keys acquires them only
  // after our release and appends strictly after us (the per-key
  // ordering invariant of core/wal.h). On append failure the commit
  // turns into a clean abort: no commit trace event has been emitted and
  // nothing has been installed, and IoError is retryable.
  WalTicket wal_ticket;
  if (wal != nullptr) {
    std::vector<WalWrite> image;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      image.swap(writes_);
    }
    if (!image.empty()) {
      Result<WalTicket> t = wal->AppendImage(id_[0], image);
      if (!t.ok()) return Rollback(t.status(), req_ns, 0);
      wal_ticket = *t;
    }
  }
  if (rec != nullptr) {
    rec->Emit(Event::RequestCommit(id_, my_aggregate));
    rec->Emit(Event::Commit(id_));
  }
  // Top-level commit: everything becomes the committed base.
  const std::vector<LockManager::KeyHold> keys = TakeKeys();
  locks.OnCommit(id_, TransactionId::Root(), keys);
  Status durable = Status::OK();
  if (wal_ticket.seq != 0) {
    // The release fan-out is done: tell any flush leader holding a group
    // open that this committer no longer blocks the cut, and retire the
    // seq from its shard's unreleased set (the checkpoint truncation
    // floor — a checkpoint's fuzzy scan may miss installs of unreleased
    // commits, so their log records must survive it).
    wal->NoteCommitReleased(wal_ticket);
    // Park until the record — and, across shards, everything it may
    // depend on — is flushed. A flush failure surfaces as
    // DurabilityLost, never IoError: the effects are installed
    // engine-side, so the commit must not be re-run — only never
    // acknowledged as durable. The documented asymmetry of syncing
    // after install (DESIGN.md §6).
    durable = wal->WaitDurable(wal_ticket);
  }
  if (rec != nullptr) rec->Emit(Event::ReportCommit(id_, my_aggregate));
  return Finish(std::move(durable), req_ns, keys.size(), /*committed=*/true);
}

Status Transaction::Abort() {
  if (active_children_.load() != 0) {
    return Status::FailedPrecondition(
        StrCat(id_, " cannot abort with active children"));
  }
  if (returned_.exchange(true)) {
    return Status::FailedPrecondition(StrCat(id_, " already returned"));
  }
  const uint64_t req_ns = manager_->metrics().enabled() ? MonotonicNowNs() : 0;
  if (span_sampled_) span_.commit_request_ns = req_ns;
  return Rollback(Status::OK(), req_ns, 0);
}

Status Transaction::Rollback(Status cause, uint64_t req_ns, size_t touched) {
  LockManager& locks = manager_->locks();
  // Wait-registry hygiene on teardown. Every WaitForGrant exit already
  // clears its own entry via a scoped guard (grant, deadlock, timeout,
  // injected fault all audited), so this is a defensive sweep for a
  // handle torn down with an operation's result still in flight (a no-op
  // for prevention policies, which keep no registry).
  locks.policy().OnTransactionEnd(id_);
  // OCC children are invisible to the trace (see BeginChild); only a
  // top-level OCC abort reports, matching its Create from Begin.
  EngineTraceRecorder* rec =
      occ_ && parent_ != nullptr ? nullptr : locks.trace_recorder();
  if (rec != nullptr) rec->Emit(Event::Abort(id_));
  const std::vector<LockManager::KeyHold> keys = TakeKeys();
  locks.OnAbort(id_, keys);
  if (rec != nullptr) rec->Emit(Event::ReportAbort(id_));
  return Finish(std::move(cause), req_ns, keys.size() + touched,
                /*committed=*/false);
}

Status Transaction::Finish(Status result, uint64_t req_ns, size_t touched,
                           bool committed) {
  MetricsRegistry& metrics = manager_->metrics();
  if (metrics.enabled()) {
    const uint64_t end_ns = MonotonicNowNs();
    metrics.Record(committed ? kHistCommitReleaseNs : kHistAbortReleaseNs,
                   end_ns - req_ns);
    if (parent_ == nullptr) metrics.Record(kHistTxnNs, end_ns - begin_ns_);
    FinishSpan(end_ns, touched,
               committed     ? Status::Code::kOk
               : result.ok() ? Status::Code::kAborted
                             : result.code());
  }
  EngineStats& stats = manager_->stats();
  stats.Add(committed ? kStatTxnsCommitted : kStatTxnsAborted);
  // The abort Cancel() announced has now happened: lift the doom so the
  // id space is clean. A retried subtree runs under fresh child ids, so
  // even a doom cleared late could never match the new attempt; clearing
  // here keeps the registry from accumulating dead roots.
  if (!committed) manager_->locks().ClearDoom(id_);
  if (parent_ != nullptr) {
    parent_->active_children_.fetch_sub(1);
    return result;
  }
  stats.Add(committed ? kStatTopLevelCommitted : kStatTopLevelAborted);
  if (committed && occ_) stats.Add(kStatOccCommits);
  return result;
}

namespace {

// kOcc option normalization: the optimistic path is built on the lock
// word (seq validation, MICRO write locks), so the ablation switch cannot
// be honoured.
EngineOptions NormalizeOptions(EngineOptions options) {
  if (options.cc_protocol == CcProtocol::kOcc) {
    options.lock_word_enabled = true;
  }
  // A WAL needs somewhere to live; with no directory the knob is off
  // (mirrors how tracing quietly disables the fast lanes).
  if (options.wal_enabled && options.wal_dir.empty()) {
    options.wal_enabled = false;
  }
  if (options.wal_shards == 0) options.wal_shards = 1;
  return options;
}

}  // namespace

TransactionManager::TransactionManager(const EngineOptions& options)
    : options_(NormalizeOptions(options)),
      metrics_(options_),
      locks_(options_, &stats_, &metrics_) {
  if (options_.wal_enabled) {
    wal_ = std::make_unique<WriteAheadLog>(options_, &stats_, &metrics_);
    locks_.SetWal(wal_.get());
  }
}

Status TransactionManager::AdmitTopLevel() {
  if (options_.admission_max_inflight == 0) return Status::OK();
  std::unique_lock<std::mutex> lk(admit_mutex_);
  if (admitted_ < options_.admission_max_inflight) {
    ++admitted_;
    return Status::OK();
  }
  if (admit_queued_ >= options_.admission_max_queued) {
    stats_.Add(kStatAdmissionRejected);
    return Status::Overloaded(
        StrCat("admission gate full (", admitted_, " in flight, ",
               admit_queued_, " queued)"));
  }
  ++admit_queued_;
  admit_cv_.wait(lk, [&] {
    return admitted_ < options_.admission_max_inflight;
  });
  --admit_queued_;
  ++admitted_;
  return Status::OK();
}

void TransactionManager::ReleaseTopLevel() {
  if (options_.admission_max_inflight == 0) return;
  {
    std::lock_guard<std::mutex> lk(admit_mutex_);
    --admitted_;
  }
  admit_cv_.notify_one();
}

void TransactionManager::MarkFailed(Status why) {
  std::lock_guard<std::mutex> lk(failed_mutex_);
  if (failed_status_.ok()) failed_status_ = std::move(why);
  failed_.store(true, std::memory_order_release);
}

Status TransactionManager::failure() const {
  std::lock_guard<std::mutex> lk(failed_mutex_);
  return failed_status_;
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  // A failed engine (e.g. a recovery that died mid-replay) must not hand
  // out handles over half-applied state.
  if (failed_.load(std::memory_order_acquire)) return nullptr;
  TransactionId id = TransactionId::Root().Child(
      top_counter_.fetch_add(1, std::memory_order_relaxed));
  if (EngineTraceRecorder* rec = locks_.trace_recorder()) {
    rec->Emit(Event::RequestCreate(id));
    rec->Emit(Event::Create(id));
  }
  return std::unique_ptr<Transaction>(
      new Transaction(this, nullptr, std::move(id)));
}

}  // namespace nestedtx
