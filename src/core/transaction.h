// Nested transaction handles and the transaction manager.
//
// Usage:
//   Database db(options);
//   auto t = db.Begin();                  // top-level
//   auto c = t->BeginChild();             // subtransaction (own thread OK)
//   c->Put("k", 1);
//   c->Commit();                          // locks/versions pass to t
//   t->Commit();                          // installs into the store
//
// Structural rules (enforced): a transaction returns (commits or aborts)
// exactly once, only after all of its children have returned; operations
// on a returned or cancelled transaction fail. A handle destroyed without
// returning aborts automatically (RAII).
//
// One dispatch per protocol family: every access op is a "cell"
// operation (ApplyCellOp, serial/data_type.h) entering Access(), which
// branches once into the locking family (LockedAccess, transaction.cc)
// or the optimistic one (OccAccess, transaction_occ.cc); Commit()
// branches the same way. Both families keep one write image per handle
// (a key-sorted WalWrite vector: the OCC write buffer, or the locking
// path's WAL image) folded child-wins into the parent on commit, and
// every commit or abort, child or top-level, returns through Finish().
//
// Hot path: each handle keeps a held-lock cache (key -> HeldLock handle
// from the lock manager). A repeat read first tries the lock manager's
// seqlock lane in place on the cached handle (Access): an unchanged lock
// word serves the value with no lock and no store. Every other access —
// a miss, a write, a first touch — takes the lock manager's one grant
// path, passing the cached handle in to skip the shard lookup (see
// lock_manager.h for the word-based safety argument).
//
// Conflict scheduling per CcProtocol is documented in options.h.
#ifndef NESTEDTX_CORE_TRANSACTION_H_
#define NESTEDTX_CORE_TRANSACTION_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/lock_manager.h"
#include "core/metrics.h"
#include "core/options.h"
#include "core/span.h"
#include "core/stats.h"
#include "tx/system_type.h"
#include "tx/transaction_id.h"
#include "util/status.h"

namespace nestedtx {

class TransactionManager;

class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Read `key`; NotFound if absent. Takes a read lock.
  Result<int64_t> Get(const std::string& key);

  /// Read `key`, nullopt if absent (same locking as Get).
  Result<std::optional<int64_t>> TryGet(const std::string& key);

  /// Read `key` under a WRITE lock (nullopt if absent). Use when the
  /// transaction will write the key later: taking the exclusive lock up
  /// front avoids the classic read-lock-upgrade deadlock, where two
  /// transactions both read-share a key and then both block trying to
  /// write it.
  Result<std::optional<int64_t>> GetForUpdate(const std::string& key);

  /// Write `key := value` under a write lock.
  Status Put(const std::string& key, int64_t value);

  /// Atomic read-modify-write: `key := (key or 0) + delta`; returns the
  /// new value. Write lock.
  Result<int64_t> Add(const std::string& key, int64_t delta);

  /// Delete `key` under a write lock (absent is fine).
  Status Delete(const std::string& key);

  /// Start a subtransaction. The child may run on any thread; multiple
  /// children may run concurrently (that is the point of nesting).
  Result<std::unique_ptr<Transaction>> BeginChild();

  /// Commit: locks and versions pass to the parent (or, for a top-level
  /// transaction, into the committed store). Fails while children are
  /// active or after the transaction returned.
  Status Commit();

  /// Abort: this subtree's effects are discarded; the parent lives on.
  /// Clears any cancellation (Cancel) pending on this transaction's id.
  Status Abort();

  /// Orphan cancellation: mark this subtree doomed ahead of an abort.
  /// Every descendant's (and this transaction's) next engine call fails
  /// with Status::Cancelled, and descendants parked in lock waits wake
  /// immediately with Status::Cancelled instead of sleeping out the lock
  /// timeout — the paper's orphan notion made operational: once an
  /// ancestor's abort is decided, Theorem 34 makes no promise to the
  /// subtree, so stop spending locks and time on it. Callable from any
  /// thread, idempotent. The doom lifts when this transaction aborts
  /// (a retry then runs under fresh ids, which the stale doom cannot
  /// match). Only Abort() is permitted afterwards.
  void Cancel();

  /// RetryExecutor hook: tag this transaction's span with its attempt
  /// number (0 = first attempt). No-op unless the span is sampled.
  void NoteRetryAttempt(uint32_t attempt) {
    if (span_sampled_) span_.retry_attempt = attempt;
  }

  const TransactionId& id() const { return id_; }
  /// The engine this transaction belongs to (Database::RunNested builds
  /// its retry loop from the parent handle alone).
  TransactionManager& manager() const { return *manager_; }
  bool returned() const { return returned_.load(); }
  /// Children begun and not yet returned (diagnostic; racy by nature).
  int active_children() const { return active_children_.load(); }

 private:
  friend class TransactionManager;

  Transaction(TransactionManager* manager, Transaction* parent,
              TransactionId id);

  Status CheckActive() const;

  /// The one access entry: TryGet, GetForUpdate, Put, Add and Delete are
  /// thin calls into it. `op` is a "cell" operation, applied through
  /// ApplyCellOp (serial/data_type.h) on every path; `exclusive` asks
  /// the locking family for a write lock (every mutating op, and
  /// GetForUpdate's read). Branches once on the protocol family; returns
  /// the value the op reports (the cell's state after it).
  Result<std::optional<int64_t>> Access(const std::string& key,
                                        OpDescriptor op, bool exclusive);

  // --- Locking family (detect / wait-die / no-wait). transaction.cc. ---

  /// The locking access: lock grant (the cached handle, if any, passed
  /// in), write-image record, trace aggregate fold. Also what the traced
  /// OCC replay runs its buffered ops through.
  Result<std::optional<int64_t>> LockedAccess(const std::string& key,
                                              OpDescriptor op,
                                              bool exclusive);
  /// Register `key` in the key inventory, copy out any cached held-lock
  /// handle for it (plus its inventory index, a hint for CacheHeld), and
  /// (when tracing) allocate an access child id into `info`; returns the
  /// info pointer to pass to the lock manager (nullptr when not tracing).
  const AccessTraceInfo* PrepareAccess(const std::string& key,
                                       OpDescriptor op, AccessTraceInfo* info,
                                       LockManager::HeldLock* held,
                                       bool* have_held, size_t* idx);
  /// Store/update the held-lock handle cached for `key`. `idx` is the
  /// entry's position as of PrepareAccess — revalidated, since committing
  /// children may have merged entries in since.
  void CacheHeld(size_t idx, const std::string& key,
                 const LockManager::HeldLock& held);
  /// Swap out this transaction's key inventory (it becomes empty).
  std::vector<LockManager::KeyHold> TakeKeys();
  /// Sorted-merge `keys` into the parent's inventory (cached handles ride
  /// along). The same taken vector serves the batched release first, so
  /// the commit path never deep-copies the key strings.
  void MergeKeysIntoParent(const std::vector<LockManager::KeyHold>& keys);
  /// Commit through the lock manager: the top-level tail appends the
  /// write image under the held locks, then OnCommit, NoteCommitReleased
  /// and WaitDurable; a child passes locks, versions and its write image
  /// to the parent. The traced OCC commit ends here too, after its replay.
  Status CommitLocked(uint64_t req_ns);

  /// When tracing: fold a child report value into this transaction's
  /// aggregate (wrapping, like ScriptedTransaction's).
  void AddToAggregate(Value v);

  // --- The write image ---
  /// Upsert `key := value` into writes_ (last write of a key wins).
  void RecordWrite(const std::string& key, std::optional<int64_t> value);
  /// The one child->parent fold: upsert `mine` (this child's write image,
  /// already taken out of writes_) into the parent's, child entries
  /// winning. Caller holds parent_->mutex_.
  void FoldWritesIntoParentLocked(std::vector<WalWrite>* mine);
  /// Sorted upsert into a write image; an existing entry takes `value`.
  static void UpsertWrite(std::vector<WalWrite>& writes, std::string key,
                          std::optional<int64_t> value);

  /// Position of `key` in a key-sorted vector of entries with a `key`
  /// member (key inventory, write image, OCC read set).
  template <typename Entry>
  static typename std::vector<Entry>::iterator FindByKey(
      std::vector<Entry>& entries, const std::string& key) {
    return std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const Entry& e, const std::string& k) { return e.key < k; });
  }

  // --- One return path ---
  /// Abort after returned_ flipped: Abort() and every failed commit (WAL
  /// append, OCC validation or merge) end here. Discards the subtree's
  /// locks and versions, emits the abort events, and returns `cause`
  /// through Finish. `touched` counts keys outside the lock inventory
  /// (an untraced OCC handle's read and write sets) for the span.
  Status Rollback(Status cause, uint64_t req_ns, size_t touched);
  /// The return epilogue shared by every commit and abort, top-level or
  /// child, either family: release and txn histograms, span, stats, doom
  /// lift (aborts), then the top-level counters or the parent's
  /// active_children_ decrement — last, since it lets the parent return.
  /// Returns `result`.
  Status Finish(Status result, uint64_t req_ns, size_t touched,
                bool committed);

  // --- Optimistic family (CcProtocol::kOcc). transaction_occ.cc. ---
  // An OCC handle never touches the lock manager's holder structures:
  // reads land in occ_reads_, writes in writes_. Reads resolve own
  // buffers -> ancestors' buffers -> store (giving repeatable reads);
  // child commit validates-and-merges the sets into the parent; only
  // top-level commit touches shared state.

  /// One buffered op, kept (traced runs only) for the top-level replay
  /// commit. `reported` is the value the op observed/produced — the
  /// replay must reproduce it or fail validation.
  struct OccOp {
    std::string key;
    OpDescriptor op;
    std::optional<int64_t> reported;
  };

  /// Where an OCC buffer lookup found the key.
  enum class OccHit { kNone, kWrite, kRead };

  /// The optimistic access: observe (reads and Add), apply, buffer.
  Result<std::optional<int64_t>> OccAccess(const std::string& key,
                                           OpDescriptor op);
  /// Lookup in THIS handle's buffers (caller holds mutex_).
  OccHit OccLookupLocked(const std::string& key,
                         std::optional<int64_t>* value);
  /// Lookup up the buffer chain from `t` (t, its parent, ...), one mutex
  /// at a time, strictly child->ancestor — the order the child-merge
  /// path nests them in, so no lookup can deadlock against a merge.
  static OccHit OccLookupChain(Transaction* t, const std::string& key,
                               std::optional<int64_t>* value);
  /// Observe `key`'s value for this handle, recording the read
  /// dependency (word entry for store reads, buffer-sourced entry for
  /// ancestor-buffer hits) that merge/commit validation will check.
  Result<std::optional<int64_t>> OccObserve(const std::string& key);
  /// Child commit: validate this handle's read set against the parent
  /// chain as of now and merge sets/ops into the parent (the OCC image
  /// of lock inheritance). Fails with retryable Status::Aborted when a
  /// sibling's merged write invalidated an observation.
  Status OccMergeIntoParent();
  /// Commit dispatch of the optimistic family: child merge, untraced
  /// word-path validate/install, or traced replay + CommitLocked.
  Status CommitOcc(uint64_t req_ns);
  /// Traced replay: re-run the buffered ops through LockedAccess in
  /// sorted key order (every op on a written key exclusively, so no
  /// upgrades and, by the sorted-acquisition argument, no deadlocks),
  /// validating each observed value.
  Status OccReplayTraced();

  /// RAII wrapper around one lock-manager call: charges the calling
  /// thread's lock-wait delta (ThreadWaitAccounting) to the sampled
  /// span. Waits are synchronous on the caller's thread, so the delta
  /// is exactly this access's waits.
  class SpanAccessScope;

  /// Seal and publish the sampled span (no-op when not sampled).
  void FinishSpan(uint64_t end_ns, size_t keys_touched, Status::Code code);

  TransactionManager* manager_;
  Transaction* parent_;  // nullptr for top-level
  TransactionId id_;

  /// Guards keys_, child_counter_, writes_, occ_reads_, occ_ops_ and
  /// aggregate_.
  std::mutex mutex_;
  /// Keys this transaction may hold locks on, sorted by key, each with
  /// the cached fast-path handle from its latest successful acquire (an
  /// empty/stale handle just falls back to the full grant path).
  std::vector<LockManager::KeyHold> keys_;
  uint32_t child_counter_ = 0;
  /// The write image: the final value of every key this subtree wrote,
  /// sorted by key. An OCC handle's write buffer; a locking handle's WAL
  /// commit image (recorded only when a WAL exists). Children fold
  /// theirs in at commit, child entries winning — the image face of lock
  /// inheritance; the top-level commit appends (or installs) it.
  std::vector<WalWrite> writes_;
  /// OCC read set (sorted by key) and, traced runs only, the op log.
  std::vector<LockManager::OccReadEntry> occ_reads_;
  std::vector<OccOp> occ_ops_;
  std::atomic<int> active_children_{0};
  std::atomic<bool> returned_{false};
  Value aggregate_ = 0;  // tracing only

  /// True when this handle executes optimistically: the engine runs
  /// kOcc. The protocol is fixed per engine, so a whole tree (and every
  /// tree of the engine) is either optimistic or locking.
  const bool occ_;

  // Observability scratch. begin_ns_ is stamped once at construction
  // (metrics enabled only); span_ accumulates while span_sampled_ and is
  // pushed to the span log exactly once, at commit/abort. Like the rest
  // of a handle's sequencing state, the span scratch assumes the usual
  // one-thread-at-a-time use of a single handle (concurrency comes from
  // children, each with its own handle and span).
  uint64_t begin_ns_ = 0;
  TxnSpan span_;
  bool span_sampled_ = false;
};

/// Owns the lock manager and global policies; creates top-level
/// transactions. Thread-safe.
class TransactionManager {
 public:
  explicit TransactionManager(const EngineOptions& options);

  /// Begin a top-level transaction. Returns nullptr once the engine is
  /// marked failed (MarkFailed) — e.g. after a recovery that died
  /// mid-replay — so callers never run over half-applied state; failure()
  /// carries the reason.
  std::unique_ptr<Transaction> Begin();

  /// Poison the engine: every subsequent Begin() returns nullptr. The
  /// first call's status wins and is reported by failure() thereafter.
  /// Used by Database::Recover when a replay fails partway — the store
  /// may hold a half-applied prefix, which must never be served.
  void MarkFailed(Status why);
  /// OK while healthy; the MarkFailed status once poisoned.
  Status failure() const;

  const EngineOptions& options() const { return options_; }
  EngineStats& stats() { return stats_; }
  MetricsRegistry& metrics() { return metrics_; }
  LockManager& locks() { return locks_; }
  /// The write-ahead log, or null when wal_enabled is false (or wal_dir
  /// is empty — normalized off, mirroring the lock-word knob).
  WriteAheadLog* wal() { return wal_.get(); }

  /// Admission gate for managed top-level execution (RunTransaction /
  /// RetryExecutor::Run; raw Begin() is never gated). Returns OK with a
  /// slot held (release with ReleaseTopLevel), blocks while the queue
  /// has room, or sheds with Status::Overloaded once in-flight plus
  /// queued top-levels exceed the configured bounds — so retry storms
  /// degrade goodput gracefully instead of collapsing it. No-op (always
  /// OK) when admission_max_inflight is 0.
  Status AdmitTopLevel();
  void ReleaseTopLevel();

 private:
  EngineOptions options_;
  EngineStats stats_;
  MetricsRegistry metrics_;
  LockManager locks_;
  /// Constructed before any transaction runs; locks_ holds a raw pointer
  /// (declared after locks_, destroyed first — by then every transaction
  /// has returned and the destructor's FlushAll makes the tail durable).
  std::unique_ptr<WriteAheadLog> wal_;

  std::atomic<uint32_t> top_counter_{0};

  // Engine failure state (MarkFailed / failure / Begin's refusal).
  // failed_ is set, after the status is stored, by MarkFailed, so Begin
  // checks it with one acquire load instead of a process-wide mutex.
  mutable std::mutex failed_mutex_;
  Status failed_status_ = Status::OK();
  std::atomic<bool> failed_{false};

  // Admission gate (see AdmitTopLevel).
  std::mutex admit_mutex_;
  std::condition_variable admit_cv_;
  uint32_t admitted_ = 0;
  uint32_t admit_queued_ = 0;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_TRANSACTION_H_
