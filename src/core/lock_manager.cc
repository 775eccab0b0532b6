#include "core/lock_manager.h"

#include <algorithm>
#include <functional>
#include <set>
#include <thread>
#include <utility>

#include "core/failpoints.h"
#include "core/id_small_set.h"
#include "serial/data_type.h"
#include "util/cleanup.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

// Lock-word bit semantics (layout in lock_manager.h):
//
//   INFLATED — the key is in the mutex regime; fast paths bail on
//       sight and ks.m alone protects the holder structures.
//   MICRO — the fast-regime spin lock; while a key is uninflated,
//       holder structures and the base are touched only by the MICRO
//       owner. MICRO and INFLATED are mutually exclusive: setting
//       INFLATED requires ks.m plus a clear MICRO bit, and nothing sets
//       MICRO on an inflated word.
//   PRESENT — whether the value cache (KeyState::hot.value) holds a
//       value or a deletion/absence; maintained together with the cache.
//   seq — bumped on every structural change, in both regimes: a holder
//       insertion, an inheritance, a removal, a base install, and a
//       deflation. An unchanged *word* therefore proves the holder sets
//       and the value cache are exactly as a handle saw them (the
//       seqlock read lane and OCC validation).
constexpr uint64_t BumpSeq(uint64_t w) { return LockWordBumpSeq(w); }

// Fast paths give up after this many failed tries for the MICRO bit and
// retry under the key mutex, which waits the bit out: contention alone
// never escalates a key (only a conflict does).
constexpr int kFastSpinBudget = 64;

}  // namespace

// One lock-table entry. Holder sets and the version map are sorted small
// vectors (holder counts are tiny in practice). `hot.word` is the atomic
// lock word described above; `hot.value` caches the value a
// conflict-free reader observes (deepest writer's version, else base),
// exact whenever the key is uninflated, so the seqlock read lane never
// touches the plain structures.
struct LockManager::KeyState {
  KeyState(std::string k, bool born_inflated)
      : key(std::move(k)),
        hot{{born_inflated ? kWordInflated : 0}} {}

  const std::string key;  // for trace emission from slow-path grants
  LockWordPair hot;       // lock word + seqlock value cache
  std::mutex m;
  std::condition_variable cv;
  IdSet read_holders;
  // Write holders with their version slots: holder set and version map
  // are always the same transactions, so one sorted vector serves both.
  VersionMap write_holders;
  std::optional<int64_t> base;
  // Threads parked on cv, maintained under m (incremented only around
  // the cv wait). Releasers skip the wakeup entirely when it is 0; no
  // wakeup is lost because a waiter holds m from wake to re-park, so a
  // releaser either sees it parked or sees the post-release state it
  // re-checks against. waiters > 0 also blocks deflation: an uninflated
  // key never has a parked waiter.
  uint32_t waiters = 0;
  // Contention profile, maintained under m at WaitForGrant exit (every
  // exit path holds m). Fast-word grants never wait, so the key mutex
  // owns these counters in both regimes. CollectHotKeys ranks keys by
  // wait_ns on export.
  uint64_t wait_count = 0;
  uint64_t wait_ns = 0;
};

namespace {

// Acquire the MICRO bit on an uninflated word, spinning without bound.
// Caller holds ks.m, which excludes new inflations, so the wait is only
// for in-flight fast sections (short, never blocked on a lock). Returns
// the pre-acquisition word (MICRO clear).
uint64_t AcquireMicroLocked(LockManager::KeyState& ks) {
  uint64_t w = ks.hot.word.load(std::memory_order_relaxed);
  for (;;) {
    if (w & kWordMicro) {
      std::this_thread::yield();
      w = ks.hot.word.load(std::memory_order_relaxed);
      continue;
    }
    if (ks.hot.word.compare_exchange_weak(w, w | kWordMicro,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      return w;
    }
  }
}

// Bounded-spin MICRO acquisition for the fast lanes (no ks.m held). On
// success *pre receives the pre-CAS word (INFLATED and MICRO clear).
bool TryAcquireMicro(LockManager::KeyState& ks, uint64_t* pre) {
  for (int spin = 0; spin < kFastSpinBudget; ++spin) {
    uint64_t w = ks.hot.word.load(std::memory_order_relaxed);
    if (w & kWordInflated) return false;
    if (w & kWordMicro) {
      std::this_thread::yield();
      continue;
    }
    if (ks.hot.word.compare_exchange_weak(w, w | kWordMicro,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      *pre = w;
      return true;
    }
  }
  return false;
}

// MICRO acquisition for the fast lanes. Without ks.m the spin is bounded
// (kFastSpinBudget). With ks.m held (`key_locked`) inflation is excluded,
// so a set MICRO bit is only an in-flight fast section and is waited
// out: a lane retried under the mutex escalates on INFLATED alone, never
// on a lost spin race. Fails on an inflated word; on success *pre
// receives the pre-CAS word (INFLATED and MICRO clear).
bool AcquireMicroFast(LockManager::KeyState& ks, bool key_locked,
                      uint64_t* pre) {
  if (!key_locked) return TryAcquireMicro(ks, pre);
  if (ks.hot.word.load(std::memory_order_relaxed) & kWordInflated) {
    return false;
  }
  *pre = AcquireMicroLocked(ks);
  return true;
}

// Micro-bit scope for inspection paths (snapshots, base access) that
// must see a stable uninflated key without escalating it. Caller holds
// ks.m; on an inflated key ks.m alone already owns the state and no bit
// is taken. `word()` exposes the word for mutating sections, which call
// `set_word` with the value to publish: on release of the bit, or at
// once on an inflated key (ks.m owns its word).
class WordSection {
 public:
  explicit WordSection(LockManager::KeyState& ks) : ks_(ks) {
    w_ = ks.hot.word.load(std::memory_order_relaxed);
    if ((w_ & kWordInflated) == 0) {
      w_ = AcquireMicroLocked(ks_);
      locked_ = true;
    }
  }
  ~WordSection() {
    if (locked_) ks_.hot.word.store(w_, std::memory_order_release);
  }
  WordSection(const WordSection&) = delete;
  WordSection& operator=(const WordSection&) = delete;

  uint64_t word() const { return w_; }
  void set_word(uint64_t w) {
    w_ = w;
    if (!locked_) ks_.hot.word.store(w_, std::memory_order_release);
  }

 private:
  LockManager::KeyState& ks_;
  uint64_t w_ = 0;
  bool locked_ = false;
};

}  // namespace

LockManager::LockManager(const EngineOptions& options, EngineStats* stats,
                         MetricsRegistry* metrics)
    : options_(options),
      stats_(stats),
      metrics_(metrics),
      policy_(MakeConflictPolicy(options)) {}

LockManager::~LockManager() = default;

size_t LockManager::ShardOf(const std::string& key) const {
  return std::hash<std::string>{}(key) % kLockTableShards;
}

LockManager::KeyState& LockManager::FindOrCreateLocked(
    Shard& shard, const std::string& key) {
  auto it = shard.keys.find(key);
  if (it == shard.keys.end()) {
    it = shard.keys
             .emplace(key, std::make_unique<KeyState>(
                               key, !options_.lock_word_enabled))
             .first;
  }
  return *it->second;
}

LockManager::KeyState& LockManager::GetKeyState(const std::string& key) {
  Shard& shard = shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.m);
  return FindOrCreateLocked(shard, key);
}

std::optional<int64_t> LockManager::CurrentValue(const KeyState& ks) {
  const VersionMap::Entry* deepest = nullptr;
  for (const VersionMap::Entry& e : ks.write_holders) {
    if (deepest == nullptr || e.id.Depth() > deepest->id.Depth()) {
      deepest = &e;
    }
  }
  if (deepest != nullptr) return deepest->value;
  return ks.base;
}

namespace {

// Re-derive the value cache from the authoritative structures; caller
// owns the MICRO bit. Returns `w` with the PRESENT bit set accordingly.
uint64_t RefreshValueCache(LockManager::KeyState& ks,
                           std::optional<int64_t> value, uint64_t w) {
  ks.hot.value.store(value.value_or(0), std::memory_order_relaxed);
  return value.has_value() ? (w | kWordPresent) : (w & ~kWordPresent);
}

}  // namespace

void LockManager::EnsureInflatedLocked(KeyState& ks) {
  if (ks.hot.word.load(std::memory_order_relaxed) & kWordInflated) return;
  // Drain in-flight fast sections by taking the micro bit, then publish
  // the escalated word with MICRO clear: the acquire CAS pairs with the
  // last fast section's release store (so the plain structures are ours
  // under ks.m from here), and the release store pairs with every later
  // fast-path load that sees INFLATED and bails. The seq is preserved —
  // handles granted in the fast regime stay seq-valid across inflation.
  const uint64_t w = AcquireMicroLocked(ks);
  ks.hot.word.store(w | kWordInflated, std::memory_order_release);
  stats_->Add(kStatLockWordInflations);
}

void LockManager::MaybeDeflateLocked(KeyState& ks) {
  if (!FastLanesEnabled()) return;
  const uint64_t w = ks.hot.word.load(std::memory_order_relaxed);
  if ((w & kWordInflated) == 0) return;
  if (!ks.read_holders.empty() || !ks.write_holders.empty() ||
      ks.waiters != 0) {
    return;
  }
  // Quiesced: hand the key back to the fast lanes. While INFLATED is set
  // no fast path can own the MICRO bit, so under ks.m the word is ours to
  // rewrite. The seq bump invalidates any handle that predates the
  // inflation (its owner is gone — a live holder would have blocked the
  // deflation — but a stale exact-word match must stay impossible).
  ks.hot.value.store(ks.base.value_or(0), std::memory_order_relaxed);
  uint64_t nw = BumpSeq(w) & kWordSeqMask;
  if (ks.base.has_value()) nw |= kWordPresent;
  ks.hot.word.store(nw, std::memory_order_release);
  stats_->Add(kStatLockWordDeflations);
}

std::vector<TransactionId> LockManager::Conflicts(const KeyState& ks,
                                                  const TransactionId& txn,
                                                  bool exclusive) {
  std::vector<TransactionId> out;
  for (const VersionMap::Entry& e : ks.write_holders) {
    if (!e.id.IsAncestorOf(txn)) out.push_back(e.id);
  }
  if (exclusive) {
    for (const TransactionId& r : ks.read_holders) {
      // A transaction holding both lock modes is one conflicter, not two
      // — duplicates would inflate every wait-graph edge set it appears
      // in and the AddWait cycle checks over them.
      if (!r.IsAncestorOf(txn) && !ks.write_holders.Contains(r)) {
        out.push_back(r);
      }
    }
  }
  return out;
}

std::vector<TransactionId> LockManager::ConflictsForTest(
    const std::string& key, const TransactionId& txn, bool exclusive) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(ks.m);
  WordSection section(ks);
  return Conflicts(ks, txn, exclusive);
}

void LockManager::DoomSubtree(const TransactionId& root) {
  std::vector<KeyState*> to_wake;
  {
    std::lock_guard<std::mutex> lock(doom_mutex_);
    if (std::find(doomed_roots_.begin(), doomed_roots_.end(), root) ==
        doomed_roots_.end()) {
      doomed_roots_.push_back(root);
      doomed_count_.store(doomed_roots_.size(), std::memory_order_relaxed);
    }
    for (const ParkedWaiter& w : parked_waiters_) {
      if (root.IsAncestorOf(w.txn) &&
          std::find(to_wake.begin(), to_wake.end(), w.ks) == to_wake.end()) {
        to_wake.push_back(w.ks);
      }
    }
  }
  // Mutex-pass + notify with no doom or key mutex held: passing through
  // the key mutex orders the delivery after the (still-registered)
  // waiter's check-then-wait critical section, so it is either already
  // parked (the notify reaches it) or will re-check the doomed flag
  // before parking. KeyStates are stable for the manager's lifetime, so
  // a waiter unparking concurrently only makes a notify spurious.
  for (KeyState* ks : to_wake) {
    { std::lock_guard<std::mutex> key_lock(ks->m); }
    ks->cv.notify_all();
  }
}

void LockManager::ClearDoom(const TransactionId& root) {
  if (doomed_count_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(doom_mutex_);
  doomed_roots_.erase(
      std::remove(doomed_roots_.begin(), doomed_roots_.end(), root),
      doomed_roots_.end());
  doomed_count_.store(doomed_roots_.size(), std::memory_order_relaxed);
}

bool LockManager::IsDoomedSlow(const TransactionId& txn) const {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  for (const TransactionId& root : doomed_roots_) {
    if (root.IsAncestorOf(txn)) return true;
  }
  return false;
}

size_t LockManager::DoomedRootCount() const {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  return doomed_roots_.size();
}

size_t LockManager::ParkedWaiterCount() const {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  return parked_waiters_.size();
}

bool LockManager::ParkWaiter(const TransactionId& txn, KeyState* ks) {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  if (doomed_count_.load(std::memory_order_relaxed) != 0) {
    for (const TransactionId& root : doomed_roots_) {
      if (root.IsAncestorOf(txn)) return true;
    }
  }
  parked_waiters_.push_back(ParkedWaiter{txn, ks});
  return false;
}

void LockManager::UnparkWaiter(const TransactionId& txn,
                               const KeyState* ks) {
  std::lock_guard<std::mutex> lock(doom_mutex_);
  for (size_t i = 0; i < parked_waiters_.size(); ++i) {
    if (parked_waiters_[i].ks == ks && parked_waiters_[i].txn == txn) {
      parked_waiters_[i] = std::move(parked_waiters_.back());
      parked_waiters_.pop_back();
      return;
    }
  }
}

Status LockManager::WaitForGrant(KeyState& ks,
                                 std::unique_lock<std::mutex>& lk,
                                 const TransactionId& txn, bool exclusive) {
  // Set at the first park, so a request that never waits (every repeat
  // grant on an inflated key passes through here) reads no clock.
  std::chrono::steady_clock::time_point deadline;
  bool waited = false;
  bool registered = false;
  bool parked = false;
  // Every exit — grant, deadlock, timeout, cancellation, injected fault —
  // must clear the policy's wait registration and the park-table entry.
  // A return that skips OnWaitEnd leaves a stale edge behind, and stale
  // edges make unrelated transactions see phantom cycles (and spuriously
  // deadlock) forever after.
  auto unregister = MakeCleanup([&] {
    if (registered) policy_->OnWaitEnd(txn);
    if (parked) UnparkWaiter(txn, &ks);
  });
  // Terminal-status precedence is pinned: victim > doomed > granted >
  // timed out, re-checked in that order at EVERY classification site (the
  // loop top, the doom branches, the pre-park refusal, the deadline
  // branch). A transaction victimized by a cycle check while an ancestor
  // abort dooms it concurrently must report exactly one terminal status —
  // Deadlock — whichever notification wakes it first; letting the wake
  // race decide put the outcome (and its counter) on whichever path won.
  auto take_victim = [&]() -> bool {
    if (registered && policy_->TakeVictim(txn)) {
      registered = false;  // TakeVictim consumed the entry
      return true;
    }
    return false;
  };
  auto victim_status = [&]() -> Status {
    stats_->Add2(kStatDeadlocks, kStatDeadlockVictimOther);
    return Status::Deadlock(
        StrCat(txn, " chosen as deadlock victim while waiting"));
  };
  // Wait-latency accounting, armed only once this request actually
  // parks (wait_start_ns below) so the no-conflict grant path never
  // reads the clock. Every exit — grant, deadlock, timeout,
  // cancellation, injected fault — holds ks.m, so the per-key counters
  // need no extra locking; the thread-local counters feed the sampled
  // span of the transaction driving this (synchronous) call.
  uint64_t wait_start_ns = 0;
  auto record_wait = MakeCleanup([&] {
    if (!waited) return;
    const uint64_t elapsed = MonotonicNowNs() - wait_start_ns;
    ++ks.wait_count;
    ks.wait_ns += elapsed;
    ThreadWaitCounters& acct = ThreadWaitAccounting();
    acct.ns += elapsed;
    ++acct.count;
    if (metrics_ != nullptr) metrics_->Record(kHistLockWaitNs, elapsed);
  });
  std::vector<WaitGraph::Wakeup> wakeups;
  for (;;) {
    // The slow path owns the key from here, and the victim-wakeup branch
    // below drops lk — another thread's release may deflate the key
    // inside that window — so inflation is re-asserted at every loop
    // entry, before any holder structure is read.
    EnsureInflatedLocked(ks);
    // Another transaction's cycle check may have picked us as the victim
    // while we slept; its notification is delivered under ks.m, so the
    // mark cannot race past this check into our next wait.
    if (take_victim()) return victim_status();
    // Orphan check on every pass: an ancestor abort dooms this subtree
    // mid-wait, and the doom's wakeup lands here — return Cancelled
    // instead of re-parking for the rest of the lock timeout. (Checked
    // again atomically with park registration below; this covers the
    // already-parked wakeups, where the park-table entry guarantees the
    // doom notified our cv.)
    if (IsDoomed(txn)) {
      // A victim mark delivered while IsDoomed scanned the registry must
      // still win (precedence above): consume it before reporting the
      // doom.
      if (take_victim()) return victim_status();
      if (waited) stats_->Add(kStatWaitsCancelled);
      return Status::Cancelled(
          StrCat(txn, " cancelled while waiting (subtree doomed by "
                      "ancestor abort)"));
    }
    std::vector<TransactionId> conflicts = Conflicts(ks, txn, exclusive);
    if (conflicts.empty()) return Status::OK();
    {
      WaitGraph::WaiterInfo info;
      info.mutex = &ks.m;
      info.cv = &ks.cv;
      wakeups.clear();
      const ConflictPolicy::Decision d =
          policy_->OnConflict(txn, conflicts, info, &wakeups);
      if (d.action == ConflictPolicy::Decision::Action::kAbort) {
        registered = false;  // a rejecting policy never leaves an entry
        if (d.prevention) {
          // A prevention-rule death (wait-die / no-wait), decided under
          // the inflated key's mutex: its own counter, distinct from
          // detected cycles. The requester retries under a fresh id.
          stats_->Add(kStatPreventionAborts);
        } else {
          // Detection picked the requester at its own registration.
          stats_->Add2(kStatDeadlocks, kStatDeadlockVictimSelf);
        }
        return d.status;
      }
      registered = d.registered;
      if (!wakeups.empty()) {
        // Our registration victimized other waiters. Drop our key mutex
        // (never hold two), then for each distinct victim slot pass
        // through the victim's key mutex and notify only after releasing
        // it. The mutex pass orders the delivery after the victim's
        // check-then-wait critical section — the victim either has not
        // checked its flag yet (it will see the mark) or is already
        // parked in wait (the notify reaches it) — while notifying
        // unlocked means the woken victim never stalls on a mutex we
        // still own. Several victims parked on one key share a slot;
        // duplicates are coalesced to one pass+notify.
        lk.unlock();
        uint64_t issued = 0;
        for (size_t i = 0; i < wakeups.size(); ++i) {
          bool seen = false;
          for (size_t j = 0; j < i && !seen; ++j) {
            seen = wakeups[j].cv == wakeups[i].cv;
          }
          if (seen) continue;
          { std::lock_guard<std::mutex> victim_lock(*wakeups[i].mutex); }
          wakeups[i].cv->notify_all();
          ++issued;
        }
        stats_->Add(kStatWakeupsIssued, issued);
        if (issued < wakeups.size()) {
          stats_->Add(kStatWakeupsCoalesced, wakeups.size() - issued);
        }
        lk.lock();
        continue;
      }
    }
    if (!waited) {
      waited = true;
      wait_start_ns = MonotonicNowNs();
      deadline = std::chrono::steady_clock::now() + options_.lock_timeout;
      stats_->Add(kStatLockWaits);
    }
    if (!parked) {
      // First park on this key: enter the cancellation park table. The
      // registration re-checks the doomed roots under the same mutex, so
      // a concurrent DoomSubtree either sees this entry (and notifies
      // our cv through a ks.m mutex-pass) or we see its root here and
      // never park — the one ordering the loop-top check cannot close.
      if (ParkWaiter(txn, &ks)) {
        // Doomed before ever parking — but a cycle check may have
        // victimized this (already registered) waiter inside the same
        // window. Victim precedence holds here too: pre-fix this return
        // skipped the check, so the terminal status depended on which
        // notification landed first.
        if (take_victim()) return victim_status();
        stats_->Add(kStatWaitsCancelled);
        return Status::Cancelled(
            StrCat(txn, " cancelled before parking (subtree doomed by "
                        "ancestor abort)"));
      }
      parked = true;
    }
    // A failpoint may truncate this wait: the waiter comes back early and
    // re-evaluates, exactly the spurious-wakeup schedule a condition
    // variable is allowed (but rarely chooses) to produce.
    auto this_deadline = deadline;
    if (FailPoints::MaybeSpuriousWakeup(FailPoints::kWaitWakeup)) {
      this_deadline = std::min(
          deadline, std::chrono::steady_clock::now() +
                        std::chrono::microseconds(50));
    }
    ++ks.waiters;
    const bool timed_out =
        ks.cv.wait_until(lk, this_deadline) == std::cv_status::timeout;
    --ks.waiters;
    // Stretches the wake-to-classify window; in the wild the race below
    // is microseconds wide, with the delay armed a regression test can
    // land a doom or victim mark inside it deterministically.
    FailPoints::MaybeDelay(FailPoints::kWaitWakeup);
    if (timed_out && std::chrono::steady_clock::now() >= deadline) {
      // The deadline tripped, but wait_until timing out says nothing
      // about WHY we should return: a grant, a victim mark or a subtree
      // doom may have landed just as the timer expired (their state
      // changes are published under mutexes we do not hold while
      // parked). Classifying by the cv result alone misreports those
      // wakes as Timeout — the caller then retries a transaction that
      // was in fact cancelled, and the outcome lands on the wrong
      // counter. Re-check the definitive state in the pinned precedence
      // order (victim > doomed > granted > timed out) so every wake
      // resolves to exactly one outcome and one counter.
      if (take_victim()) return victim_status();
      if (IsDoomed(txn)) {
        if (take_victim()) return victim_status();
        stats_->Add(kStatWaitsCancelled);
        return Status::Cancelled(
            StrCat(txn, " cancelled while waiting (subtree doomed by "
                        "ancestor abort)"));
      }
      if (Conflicts(ks, txn, exclusive).empty()) return Status::OK();
      stats_->Add(kStatLockTimeouts);
      return Status::TimedOut(
          StrCat(txn, " timed out waiting for lock on key"));
    }
    RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kWaitWakeup));
  }
}

bool LockManager::TakeFastGrant(KeyState& ks, const TransactionId& txn,
                                bool exclusive, bool key_locked,
                                uint64_t* w) {
  // The word cannot speak for the whole grant decision while a subtree is
  // doomed anywhere (WaitForGrant must get the chance to return Cancelled
  // before granting) or the grant failpoint is armed (injections fire
  // from the mutex-protected site, and a delay must not run under a spin
  // lock).
  if (!FastLanesEnabled() ||
      doomed_count_.load(std::memory_order_relaxed) != 0 ||
      FailPoints::Armed(FailPoints::kLockGrant)) {
    return false;
  }
  if (!AcquireMicroFast(ks, key_locked, w)) return false;
  // Moss compatibility over the real holder sets (tiny sorted vectors;
  // the no-conflict scan allocates nothing). Any conflict escalates: a
  // conflicter is a would-be waiter, and waiting lives on the mutex path.
  if (!Conflicts(ks, txn, exclusive).empty()) {
    ks.hot.word.store(*w, std::memory_order_release);
    return false;
  }
  return true;
}

Result<std::optional<int64_t>> LockManager::AcquireRead(
    const TransactionId& txn, const std::string& key,
    const AccessTraceInfo* trace, HeldLock* held) {
  return Acquire(txn, key, nullptr, trace, held);
}

Result<std::optional<int64_t>> LockManager::AcquireWrite(
    const TransactionId& txn, const std::string& key,
    const Mutator& mutator, const AccessTraceInfo* trace, HeldLock* held) {
  return Acquire(txn, key, &mutator, trace, held);
}

Result<std::optional<int64_t>> LockManager::Acquire(
    const TransactionId& txn, const std::string& key, const Mutator* mutator,
    const AccessTraceInfo* trace, HeldLock* held) {
  KeyState& ks = (held != nullptr && held->key != nullptr) ? *held->key
                                                           : GetKeyState(key);
  const bool exclusive = mutator != nullptr;
  uint64_t w = 0;
  // (1) Fast grant under the MICRO bit, bounded spin, no key mutex.
  if (TakeFastGrant(ks, txn, exclusive, /*key_locked=*/false, &w)) {
    return Grant(ks, txn, mutator, w, trace, held);
  }
  std::unique_lock<std::mutex> lk(ks.m);
  // (2) The same grant under ks.m, which excludes inflation, so a busy
  // MICRO bit is waited out: a compatible request never escalates.
  if (TakeFastGrant(ks, txn, exclusive, /*key_locked=*/true, &w)) {
    return Grant(ks, txn, mutator, w, trace, held);
  }
  // (3) The mutex regime: WaitForGrant inflates the key and returns once
  // the request is compatible (or failed), still holding ks.m.
  RETURN_IF_ERROR(WaitForGrant(ks, lk, txn, exclusive));
  RETURN_IF_ERROR(FailPoints::MaybeFail(FailPoints::kLockGrant));
  FailPoints::MaybeDelay(FailPoints::kLockGrant);
  return Grant(ks, txn, mutator, ks.hot.word.load(std::memory_order_relaxed),
               trace, held);
}

std::optional<int64_t> LockManager::Grant(KeyState& ks,
                                          const TransactionId& txn,
                                          const Mutator* mutator, uint64_t w,
                                          const AccessTraceInfo* trace,
                                          HeldLock* held) {
  // Every write holder is an ancestor of txn (for a write, every holder
  // is), so txn observes the deepest writer's version, and a write makes
  // txn the deepest writer: its new version IS the current value.
  std::optional<int64_t> value = CurrentValue(ks);
  bool inserted;
  if (mutator == nullptr) {
    inserted = ks.read_holders.Insert(txn);
  } else {
    value = (*mutator)(value);
    inserted = ks.write_holders.Put(txn, value);  // else own-slot rewrite
    w = RefreshValueCache(ks, value, w);
  }
  if (inserted) w = BumpSeq(w);
  if (held != nullptr) {
    *held = HeldLock{&ks, &ks.hot, w,
                     /*read=*/mutator == nullptr ||
                         ks.read_holders.Contains(txn)};
  }
  // Publish. In the fast regime `w` is the pre-CAS word, so this store
  // also releases the MICRO bit; in the mutex regime ks.m orders it.
  ks.hot.word.store(w, std::memory_order_release);
  if ((w & kWordInflated) == 0) {
    stats_->Add(mutator == nullptr ? kStatFastReadGrants
                : inserted         ? kStatFastWriteGrants
                                   : kStatFastWriteReacquires);
    return value;
  }
  stats_->Add2(kStatLockGrants, mutator == nullptr ? kStatReads : kStatWrites);
  if (recorder_ != nullptr && trace != nullptr) {
    // Emitted under the key mutex: the recorded per-object order is the
    // grant order the lock manager enforced.
    recorder_->EmitAccess(ks.key, *trace, value.value_or(kAbsentValue));
  }
  return value;
}

// Batch-local bookkeeping: counters accumulated while key mutexes (or
// micro bits) are held, wakeup intents deduped by KeyState, all flushed
// once after the last key mutex drops.
struct LockManager::ReleaseScratch {
  uint64_t inherited = 0;        // commit: lock handoffs (or releases)
  uint64_t discarded = 0;        // abort: versions purged
  uint64_t notify_requests = 0;  // raw intents, before coalescing
  std::vector<KeyState*> changed;  // deduped pending wakeups

  // Clear for a new batch, keeping vector capacity (the scratch is
  // thread-local and reused across batches).
  void Reset() {
    inherited = discarded = notify_requests = 0;
    changed.clear();
  }

  // A holder-set change on `ks` wants its waiters woken. Dual-mode
  // (read+write) holders request twice per key; the dedupe coalesces
  // them to one notify.
  void PendWakeup(KeyState* ks) {
    ++notify_requests;
    if (std::find(changed.begin(), changed.end(), ks) == changed.end()) {
      changed.push_back(ks);
    }
  }
};

void LockManager::ReleaseKey(KeyState& ks, const TransactionId& txn,
                             const TransactionId* parent, uint64_t w,
                             ReleaseScratch& scratch) {
  // Holder-set modes this release changed; each is one wakeup request (a
  // dual-mode holder's two are coalesced to one notify in phase 3).
  size_t modes = 0;
  if (parent == nullptr) {
    // Abort: discard entries of txn and (defensively) stray descendants.
    const size_t writes = ks.write_holders.EraseIf(
        [&](const TransactionId& wh) { return txn.IsAncestorOf(wh); });
    scratch.discarded += writes;  // each write holder owned one version slot
    const size_t reads = ks.read_holders.EraseIf(
        [&](const TransactionId& r) { return txn.IsAncestorOf(r); });
    modes = (writes > 0 ? 1 : 0) + (reads > 0 ? 1 : 0);
  } else if (parent->IsRoot()) {
    // Top-level commit: release the locks, install the version as base.
    if (auto version = ks.write_holders.TryTake(txn)) {
      ks.base = *version;
      ++modes;
    }
    if (ks.read_holders.Erase(txn)) ++modes;
    scratch.inherited += modes;
  } else {
    // Subtransaction commit: the parent takes the child's place — and
    // inherits its version — in one sorted-vector pass per mode.
    if (ks.write_holders.ReplaceWithAncestor(txn, *parent) !=
        ReplaceOutcome::kAbsent) {
      ++modes;
    }
    if (ks.read_holders.ReplaceWithAncestor(txn, *parent) !=
        ReplaceOutcome::kAbsent) {
      ++modes;
    }
    scratch.inherited += modes;
  }
  // The one seq rule: a structural change bumps the seq, and the value
  // cache follows the structures (an abort purge or an install can move
  // the current value).
  if (modes > 0) w = RefreshValueCache(ks, CurrentValue(ks), BumpSeq(w));
  if (w & kWordInflated) {
    // Mutex-regime tail, under ks.m. A wakeup is requested only if some
    // thread is actually parked on this key — the waiter-count handshake
    // (see KeyState::waiters) makes the skip lossless.
    if (ks.waiters > 0) {
      for (size_t i = 0; i < modes; ++i) scratch.PendWakeup(&ks);
    }
    // Emitted at the instant of the state change, so the per-object
    // event order is the enforced order (header comment). An abort is
    // informed even when no lock was held (the model's generic scheduler
    // may inform any object of any abort).
    if (recorder_ != nullptr && (parent == nullptr || modes > 0)) {
      const ObjectId x = recorder_->ObjectFor(ks.key);
      recorder_->Emit(parent == nullptr ? Event::InformAbortAt(x, txn)
                                        : Event::InformCommitAt(x, txn));
    }
  }
  // Publish; in the fast regime this store also releases the MICRO bit.
  // (Uninflated ⇒ no parked waiters and no recorder: nothing is owed.)
  ks.hot.word.store(w, std::memory_order_release);
}

template <typename KeyOf, typename HeldOf>
void LockManager::ReleaseBatch(const TransactionId& txn,
                               const TransactionId* parent, size_t n,
                               const KeyOf& key_of, const HeldOf& held_of) {
  if (n == 0) return;

  // Batch buffers are thread-local: a release runs to completion on its
  // calling thread and never reenters the release path, so reusing the
  // buffers' capacity keeps repeated small batches allocation-free.
  thread_local std::vector<KeyState*> states;
  thread_local std::vector<std::pair<size_t, size_t>> uncached;
  thread_local ReleaseScratch scratch;
  states.assign(n, nullptr);
  uncached.clear();  // (shard, key index)
  scratch.Reset();

  // Phase 1: resolve every KeyState. Cached handles go direct — no
  // shard hash at all on the fast path; the remainder are bucketed by
  // shard and resolved under one shard-mutex hold per shard instead of
  // one lock/unlock cycle per key.
  for (size_t i = 0; i < n; ++i) {
    const HeldLock* held = held_of(i);
    if (held != nullptr && held->key != nullptr) {
      states[i] = held->key;
    } else {
      uncached.emplace_back(ShardOf(key_of(i)), i);
    }
  }
  if (!uncached.empty()) {
    std::sort(uncached.begin(), uncached.end());
    for (size_t j = 0; j < uncached.size();) {
      Shard& shard = shards_[uncached[j].first];
      std::lock_guard<std::mutex> lock(shard.m);
      for (const size_t s = uncached[j].first;
           j < uncached.size() && uncached[j].first == s; ++j) {
        states[uncached[j].second] =
            &FindOrCreateLocked(shard, key_of(uncached[j].second));
      }
    }
  }

  // Phase 2: per key, INFORM_COMMIT_AT / INFORM_ABORT_AT through the one
  // release body — under the MICRO bit on an uninflated key (retried
  // under ks.m, which waits the bit out, rather than escalate), else
  // under ks.m on the inflated key, where it also records wakeup intents
  // and the trace event. No notifies. A key this release quiesces
  // deflates back to the fast regime. Armed release failpoints keep
  // firing from the mutex regime (and never sleep under the spin bit).
  const FailPoints::Site site =
      parent != nullptr ? FailPoints::kCommitInherit : FailPoints::kAbortPurge;
  for (size_t i = 0; i < n; ++i) {
    KeyState& ks = *states[i];
    const bool fast = FastLanesEnabled() && !FailPoints::Armed(site);
    uint64_t w = 0;
    if (fast && AcquireMicroFast(ks, /*key_locked=*/false, &w)) {
      ReleaseKey(ks, txn, parent, w, scratch);
      continue;
    }
    std::lock_guard<std::mutex> lock(ks.m);
    if (fast && AcquireMicroFast(ks, /*key_locked=*/true, &w)) {
      ReleaseKey(ks, txn, parent, w, scratch);
      continue;
    }
    EnsureInflatedLocked(ks);
    // Stretch the inherit/purge window while holders pile up on ks.cv —
    // the release-side race surface the storm tests lean on.
    FailPoints::MaybeDelay(site);
    ReleaseKey(ks, txn, parent, ks.hot.word.load(std::memory_order_relaxed),
               scratch);
    MaybeDeflateLocked(ks);
  }

  // Phase 3: every key mutex is dropped. One striped-counter bump per
  // stat, then the coalesced wakeups — woken waiters grab a free mutex.
  if (scratch.inherited > 0) {
    stats_->Add(kStatLocksInherited, scratch.inherited);
  }
  if (scratch.discarded > 0) {
    stats_->Add(kStatVersionsDiscarded, scratch.discarded);
  }
  if (!scratch.changed.empty()) {
    stats_->Add(kStatWakeupsIssued, scratch.changed.size());
    const uint64_t coalesced =
        scratch.notify_requests - scratch.changed.size();
    if (coalesced > 0) stats_->Add(kStatWakeupsCoalesced, coalesced);
    for (KeyState* ks : scratch.changed) ks->cv.notify_all();
  }
  // (The group-commit release hook lives with the committer, not here:
  // Transaction's top-level commit calls WriteAheadLog::
  // NoteCommitReleased(ticket) after OnCommit returns, because only the
  // committer knows which WAL seq this release retires.)
}

namespace {
// held_of accessor for the string overloads: no cached handles.
constexpr auto kNoHeld = [](size_t) -> const LockManager::HeldLock* {
  return nullptr;
};
}  // namespace

void LockManager::OnCommit(const TransactionId& txn,
                           const TransactionId& parent,
                           const std::vector<std::string>& keys) {
  ReleaseBatch(
      txn, &parent, keys.size(),
      [&](size_t i) -> const std::string& { return keys[i]; }, kNoHeld);
}

void LockManager::OnCommit(const TransactionId& txn,
                           const TransactionId& parent,
                           const std::vector<KeyHold>& keys) {
  ReleaseBatch(
      txn, &parent, keys.size(),
      [&](size_t i) -> const std::string& { return keys[i].key; },
      [&](size_t i) { return &keys[i].held; });
}

void LockManager::OnAbort(const TransactionId& txn,
                          const std::vector<std::string>& keys) {
  ReleaseBatch(
      txn, nullptr, keys.size(),
      [&](size_t i) -> const std::string& { return keys[i]; }, kNoHeld);
}

void LockManager::OnAbort(const TransactionId& txn,
                          const std::vector<KeyHold>& keys) {
  ReleaseBatch(
      txn, nullptr, keys.size(),
      [&](size_t i) -> const std::string& { return keys[i].key; },
      [&](size_t i) { return &keys[i].held; });
}

std::vector<HotKey> LockManager::CollectHotKeys(size_t k) {
  std::vector<HotKey> out;
  if (k == 0) return out;
  // KeyStates are stable for the manager's lifetime, so collect the
  // pointers per shard first and read each key's counters under its own
  // mutex afterwards — no shard mutex is ever held across a key mutex.
  // The wait counters are written only under ks.m (fast-word grants
  // never wait), so no holder enumeration and no micro bit is needed.
  std::vector<KeyState*> states;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.m);
    for (const auto& [key, ks] : shard.keys) states.push_back(ks.get());
  }
  for (KeyState* ks : states) {
    std::lock_guard<std::mutex> key_lock(ks->m);
    if (ks->wait_count == 0) continue;
    out.push_back(HotKey{ks->key, ks->wait_count, ks->wait_ns});
  }
  std::sort(out.begin(), out.end(), [](const HotKey& a, const HotKey& b) {
    if (a.wait_ns != b.wait_ns) return a.wait_ns > b.wait_ns;
    return a.key < b.key;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

Result<std::optional<int64_t>> LockManager::OccReadKey(const std::string& key,
                                                       OccReadEntry* entry) {
  KeyState& ks = GetKeyState(key);
  for (;;) {
    const uint64_t w1 = ks.hot.word.load(std::memory_order_acquire);
    if (w1 & kWordInflated) {
      // Fail closed. An untraced kOcc engine never inflates a key (only
      // the locking grant and release paths do, and its handles never
      // take them), but an inflated key belongs to the mutex regime —
      // holders or waiters may be on it — so its word is no validation
      // version.
      stats_->Add(kStatOccValidationAborts);
      return Status::Aborted(
          StrCat("optimistic read of a locked (inflated) key: ", key));
    }
    if (w1 & kWordMicro) {
      std::this_thread::yield();
      continue;
    }
    // Seqlock read: value cache between two word loads. An exactly-equal
    // word proves the cache was stable (and MICRO/INFLATED clear) across
    // both loads, so the observed value is the committed base.
    const int64_t cached = ks.hot.value.load(std::memory_order_acquire);
    if (ks.hot.word.load(std::memory_order_acquire) != w1) continue;
    entry->key_state = &ks;
    entry->word = w1;
    entry->observed = (w1 & kWordPresent) ? std::optional<int64_t>(cached)
                                          : std::nullopt;
    entry->from_store = true;
    return entry->observed;
  }
}

namespace {

// OccCommit's write-lock spin budget. Far more generous than
// kFastSpinBudget: a committer that backed out here pays a full
// transaction retry, not a mutex fallback, and the holders it waits on
// are other commit sections (short, never blocked on a lock).
constexpr int kOccCommitSpinBudget = 4096;

}  // namespace

Status LockManager::OccCommit(const std::vector<WalWrite>& writes,
                              const std::vector<OccReadEntry>& reads,
                              uint64_t wal_shard_hint,
                              WalTicket* wal_ticket) {
  // (1) Lock phase: take the MICRO bit on every write key in sorted key
  // order. Sorted exclusive acquisition makes concurrent committers
  // deadlock-free: a committer only ever waits for keys greater than all
  // it holds, so any wait cycle would need a descending edge.
  struct LockedWrite {
    KeyState* ks;
    uint64_t pre;  // pre-CAS word (MICRO clear)
  };
  std::vector<LockedWrite> locked;
  locked.reserve(writes.size());
  auto fail = [&](std::string msg) {
    // Back out: restore the pre-lock words untouched (no seq bump — the
    // aborted commit made no observable change).
    for (const LockedWrite& lw : locked) {
      lw.ks->hot.word.store(lw.pre, std::memory_order_release);
    }
    stats_->Add(kStatOccValidationAborts);
    return Status::Aborted(std::move(msg));
  };
  for (const WalWrite& w : writes) {
    KeyState& ks = GetKeyState(w.key);
    bool have = false;
    uint64_t pre = 0;
    for (int spin = 0; spin < kOccCommitSpinBudget && !have; ++spin) {
      uint64_t cur = ks.hot.word.load(std::memory_order_relaxed);
      if (cur & kWordInflated) {
        // Fail closed, as in OccReadKey: no untraced kOcc engine
        // inflates a key, and an inflated word is no version to install
        // over.
        return fail(StrCat("OCC write set conflicts with a locked "
                           "(inflated) key: ",
                           w.key));
      }
      if (cur & kWordMicro) {
        std::this_thread::yield();
        continue;
      }
      if (ks.hot.word.compare_exchange_weak(cur, cur | kWordMicro,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
        pre = cur;
        have = true;
      }
    }
    if (!have) {
      return fail(StrCat("OCC write lock spin budget exhausted on key: ",
                         w.key));
    }
    locked.push_back({&ks, pre});
  }
  // (2) Validate: every store-sourced read must see an EXACTLY unchanged
  // word. For a key we write-locked ourselves the pre-lock word is
  // compared (our own MICRO bit must not fail us). Exact-word equality is
  // the whole argument: every committed change to an uninflated key bumps
  // the seq, and a regime change flips INFLATED, so equality proves the
  // observed value is still the committed value (DESIGN §4.9).
  for (const OccReadEntry& r : reads) {
    if (r.key_state == nullptr) continue;  // buffer-sourced: merge-validated
    uint64_t cur = 0;
    bool ours = false;
    for (const LockedWrite& lw : locked) {
      if (lw.ks == r.key_state) {
        cur = lw.pre;
        ours = true;
        break;
      }
    }
    if (!ours) cur = r.key_state->hot.word.load(std::memory_order_acquire);
    if (cur != r.word) {
      return fail(StrCat("OCC validation failed: key changed since read: ",
                         r.key));
    }
  }
  // (2.5) Durability point: append the commit image while the write set
  // is still MICRO-locked — a later writer of any of these keys commits
  // only after our release stores, so its record seq is strictly greater
  // (the per-key ordering invariant of core/wal.h). Append failure backs
  // out exactly like a validation failure (pre-lock words restored,
  // nothing installed) but surfaces as IoError and is NOT a validation
  // abort: the commit was serializable, the log was not writable.
  if (wal_ != nullptr && wal_ticket != nullptr && !writes.empty()) {
    Result<WalTicket> t = wal_->AppendImage(wal_shard_hint, writes,
                                            /*release_follows=*/true);
    if (!t.ok()) {
      for (const LockedWrite& lw : locked) {
        lw.ks->hot.word.store(lw.pre, std::memory_order_release);
      }
      return t.status();
    }
    *wal_ticket = *t;
  }
  // (3) Install: each write becomes the committed base; the release
  // store publishes the refreshed value cache with a bumped seq and a
  // cleared MICRO bit in one shot, so later optimistic readers and
  // committers observe the change. Read-only commits never reach here
  // with locks held (empty write set: pure validation, zero stores).
  for (size_t i = 0; i < writes.size(); ++i) {
    KeyState& ks = *locked[i].ks;
    ks.base = writes[i].value;
    const uint64_t nw =
        RefreshValueCache(ks, writes[i].value, BumpSeq(locked[i].pre));
    ks.hot.word.store(nw, std::memory_order_release);
  }
  // The install stores ARE this commit's release fan-out: tell any flush
  // leader holding a group open that this committer is done, and retire
  // the seq from its shard's unreleased set (checkpoint truncation
  // floor — see WriteAheadLog::Checkpoint).
  if (wal_ != nullptr && wal_ticket != nullptr && wal_ticket->seq != 0) {
    wal_->NoteCommitReleased(*wal_ticket);
  }
  return Status::OK();
}

void LockManager::SetBase(const std::string& key,
                          std::optional<int64_t> value) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(ks.m);
  WordSection section(ks);
  ks.base = value;
  // A base install is a structural change: the seq moves (so any
  // preexisting handle revalidates) and the value cache follows.
  section.set_word(
      RefreshValueCache(ks, CurrentValue(ks), BumpSeq(section.word())));
}

void LockManager::SnapshotBase(
    const std::function<void(const std::string&, int64_t)>& emit) {
  // Same two-pass shape as CollectHotKeys: KeyStates are stable for the
  // manager's lifetime, so collect the pointers per shard first and read
  // each base under its own key mutex afterwards — no shard mutex is
  // ever held across a key mutex, and commits proceed between keys
  // (this is the checkpoint's FUZZY scan; WriteAheadLog::Checkpoint
  // repairs whatever it races past from the log).
  std::vector<KeyState*> states;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard.m);
    for (const auto& [key, ks] : shard.keys) states.push_back(ks.get());
  }
  for (KeyState* ks : states) {
    std::lock_guard<std::mutex> lock(ks->m);
    // On an uninflated key ks.m alone does NOT exclude fast-word
    // writers; the micro bit is held for the read (without escalating).
    WordSection section(*ks);
    if (ks->base.has_value()) emit(ks->key, *ks->base);
  }
}

std::optional<int64_t> LockManager::ReadBase(const std::string& key) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(ks.m);
  WordSection section(ks);
  return ks.base;
}

LockManager::KeySnapshotForTest LockManager::SnapshotKeyForTest(
    const std::string& key) {
  KeyState& ks = GetKeyState(key);
  std::lock_guard<std::mutex> lock(ks.m);
  // On an uninflated key ks.m alone does NOT exclude fast-word holders;
  // the micro bit is held for the copy (without escalating the key).
  WordSection section(ks);
  KeySnapshotForTest out;
  out.read_holders.assign(ks.read_holders.begin(), ks.read_holders.end());
  for (const VersionMap::Entry& e : ks.write_holders) {
    out.write_holders.push_back(e.id);
    out.versions.emplace_back(e.id, e.value);
  }
  out.base = ks.base;
  out.holder_epoch = section.word() & kWordSeqMask;
  out.inflated = (section.word() & kWordInflated) != 0;
  return out;
}

}  // namespace nestedtx
