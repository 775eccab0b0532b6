// Repeat access under a held lock must be invisible except for speed:
// re-reads (the seqlock lane, or the grant path with the cached handle
// passed in) and re-writes (the grant path with the cached handle)
// return exactly the values a first access would, emit exactly the same
// trace events, and never serve a stale value after the key's holder set
// has changed (the lock word's seq check).
#include <gtest/gtest.h>

#include <thread>

#include "checker/serial_correctness.h"
#include "core/database.h"
#include "serial/data_type.h"
#include "tx/visibility.h"
#include "tx/well_formed.h"

namespace nestedtx {
namespace {

EngineOptions ShortTimeoutOptions() {
  EngineOptions o;
  o.lock_timeout = std::chrono::milliseconds(50);
  return o;
}

// Repeated reads and read-modify-writes on the same keys inside one
// transaction: after the first touch every access reuses the cached
// handle, and each must observe the value the serial semantics dictate.
TEST(HeldLockFastPathTest, RepeatAccessValuesMatchSerialSemantics) {
  Database db;
  db.Preload("k", 5);
  auto t = db.Begin();
  for (int i = 0; i < 50; ++i) {
    auto v = t->TryGet("k");  // read under held read lock
    ASSERT_TRUE(v.ok());
    ASSERT_EQ(**v, 5 + i);
    auto w = t->Add("k", 1);  // write under held write lock
    ASSERT_TRUE(w.ok());
    ASSERT_EQ(*w, 5 + i + 1);
  }
  ASSERT_TRUE(t->Commit().ok());
  auto t2 = db.Begin();
  auto final_v = t2->Get("k");
  ASSERT_TRUE(final_v.ok());
  EXPECT_EQ(*final_v, 55);
  ASSERT_TRUE(t2->Commit().ok());
}

// Repeat grants must record the same event group as cold grants: the
// trace deltas of a first (cold) and second (cached-handle) identical
// access are the same size, and the whole run passes the Theorem 34
// checker.
TEST(HeldLockFastPathTest, FastPathEmitsIdenticalTraceEvents) {
  Database db;
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("k", 1);
  auto t = db.Begin();

  const size_t before_reads = db.trace()->Snapshot().size();
  ASSERT_TRUE(t->TryGet("k").ok());  // cold read: shard lookup + grant
  const size_t after_cold_read = db.trace()->Snapshot().size();
  ASSERT_TRUE(t->TryGet("k").ok());  // repeat read, cached handle
  const size_t after_fast_read = db.trace()->Snapshot().size();

  ASSERT_TRUE(t->Add("k", 2).ok());  // cold write (lock upgrade)
  const size_t after_cold_write = db.trace()->Snapshot().size();
  ASSERT_TRUE(t->Add("k", 2).ok());  // repeat write, cached handle
  const size_t after_fast_write = db.trace()->Snapshot().size();

  // Same number of events per access, cold or repeat.
  const size_t cold_read_group = after_cold_read - before_reads;
  const size_t fast_read_group = after_fast_read - after_cold_read;
  EXPECT_GT(cold_read_group, 0u);
  EXPECT_EQ(fast_read_group, cold_read_group);
  const size_t cold_write_group = after_cold_write - after_fast_read;
  const size_t fast_write_group = after_fast_write - after_cold_write;
  EXPECT_GT(cold_write_group, 0u);
  EXPECT_EQ(fast_write_group, cold_write_group);

  ASSERT_TRUE(t->Commit().ok());

  // And the recorded schedule is a valid, serially correct run of the
  // formal system — repeat-access events included.
  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(ValidateAccessSemantics(*st).ok());
  ASSERT_TRUE(CheckConcurrentWellFormed(*st, alpha).ok());
  EXPECT_TRUE(CheckSeriallyCorrectForAll(*st, alpha, {}).ok());
}

// The repeat-access contract must hold identically in the mutex regime,
// reached two ways: with the lock word disabled (every key born
// inflated), and on a key a real conflict inflated under a live holder
// (a writer that waited and timed out) — plain and traced. Each input
// runs the same repeat-access scenario through the one grant path:
// same values, one holder entry per mode (no duplicate holder), no
// fast-word counter moving while the key is inflated, and on the traced
// input a trace that passes the Theorem 34 checker.
TEST(HeldLockFastPathTest, RepeatAccessParityWithLockWordDisabled) {
  struct Input {
    const char* name;
    bool lock_word;
    bool inflate_by_conflict;
    bool traced;
  };
  for (const Input& in : {Input{"lock_word_disabled", false, false, false},
                          Input{"conflict_inflated", true, true, false},
                          Input{"conflict_inflated_traced", true, true,
                                true}}) {
    SCOPED_TRACE(in.name);
    EngineOptions o = ShortTimeoutOptions();
    o.lock_word_enabled = in.lock_word;
    Database db(o);
    if (in.traced) {
      ASSERT_TRUE(db.EnableTracing().ok());
    }
    db.Preload("k", 5);
    auto t = db.Begin();
    ASSERT_EQ(**t->TryGet("k"), 5);
    if (in.inflate_by_conflict) {
      // A sibling writer waits on t's read lock, inflating the key, and
      // times out; t's lock keeps the key inflated afterwards.
      auto rival = db.Begin();
      EXPECT_TRUE(rival->Put("k", 0).IsTimedOut());
      ASSERT_TRUE(rival->Abort().ok());
    }
    const StatsSnapshot before = db.stats().Snapshot();
    for (int i = 0; i < 50; ++i) {
      auto v = t->TryGet("k");
      ASSERT_TRUE(v.ok());
      ASSERT_EQ(**v, 5 + i);
      auto w = t->Add("k", 1);
      ASSERT_TRUE(w.ok());
      ASSERT_EQ(*w, 5 + i + 1);
    }
    const LockManager::KeySnapshotForTest held =
        db.manager().locks().SnapshotKeyForTest("k");
    EXPECT_TRUE(held.inflated);
    EXPECT_EQ(held.read_holders, std::vector<TransactionId>{t->id()});
    EXPECT_EQ(held.write_holders, std::vector<TransactionId>{t->id()});
    ASSERT_TRUE(t->Commit().ok());
    EXPECT_EQ(db.ReadCommitted("k"), std::optional<int64_t>(55));
    const StatsSnapshot snap = db.stats().Snapshot();
    if (!in.lock_word) {
      EXPECT_EQ(snap.fast_read_reacquires + snap.fast_write_reacquires, 0u)
          << snap.ToString();
    }
    EXPECT_EQ(snap.fast_read_grants + snap.fast_write_grants +
                  snap.fast_read_reacquires + snap.fast_write_reacquires,
              before.fast_read_grants + before.fast_write_grants +
                  before.fast_read_reacquires + before.fast_write_reacquires)
        << snap.ToString();
    if (in.traced) {
      const Schedule alpha = db.trace()->Snapshot();
      auto st = db.trace()->BuildSystemType();
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      ASSERT_TRUE(ValidateAccessSemantics(*st).ok());
      ASSERT_TRUE(CheckConcurrentWellFormed(*st, alpha).ok());
      EXPECT_TRUE(CheckSeriallyCorrectForAll(*st, alpha, {}).ok());
    }
  }
}

// Deterministic invalidation: a committing child's write bumps the key's
// holder epoch, so the parent's cached read handle goes stale and the
// parent's re-read takes the full path — observing the version it just
// inherited, never the old one.
TEST(HeldLockFastPathTest, ParentRereadSeesChildCommittedVersion) {
  Database db;
  db.Preload("k", 5);
  auto parent = db.Begin();
  auto v0 = parent->TryGet("k");  // caches a read handle for k
  ASSERT_TRUE(v0.ok());
  ASSERT_EQ(**v0, 5);

  auto child = parent->BeginChild();
  ASSERT_TRUE(child.ok());
  auto w = (*child)->Add("k", 10);
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(*w, 15);
  ASSERT_TRUE((*child)->Commit().ok());  // version passes to parent

  auto v1 = parent->TryGet("k");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(**v1, 15) << "parent re-read served a stale cached value";
  ASSERT_TRUE(parent->Commit().ok());
}

// An aborting child's version must never leak into the parent's re-read,
// cached handle or not.
TEST(HeldLockFastPathTest, ParentRereadUnaffectedByChildAbort) {
  Database db;
  db.Preload("k", 5);
  auto parent = db.Begin();
  ASSERT_TRUE(parent->TryGet("k").ok());

  auto child = parent->BeginChild();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE((*child)->Add("k", 100).ok());
  ASSERT_TRUE((*child)->Abort().ok());

  auto v = parent->TryGet("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 5);
  ASSERT_TRUE(parent->Commit().ok());
}

// A sibling top-level reader joining the key's holder set moves the
// epoch; the first transaction's subsequent accesses still observe
// correct values (fallback), and its held read lock still excludes a
// sibling writer — repeat access must not have corrupted the holder set.
TEST(HeldLockFastPathTest, SiblingReaderThenWriterExclusion) {
  Database db(ShortTimeoutOptions());
  db.Preload("k", 7);
  auto t1 = db.Begin();
  ASSERT_TRUE(t1->TryGet("k").ok());
  ASSERT_TRUE(t1->TryGet("k").ok());  // seqlock lane engaged

  auto t2 = db.Begin();
  auto v2 = t2->TryGet("k");  // sibling read: shares the lock, bumps epoch
  ASSERT_TRUE(v2.ok());
  ASSERT_EQ(**v2, 7);

  auto v1 = t1->TryGet("k");  // stale handle -> full path, same value
  ASSERT_TRUE(v1.ok());
  ASSERT_EQ(**v1, 7);

  // t2 cannot write while t1 holds its read lock.
  auto blocked = t2->Put("k", 0);
  EXPECT_TRUE(blocked.IsTimedOut() || blocked.IsDeadlock())
      << blocked.ToString();

  ASSERT_TRUE(t2->Abort().ok());
  ASSERT_TRUE(t1->Commit().ok());
  auto t3 = db.Begin();
  auto v3 = t3->Get("k");
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v3, 7);
  ASSERT_TRUE(t3->Commit().ok());
}

// Concurrent nested traffic with heavy key reuse, validated end-to-end
// by the serializability checker — repeat access under real interleaving.
TEST(HeldLockFastPathTest, ConcurrentRepeatAccessTraceIsSeriallyCorrect) {
  Database db(ShortTimeoutOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("a", 0);
  db.Preload("b", 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&db, w] {
      for (int i = 0; i < 10; ++i) {
        Status s = db.RunTransaction(20, [&](Transaction& t) {
          const std::string& mine = (w % 2 == 0) ? "a" : "b";
          const std::string& theirs = (w % 2 == 0) ? "b" : "a";
          for (int r = 0; r < 4; ++r) {
            auto v = t.TryGet(mine);
            if (!v.ok()) return v.status();
          }
          auto add = t.Add(mine, 1);
          if (!add.ok()) return add.status();
          auto add2 = t.Add(mine, 1);  // repeat write
          if (!add2.ok()) return add2.status();
          auto peek = t.TryGet(theirs);
          if (!peek.ok()) return peek.status();
          return Status::OK();
        });
        (void)s;  // timeouts under contention are fine; trace must verify
      }
    });
  }
  for (auto& th : threads) th.join();

  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(ValidateAccessSemantics(*st).ok());
  ASSERT_TRUE(CheckConcurrentWellFormed(*st, alpha).ok());
  EXPECT_TRUE(CheckSeriallyCorrectForAll(*st, alpha, {}).ok());
}

}  // namespace
}  // namespace nestedtx
