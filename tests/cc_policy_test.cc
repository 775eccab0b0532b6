// Unit tests for the ConflictPolicy seam (core/cc_policy.h): the
// wait-die age rule over packed TransactionIds, no-wait's immediate
// aborts, the stats split (prevention_aborts vs deadlocks), precedence
// against the doom registry, lock-word escalation on a prevention
// abort, and the retry-backoff scope fix that keeps two prevention-mode
// transactions from livelocking on identical jitter schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/database.h"
#include "core/lock_manager.h"
#include "core/retry.h"

namespace nestedtx {
namespace {

TransactionId T(std::initializer_list<uint32_t> path) {
  return TransactionId(std::vector<uint32_t>(path));
}

LockManager::Mutator Set(int64_t v) {
  return [v](std::optional<int64_t>) { return v; };
}

EngineOptions ProtocolOptions(CcProtocol protocol) {
  EngineOptions o;
  o.cc_protocol = protocol;
  o.lock_timeout = std::chrono::milliseconds(500);
  return o;
}

TEST(CcProtocolTest, NamesAreStable) {
  EXPECT_STREQ(CcProtocolName(CcProtocol::kDetect), "detect");
  EXPECT_STREQ(CcProtocolName(CcProtocol::kWaitDie), "wait-die");
  EXPECT_STREQ(CcProtocolName(CcProtocol::kNoWait), "no-wait");
}

TEST(CcProtocolTest, FactoryMatchesOption) {
  for (CcProtocol p :
       {CcProtocol::kDetect, CcProtocol::kWaitDie, CcProtocol::kNoWait}) {
    EngineStats stats;
    LockManager lm(ProtocolOptions(p), &stats);
    EXPECT_STREQ(lm.policy().Name(), CcProtocolName(p));
  }
}

TEST(CcPolicyWaitDieTest, YoungerRequesterDies) {
  EngineStats stats;
  LockManager lm(ProtocolOptions(CcProtocol::kWaitDie), &stats);
  ASSERT_TRUE(lm.AcquireWrite(T({0}), "k", Set(1)).ok());
  // T({1}) began later — younger — so it dies instantly, no wait.
  const Status s = lm.AcquireWrite(T({1}), "k", Set(2)).status();
  EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.prevention_aborts, 1u);
  // Prevention deaths are NOT detected deadlocks: the deadlocks counter
  // (and its victim attribution) stays untouched.
  EXPECT_EQ(snap.deadlocks, 0u);
  EXPECT_EQ(snap.deadlock_victims_self, 0u);
  lm.OnAbort(T({0}), std::vector<std::string>{"k"});
}

TEST(CcPolicyWaitDieTest, OlderRequesterWaitsForGrant) {
  EngineStats stats;
  LockManager lm(ProtocolOptions(CcProtocol::kWaitDie), &stats);
  ASSERT_TRUE(lm.AcquireWrite(T({1}), "k", Set(1)).ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    lm.OnAbort(T({1}), std::vector<std::string>{"k"});
  });
  // T({0}) is older than the holder: it parks instead of dying, and is
  // granted once the young holder releases.
  const Status s = lm.AcquireWrite(T({0}), "k", Set(2)).status();
  releaser.join();
  EXPECT_TRUE(s.ok()) << s.ToString();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.prevention_aborts, 0u);
  EXPECT_GE(snap.lock_waits, 1u);
  lm.OnAbort(T({0}), std::vector<std::string>{"k"});
}

TEST(CcPolicyWaitDieTest, ParentWaitsOnItsOwnDescendant) {
  // A prefix orders before its extensions, so a parent blocked on its
  // live child counts as older and WAITS — the wait that resolves when
  // the child commits and the lock is inherited upward. Killing the
  // parent here would deadlock the commit protocol against itself.
  EngineStats stats;
  LockManager lm(ProtocolOptions(CcProtocol::kWaitDie), &stats);
  ASSERT_TRUE(lm.AcquireWrite(T({0, 0}), "k", Set(7)).ok());
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    lm.OnCommit(T({0, 0}), T({0}), std::vector<std::string>{"k"});
  });
  const Status s = lm.AcquireWrite(T({0}), "k", Set(8)).status();
  committer.join();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(stats.Snapshot().prevention_aborts, 0u);
  lm.OnAbort(T({0}), std::vector<std::string>{"k"});
}

TEST(CcPolicyNoWaitTest, AnyConflictDiesEvenWhenOlder)  {
  EngineStats stats;
  LockManager lm(ProtocolOptions(CcProtocol::kNoWait), &stats);
  ASSERT_TRUE(lm.AcquireWrite(T({1}), "k", Set(1)).ok());
  // Older requester, but no-wait has no age rule: immediate death.
  const Status s = lm.AcquireWrite(T({0}), "k", Set(2)).status();
  EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.prevention_aborts, 1u);
  EXPECT_EQ(snap.deadlocks, 0u);
  EXPECT_EQ(snap.lock_waits, 0u);  // no-wait never parks
  lm.OnAbort(T({1}), std::vector<std::string>{"k"});
}

TEST(CcPolicyNoWaitTest, ReadersStillShare) {
  // The protocol governs CONFLICTING requests only; Moss read-read
  // compatibility grants as ever.
  EngineStats stats;
  LockManager lm(ProtocolOptions(CcProtocol::kNoWait), &stats);
  lm.SetBase("k", 5);
  ASSERT_TRUE(lm.AcquireRead(T({0}), "k").ok());
  ASSERT_TRUE(lm.AcquireRead(T({1}), "k").ok());
  EXPECT_EQ(stats.Snapshot().prevention_aborts, 0u);
  lm.OnAbort(T({0}), std::vector<std::string>{"k"});
  lm.OnAbort(T({1}), std::vector<std::string>{"k"});
}

TEST(CcPolicyNoWaitTest, DoomBeatsPreventionAbort) {
  // A doomed requester is an orphan first and a conflict loser second:
  // the loop-top doom check runs before the policy is consulted, so the
  // terminal status is Cancelled, not Deadlock (the caller must unwind,
  // not retry).
  EngineStats stats;
  LockManager lm(ProtocolOptions(CcProtocol::kNoWait), &stats);
  ASSERT_TRUE(lm.AcquireWrite(T({1}), "k", Set(1)).ok());
  lm.DoomSubtree(T({0}));
  const Status s = lm.AcquireWrite(T({0, 0}), "k", Set(2)).status();
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  EXPECT_EQ(stats.Snapshot().prevention_aborts, 0u);
  lm.ClearDoom(T({0}));
  lm.OnAbort(T({1}), std::vector<std::string>{"k"});
}

TEST(CcPolicyLockWordTest, PreventionAbortEscalatesTheKey) {
  // A policy abort is a conflict event: the requester reaches the
  // decision only on the slow path under an inflated key, so a
  // conflicting fast-path CAS can never spin past a protocol that wants
  // the requester dead. The inflation counter is the observable.
  EngineStats stats;
  LockManager lm(ProtocolOptions(CcProtocol::kNoWait), &stats);
  ASSERT_TRUE(lm.AcquireWrite(T({0}), "k", Set(1)).ok());
  const Status s = lm.AcquireWrite(T({1}), "k", Set(2)).status();
  EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
  const StatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.prevention_aborts, 1u);
  EXPECT_GE(snap.lock_word_inflations, 1u) << snap.ToString();
  lm.OnAbort(T({0}), std::vector<std::string>{"k"});
}

// ---------------------------------------------------------------------
// The retry-backoff livelock fix (see RetryBackoffDelayUs).

TEST(CcPolicyBackoffTest, PreventionRetriesUseDistinctJitterScopes) {
  // Two transactions that abort each other on every collision only ever
  // converge if their backoff schedules diverge. Scope the jitter by the
  // failed attempt's id and the schedules differ from the first retry;
  // the old shared root scope made them identical at every attempt.
  RetryPolicy p;
  bool diverged = false;
  for (int attempt = 1; attempt <= 4 && !diverged; ++attempt) {
    diverged = RetryBackoffDelayUs(p, T({0}), attempt) !=
               RetryBackoffDelayUs(p, T({1}), attempt);
  }
  EXPECT_TRUE(diverged);
}

TEST(CcPolicyBackoffTest, NoWaitOppositeOrderWritersConverge) {
  // The livelock regression proper: two threads grab {k0,k1} in opposite
  // orders with a dwell between the grabs, under no-wait, through
  // RetryExecutor (whose deterministic jitter stream is exactly the
  // surface that livelocked: with the shared scope, both loops slept
  // identical delays after every mutual kill and re-collided forever).
  // Both must commit within the attempt budget.
  EngineOptions o = ProtocolOptions(CcProtocol::kNoWait);
  Database db(o);
  db.Preload("k0", 0);
  db.Preload("k1", 0);
  RetryPolicy rp;
  rp.max_attempts_top = 100;
  rp.backoff_cap_us = 3200;  // keep the worst-case test runtime small
  RetryExecutor exec(&db, rp);

  std::atomic<int> at_gate{0};
  Status st[2];
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      at_gate.fetch_add(1);
      while (at_gate.load() < 2) std::this_thread::yield();
      const std::string first = t == 0 ? "k0" : "k1";
      const std::string second = t == 0 ? "k1" : "k0";
      st[t] = exec.Run([&](Transaction& tx) -> Status {
        RETURN_IF_ERROR(tx.Add(first, 1).status());
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        return tx.Add(second, 1).status();
      });
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_TRUE(st[0].ok()) << st[0].ToString();
  EXPECT_TRUE(st[1].ok()) << st[1].ToString();
  EXPECT_EQ(db.ReadCommitted("k0").value_or(0), 2);
  EXPECT_EQ(db.ReadCommitted("k1").value_or(0), 2);
}

}  // namespace
}  // namespace nestedtx
