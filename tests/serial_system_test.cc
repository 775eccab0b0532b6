#include <gtest/gtest.h>

#include "automata/executor.h"
#include "checker/invariants.h"
#include "explore/random_walk.h"
#include "explore/workload.h"
#include "serial/basic_object.h"
#include "serial/data_type.h"
#include "serial/serial_scheduler.h"
#include "serial/serial_system.h"
#include "serial/transaction_automaton.h"
#include "tx/visibility.h"
#include "tx/well_formed.h"

namespace nestedtx {
namespace {

TEST(SerialSystemTest, CanonicalRunsToQuiescence) {
  SystemType st = MakeCanonicalSystemType();
  auto run = RandomSerialRun(st, /*seed=*/1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->empty());
}

TEST(SerialSystemTest, SchedulesAreWellFormed) {
  SystemType st = MakeCanonicalSystemType();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto run = RandomSerialRun(st, seed);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(CheckSerialWellFormed(st, *run).ok())
        << "seed " << seed << ": " << ToString(*run);
  }
}

TEST(SerialSystemTest, OnlyRelatedTransactionsLiveConcurrently) {
  // Lemma 6.
  SystemType st = MakeCanonicalSystemType();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto run = RandomSerialRun(st, seed);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(CheckOnlyRelatedLive(st, *run).ok()) << "seed " << seed;
  }
}

TEST(SerialSystemTest, VisibleOfSerialIsWellFormed) {
  // Lemma 12 spot check.
  SystemType st = MakeCanonicalSystemType();
  for (uint64_t seed = 0; seed < 10; ++seed) {
    auto run = RandomSerialRun(st, seed);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(CheckVisibleWellFormed(st, *run).ok()) << "seed " << seed;
  }
}

TEST(SerialSystemTest, SchedulerDisciplineHolds) {
  SystemType st = MakeCanonicalSystemType();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto run = RandomSerialRun(st, seed);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(CheckSchedulerDiscipline(st, *run).ok()) << "seed " << seed;
  }
}

TEST(SerialSystemTest, NoAbortsMeansAllTopLevelsCommit) {
  SystemType st = MakeCanonicalSystemType();
  ExecutorOptions exec;
  exec.abort_weight = 0.0;
  auto run = RandomSerialRun(st, 3, {}, exec);
  ASSERT_TRUE(run.ok());
  FateIndex fate = FateIndex::Of(*run);
  for (const TransactionId& top : st.Children(TransactionId::Root())) {
    EXPECT_TRUE(fate.committed.count(top)) << top;
  }
  EXPECT_TRUE(fate.aborted.empty());
}

TEST(SerialSystemTest, CommittedRunComputesSerialValues) {
  // With aborts disabled, whatever sibling order the scheduler picks, the
  // canonical type's committed values must match one of the serial
  // sibling orders. X0 is a counter starting at 0; T0.0 adds 5.
  SystemType st = MakeCanonicalSystemType();
  ExecutorOptions exec;
  exec.abort_weight = 0.0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    auto run = RandomSerialRun(st, seed, {}, exec);
    ASSERT_TRUE(run.ok());
    // Find the REQUEST_COMMIT value of T0.0: read(X0) + add5 result.
    for (const Event& e : *run) {
      if (e.kind == EventKind::kRequestCommit &&
          e.txn == TransactionId::Root().Child(0)) {
        // The two accesses may run in either sibling order: read-then-add
        // gives 0 + 5 = 5; add-then-read gives 5 + 5 = 10. Both are
        // legitimate serial outcomes; anything else is not.
        EXPECT_TRUE(e.value == 5 || e.value == 10) << e.value;
      }
    }
  }
}

TEST(SerialSystemTest, RandomTypesRunClean) {
  WorkloadParams params;
  params.num_objects = 2;
  params.num_top_level = 3;
  params.max_extra_depth = 2;
  for (uint64_t seed = 0; seed < 15; ++seed) {
    SystemType st = MakeRandomSystemType(params, seed);
    auto run = RandomSerialRun(st, seed * 31 + 7);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(CheckSerialWellFormed(st, *run).ok()) << "seed " << seed;
    EXPECT_TRUE(CheckOnlyRelatedLive(st, *run).ok()) << "seed " << seed;
  }
}

TEST(SerialSchedulerTest, CreateRequiresRequest) {
  SystemType st = MakeCanonicalSystemType();
  SerialScheduler sched(&st);
  Status s = sched.Apply(Event::Create(TransactionId::Root().Child(0)));
  EXPECT_TRUE(s.IsFailedPrecondition());
}

TEST(SerialSchedulerTest, InitialStateEnablesOnlyCreateRoot) {
  SystemType st = MakeCanonicalSystemType();
  SerialScheduler sched(&st);
  auto enabled = sched.EnabledOutputs();
  ASSERT_EQ(enabled.size(), 1u);
  EXPECT_EQ(enabled[0], Event::Create(TransactionId::Root()));
}

TEST(SerialSchedulerTest, SiblingsRunSequentially) {
  SystemType st = MakeCanonicalSystemType();
  SerialScheduler sched(&st);
  const TransactionId a = TransactionId::Root().Child(0);
  const TransactionId b = TransactionId::Root().Child(1);
  ASSERT_TRUE(sched.Apply(Event::Create(TransactionId::Root())).ok());
  ASSERT_TRUE(sched.Apply(Event::RequestCreate(a)).ok());
  ASSERT_TRUE(sched.Apply(Event::RequestCreate(b)).ok());
  ASSERT_TRUE(sched.Apply(Event::Create(a)).ok());
  // While a is live, b cannot be created or aborted.
  EXPECT_TRUE(sched.Apply(Event::Create(b)).IsFailedPrecondition());
  EXPECT_TRUE(sched.Apply(Event::Abort(b)).IsFailedPrecondition());
  // a commits (no children created) -> b can go.
  ASSERT_TRUE(sched.Apply(Event::RequestCommit(a, 0)).ok());
  ASSERT_TRUE(sched.Apply(Event::Commit(a)).ok());
  EXPECT_TRUE(sched.Apply(Event::Create(b)).ok());
}

TEST(SerialSchedulerTest, AbortOnlyBeforeCreate) {
  SystemType st = MakeCanonicalSystemType();
  SerialScheduler sched(&st);
  const TransactionId a = TransactionId::Root().Child(0);
  ASSERT_TRUE(sched.Apply(Event::Create(TransactionId::Root())).ok());
  ASSERT_TRUE(sched.Apply(Event::RequestCreate(a)).ok());
  ASSERT_TRUE(sched.Apply(Event::Create(a)).ok());
  EXPECT_TRUE(sched.Apply(Event::Abort(a)).IsFailedPrecondition());
}

TEST(SerialSchedulerTest, CommitWaitsForChildren) {
  SystemType st = MakeCanonicalSystemType();
  SerialScheduler sched(&st);
  const TransactionId a = TransactionId::Root().Child(0);
  const TransactionId a0 = a.Child(0);
  ASSERT_TRUE(sched.Apply(Event::Create(TransactionId::Root())).ok());
  ASSERT_TRUE(sched.Apply(Event::RequestCreate(a)).ok());
  ASSERT_TRUE(sched.Apply(Event::Create(a)).ok());
  ASSERT_TRUE(sched.Apply(Event::RequestCreate(a0)).ok());
  ASSERT_TRUE(sched.Apply(Event::RequestCommit(a, 0)).ok());
  // Child a0 was create-requested but has not returned.
  EXPECT_TRUE(sched.Apply(Event::Commit(a)).IsFailedPrecondition());
  ASSERT_TRUE(sched.Apply(Event::Abort(a0)).ok());
  EXPECT_TRUE(sched.Apply(Event::Commit(a)).ok());
}

TEST(BasicObjectTest, AppliesDataTypeDeterministically) {
  SystemType st = MakeCanonicalSystemType();
  BasicObject x0(&st, 0);
  const TransactionId read = TransactionId::Root().Child(0).Child(0);
  const TransactionId add = TransactionId::Root().Child(0).Child(1);
  ASSERT_TRUE(x0.Apply(Event::Create(add)).ok());
  auto enabled = x0.EnabledOutputs();
  ASSERT_EQ(enabled.size(), 1u);
  EXPECT_EQ(enabled[0], Event::RequestCommit(add, 5));  // counter 0+5
  ASSERT_TRUE(x0.Apply(enabled[0]).ok());
  EXPECT_EQ(x0.state(), 5);
  // Read now sees 5.
  ASSERT_TRUE(x0.Apply(Event::Create(read)).ok());
  enabled = x0.EnabledOutputs();
  ASSERT_EQ(enabled.size(), 1u);
  EXPECT_EQ(enabled[0], Event::RequestCommit(read, 5));
}

TEST(BasicObjectTest, RejectsWrongValue) {
  SystemType st = MakeCanonicalSystemType();
  BasicObject x0(&st, 0);
  const TransactionId add = TransactionId::Root().Child(0).Child(1);
  ASSERT_TRUE(x0.Apply(Event::Create(add)).ok());
  EXPECT_TRUE(
      x0.Apply(Event::RequestCommit(add, 999)).IsFailedPrecondition());
}

TEST(BasicObjectTest, RejectsResponseWithoutCreate) {
  SystemType st = MakeCanonicalSystemType();
  BasicObject x0(&st, 0);
  const TransactionId add = TransactionId::Root().Child(0).Child(1);
  EXPECT_FALSE(x0.Apply(Event::RequestCommit(add, 5)).ok());
}

// A transaction's commit value is the sum of its children's reports,
// wrapping in two's complement like the engine's trace aggregate.
TEST(ScriptedTransactionTest, AggregateWrapsOnOverflow) {
  SystemTypeBuilder b;
  const ObjectId x = b.AddObject("x", "cell");
  const TransactionId t = b.AddInternal(TransactionId::Root());
  const TransactionId a0 =
      b.AddAccess(t, x, AccessKind::kRead, {ops::kRead, 0});
  const TransactionId a1 =
      b.AddAccess(t, x, AccessKind::kRead, {ops::kRead, 0});
  SystemType st = b.Build();
  ScriptedTransaction txn(&st, t);
  ASSERT_TRUE(txn.Apply(Event::Create(t)).ok());
  ASSERT_TRUE(txn.Apply(Event::RequestCreate(a0)).ok());
  ASSERT_TRUE(txn.Apply(Event::RequestCreate(a1)).ok());
  ASSERT_TRUE(txn.Apply(Event::ReportCommit(a0, INT64_MAX)).ok());
  ASSERT_TRUE(txn.Apply(Event::ReportCommit(a1, 2)).ok());
  const std::vector<Event> out = txn.EnabledOutputs();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Event::RequestCommit(t, INT64_MIN + 1));
}

}  // namespace
}  // namespace nestedtx
