#include <gtest/gtest.h>

#include "core/database.h"
#include "core/savepoint.h"

namespace nestedtx {
namespace {

TEST(SavepointTest, RollbackDiscardsScope) {
  Database db;
  db.Preload("k", 1);
  auto txn = db.Begin();
  ASSERT_TRUE(txn->Put("k", 2).ok());
  auto sp = Savepoint::Begin(*txn);
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(sp->txn().Put("k", 99).ok());
  ASSERT_TRUE(sp->txn().Put("extra", 1).ok());
  ASSERT_TRUE(sp->Rollback().ok());
  // Back to the pre-savepoint state of the transaction.
  auto r = txn->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
  EXPECT_TRUE(txn->Get("extra").status().IsNotFound());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 2);
}

TEST(SavepointTest, ReleaseKeepsScope) {
  Database db;
  auto txn = db.Begin();
  auto sp = Savepoint::Begin(*txn);
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(sp->txn().Put("k", 7).ok());
  ASSERT_TRUE(sp->Release().ok());
  EXPECT_TRUE(sp->closed());
  auto r = txn->Get("k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 7);
}

TEST(SavepointTest, SavepointsNest) {
  Database db;
  auto txn = db.Begin();
  auto outer = Savepoint::Begin(*txn);
  ASSERT_TRUE(outer.ok());
  ASSERT_TRUE(outer->txn().Put("a", 1).ok());
  {
    auto inner = Savepoint::Begin(outer->txn());
    ASSERT_TRUE(inner.ok());
    ASSERT_TRUE(inner->txn().Put("b", 2).ok());
    ASSERT_TRUE(inner->Rollback().ok());
  }
  ASSERT_TRUE(outer->Release().ok());
  auto a = txn->Get("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 1);
  EXPECT_TRUE(txn->Get("b").status().IsNotFound());
  ASSERT_TRUE(txn->Commit().ok());
}

TEST(SavepointTest, UnreleasedSavepointRollsBackOnDestruction) {
  Database db;
  auto txn = db.Begin();
  {
    auto sp = Savepoint::Begin(*txn);
    ASSERT_TRUE(sp.ok());
    ASSERT_TRUE(sp->txn().Put("k", 1).ok());
    // dropped without Release()
  }
  EXPECT_TRUE(txn->Get("k").status().IsNotFound());
  ASSERT_TRUE(txn->Commit().ok());
}

TEST(SavepointTest, ParentCannotCommitWithOpenSavepoint) {
  Database db;
  auto txn = db.Begin();
  auto sp = Savepoint::Begin(*txn);
  ASSERT_TRUE(sp.ok());
  EXPECT_TRUE(txn->Commit().IsFailedPrecondition());
  ASSERT_TRUE(sp->Release().ok());
  EXPECT_TRUE(txn->Commit().ok());
}

}  // namespace
}  // namespace nestedtx
