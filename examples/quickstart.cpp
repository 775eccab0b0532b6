// Quickstart: the nested-transaction key-value engine in five minutes.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/database.h"

using nestedtx::Database;
using nestedtx::EngineOptions;
using nestedtx::Status;
using nestedtx::Transaction;

int main() {
  // 1. Open a database. Concurrency control defaults to Moss's nested
  //    read/write locking — the algorithm whose correctness the paper
  //    proves (PODS '87, Fekete/Lynch/Merritt/Weihl).
  EngineOptions options;
  Database db(options);

  // 2. A top-level transaction: reads and writes under two-phase locks.
  {
    auto txn = db.Begin();
    txn->Put("alice", 100).ok();
    txn->Put("bob", 50).ok();
    Status s = txn->Commit();
    std::printf("setup commit: %s\n", s.ToString().c_str());
  }

  // 3. Nesting: subtransactions can fail and be retried without tearing
  //    down the parent — the "spheres of control" the paper's intro
  //    motivates. Locks a child acquires pass to the parent on commit.
  {
    auto txn = db.Begin();

    // First subtransaction: moves 30 from alice to bob and commits.
    {
      auto sub = txn->BeginChild();
      (*sub)->Add("alice", -30);
      (*sub)->Add("bob", 30);
      (*sub)->Commit().ok();
    }

    // Second subtransaction: starts a bad transfer, then aborts. Its
    // writes vanish; the first subtransaction's work is untouched.
    {
      auto sub = txn->BeginChild();
      (*sub)->Add("alice", -9999);
      (*sub)->Abort().ok();  // partial abort!
    }

    auto alice = txn->Get("alice");
    std::printf("inside txn after partial abort: alice=%lld\n",
                static_cast<long long>(*alice));  // 70

    txn->Commit().ok();
  }

  // 4. Committed state.
  std::printf("committed: alice=%lld bob=%lld\n",
              static_cast<long long>(db.ReadCommitted("alice").value()),
              static_cast<long long>(db.ReadCommitted("bob").value()));

  // 5. The retry helper: body runs as a transaction, deadlock victims are
  //    retried automatically.
  Status s = db.RunTransaction(5, [](Transaction& t) -> Status {
    auto r = t.Add("bob", 1);
    return r.ok() ? Status::OK() : r.status();
  });
  std::printf("retrying txn: %s, bob=%lld\n", s.ToString().c_str(),
              static_cast<long long>(db.ReadCommitted("bob").value()));

  std::printf("stats: %s\n", db.stats().ToString().c_str());
  return 0;
}
