// Savepoints, built on nesting.
//
// The paper's introduction cites System R's recovery blocks — "a recovery
// block can be aborted and the transaction restarted at the last
// savepoint" — as the primitive ancestor of nested transactions. The
// converse also holds: a savepoint is just a subtransaction you operate
// through. This wrapper packages that idiom:
//
//   auto sp = Savepoint::Begin(*txn);
//   sp->txn().Put("k", 1);          // work inside the savepoint scope
//   sp->Rollback();                  // or sp->Release() to keep it
//
// Unlike System R savepoints, these compose: savepoints nest inside
// savepoints, and sibling savepoint scopes can run concurrently.
#ifndef NESTEDTX_CORE_SAVEPOINT_H_
#define NESTEDTX_CORE_SAVEPOINT_H_

#include <memory>

#include "core/transaction.h"
#include "util/status.h"

namespace nestedtx {

class Savepoint {
 public:
  /// Open a savepoint scope under `txn`.
  static Result<Savepoint> Begin(Transaction& txn) {
    Result<std::unique_ptr<Transaction>> child = txn.BeginChild();
    if (!child.ok()) return child.status();
    return Savepoint(std::move(*child));
  }

  Savepoint(Savepoint&&) = default;
  Savepoint& operator=(Savepoint&&) = default;

  /// The transaction scope to operate through while the savepoint is open.
  Transaction& txn() { return *child_; }

  /// Keep everything done since Begin (commits the scope into the parent).
  Status Release() { return child_->Commit(); }

  /// Discard everything done since Begin; the parent continues unharmed
  /// (the partial abort flat transactions lack — the paper's point).
  Status Rollback() { return child_->Abort(); }

  /// True once Release() or Rollback() has been called (the destructor
  /// rolls back an unreleased savepoint).
  bool closed() const { return child_->returned(); }

 private:
  explicit Savepoint(std::unique_ptr<Transaction> child)
      : child_(std::move(child)) {}

  std::unique_ptr<Transaction> child_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_SAVEPOINT_H_
