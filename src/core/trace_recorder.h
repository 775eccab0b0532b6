// Engine trace recording: maps a live multithreaded engine execution into
// the formal model's event vocabulary, so the Lemma 33 serial-correctness
// checker can validate *real* engine runs — a self-verifying mode.
//
// Mapping. Each engine transaction is a transaction of the model (ids are
// already hierarchical); each Get/Put/Add/Delete is an access child of
// its transaction, modelled as an access to a "cell" object (one per
// distinct key). An access's whole lifecycle
//   REQUEST_CREATE, CREATE, REQUEST_COMMIT(v), COMMIT, REPORT_COMMIT(v),
//   INFORM_COMMIT_AT(X)
// is emitted atomically at lock-grant time under the key's mutex, which
// is also where the engine's state change happens — so the recorded
// per-object order is exactly the order the lock manager enforced.
// Transaction lifecycle events are emitted by Begin/Commit/Abort;
// INFORM_{COMMIT,ABORT}_AT events are emitted inside the lock manager's
// per-key commit/abort handlers, again under the key mutex.
//
// The recorded sequence, sorted by its global sequence numbers, is a
// schedule of the R/W Locking system over the SystemType reconstructed by
// BuildSystemType() — which is what CheckSeriallyCorrectForAll consumes.
#ifndef NESTEDTX_CORE_TRACE_RECORDER_H_
#define NESTEDTX_CORE_TRACE_RECORDER_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tx/event.h"
#include "tx/system_type.h"
#include "util/status.h"

namespace nestedtx {

/// Everything the recorder needs to know about one access, captured at
/// grant time.
struct AccessTraceInfo {
  TransactionId access_id;  // child id allocated by the transaction
  uint32_t op_code = 0;     // "cell" op code (ops::kRead etc.)
  Value op_arg = 0;
};

class EngineTraceRecorder {
 public:
  EngineTraceRecorder();

  /// Thread-safe append of one event (stamps a global sequence number).
  void Emit(const Event& e);

  /// Emit the full access group (see header comment) for a granted
  /// access on `key` that returned `value`. Called under the key mutex.
  void EmitAccess(const std::string& key, const AccessTraceInfo& info,
                  Value value);

  /// Object id for `key`, assigning one on first sight (thread-safe).
  ObjectId ObjectFor(const std::string& key);

  /// Record a preloaded committed value (must precede any access).
  void RecordPreload(const std::string& key, Value value);

  /// Record an access's classification for system-type reconstruction.
  void RecordAccessKind(const TransactionId& access_id, ObjectId object,
                        AccessKind kind, OpDescriptor op);

  /// The recorded schedule, in global order.
  Schedule Snapshot() const;

  /// Reconstruct the SystemType this trace is a schedule of: every
  /// transaction observed, every access with its object/kind/op, one
  /// "cell" object per key with its preloaded initial value.
  Result<SystemType> BuildSystemType() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<uint64_t, Event>> events_;
  std::atomic<uint64_t> seq_{0};

  std::map<std::string, ObjectId> object_by_key_;
  std::vector<std::string> key_by_object_;
  std::map<ObjectId, Value> initial_values_;
  struct AccessMeta {
    ObjectId object;
    AccessKind kind;
    OpDescriptor op;
  };
  std::map<TransactionId, AccessMeta> accesses_;
};

}  // namespace nestedtx

#endif  // NESTEDTX_CORE_TRACE_RECORDER_H_
