// Abstract data types for model-layer objects.
//
// §4.3 sketches the canonical basic object: a pending set plus "an instance
// of an abstract data type"; responding to a pending access applies the
// corresponding function to the instance, yielding a return value and a
// possibly-altered instance. A DataType is that function table. Model-layer
// object state is a single Value (the paper's objects are single abstract
// cells); richer state lives in the engine layer.
//
// Read accesses must be mapped to read-only operations — that is what the
// §4.3 semantic conditions demand, and ValidateAccessSemantics enforces it.
#ifndef NESTEDTX_SERIAL_DATA_TYPE_H_
#define NESTEDTX_SERIAL_DATA_TYPE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "tx/system_type.h"
#include "util/status.h"

namespace nestedtx {

/// A deterministic abstract data type over Value-typed state.
class DataType {
 public:
  virtual ~DataType() = default;

  virtual std::string name() const = 0;

  /// Apply `op` to `state`; returns {new_state, return_value}.
  virtual std::pair<Value, Value> Apply(Value state,
                                        const OpDescriptor& op) const = 0;

  /// True iff `op` never alters the state (for any state).
  virtual bool IsReadOnly(const OpDescriptor& op) const = 0;
};

/// Built-in data types. Operation conventions (op.code):
///
/// "register":  0 kRead   -> returns state
///              1 kWrite  -> state = arg, returns old state
/// "counter":   0 kRead   -> returns state
///              1 kAdd    -> state += arg, returns new state
/// "account":   0 kRead   -> returns balance
///              1 kDeposit  -> state += arg (arg >= 0), returns new balance
///              2 kWithdraw -> if state >= arg: state -= arg, returns new
///                             balance; else unchanged, returns -1
/// "set64":     0 kContains -> returns (state >> (arg % 64)) & 1
///              1 kInsert   -> sets bit, returns previous bit
///              2 kRemove   -> clears bit, returns previous bit
/// "cell":      a nullable engine cell; kAbsentValue (INT64_MIN) encodes
///              "key absent". Used by the engine trace recorder to model
///              Database keys as basic objects.
///              0 kRead        -> returns state (possibly absent)
///              1 kWrite (arg) -> state = arg, returns arg
///              2 kCellAdd     -> state = (absent?0:state) + arg (wrapping),
///                                returns it
///              3 kCellDelete  -> state = absent, returns absent
namespace ops {
inline constexpr uint32_t kRead = 0;
inline constexpr uint32_t kWrite = 1;
inline constexpr uint32_t kAdd = 1;       // counter
inline constexpr uint32_t kDeposit = 1;   // account
inline constexpr uint32_t kWithdraw = 2;  // account
inline constexpr uint32_t kContains = 0;  // set64
inline constexpr uint32_t kInsert = 1;    // set64
inline constexpr uint32_t kRemove = 2;    // set64
inline constexpr uint32_t kCellAdd = 2;    // cell
inline constexpr uint32_t kCellDelete = 3; // cell
}  // namespace ops

/// Sentinel encoding "absent" in the "cell" data type (and in engine
/// traces). Not a storable user value.
inline constexpr Value kAbsentValue = INT64_MIN;

/// Two's-complement addition: wraps around instead of overflowing (signed
/// overflow is undefined behaviour, and deltas and report values are user
/// input). Every sum of Values in the model and the engine goes through
/// here, so both sides wrap identically.
inline Value WrapAdd(Value a, Value b) {
  return static_cast<Value>(static_cast<uint64_t>(a) +
                            static_cast<uint64_t>(b));
}

/// The "cell" operation table: what each cell op does to a nullable cell
/// (nullopt = absent). A cell op reports the state it leaves behind, so
/// the one result is both the new state and the returned value. The
/// model's CellType::Apply and every engine access path (locking
/// mutators, OCC buffered writes, the traced OCC replay) call this, so
/// the operations are defined once. Unknown codes leave the cell as is.
inline std::optional<int64_t> ApplyCellOp(const OpDescriptor& op,
                                          std::optional<int64_t> state) {
  switch (op.code) {
    case ops::kWrite:
      return op.arg;
    case ops::kCellAdd:
      return WrapAdd(state.value_or(0), op.arg);
    case ops::kCellDelete:
      return std::nullopt;
    default:  // ops::kRead
      return state;
  }
}

/// Look up a built-in data type by name; nullptr if unknown. Returned
/// pointer is a process-lifetime singleton.
const DataType* FindDataType(const std::string& name);

/// Every access of `st`: its object's data type exists, and read accesses
/// use read-only operations (so semantic condition 3 of §4.3 holds).
Status ValidateAccessSemantics(const SystemType& st);

}  // namespace nestedtx

#endif  // NESTEDTX_SERIAL_DATA_TYPE_H_
