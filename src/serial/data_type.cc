#include "serial/data_type.h"

#include "util/strings.h"

namespace nestedtx {

namespace {

class RegisterType : public DataType {
 public:
  std::string name() const override { return "register"; }
  std::pair<Value, Value> Apply(Value state,
                                const OpDescriptor& op) const override {
    switch (op.code) {
      case ops::kRead:
        return {state, state};
      case ops::kWrite:
        return {op.arg, state};
      default:
        return {state, 0};
    }
  }
  bool IsReadOnly(const OpDescriptor& op) const override {
    return op.code == ops::kRead;
  }
};

class CounterType : public DataType {
 public:
  std::string name() const override { return "counter"; }
  std::pair<Value, Value> Apply(Value state,
                                const OpDescriptor& op) const override {
    switch (op.code) {
      case ops::kRead:
        return {state, state};
      case ops::kAdd:
        return {WrapAdd(state, op.arg), WrapAdd(state, op.arg)};
      default:
        return {state, 0};
    }
  }
  bool IsReadOnly(const OpDescriptor& op) const override {
    return op.code == ops::kRead;
  }
};

class AccountType : public DataType {
 public:
  std::string name() const override { return "account"; }
  std::pair<Value, Value> Apply(Value state,
                                const OpDescriptor& op) const override {
    switch (op.code) {
      case ops::kRead:
        return {state, state};
      case ops::kDeposit:
        return {WrapAdd(state, op.arg), WrapAdd(state, op.arg)};
      case ops::kWithdraw:
        if (state >= op.arg) return {state - op.arg, state - op.arg};
        return {state, -1};
      default:
        return {state, 0};
    }
  }
  bool IsReadOnly(const OpDescriptor& op) const override {
    return op.code == ops::kRead;
  }
};

class Set64Type : public DataType {
 public:
  std::string name() const override { return "set64"; }
  std::pair<Value, Value> Apply(Value state,
                                const OpDescriptor& op) const override {
    const int bit = static_cast<int>(op.arg) & 63;
    const Value mask = Value{1} << bit;
    const Value prev = (state & mask) ? 1 : 0;
    switch (op.code) {
      case ops::kContains:
        return {state, prev};
      case ops::kInsert:
        return {state | mask, prev};
      case ops::kRemove:
        return {state & ~mask, prev};
      default:
        return {state, 0};
    }
  }
  bool IsReadOnly(const OpDescriptor& op) const override {
    return op.code == ops::kContains;
  }
};

class CellType : public DataType {
 public:
  std::string name() const override { return "cell"; }
  std::pair<Value, Value> Apply(Value state,
                                const OpDescriptor& op) const override {
    if (op.code > ops::kCellDelete) return {state, 0};
    const std::optional<int64_t> next = ApplyCellOp(
        op, state == kAbsentValue ? std::nullopt
                                  : std::optional<int64_t>(state));
    return {next.value_or(kAbsentValue), next.value_or(kAbsentValue)};
  }
  bool IsReadOnly(const OpDescriptor& op) const override {
    return op.code == ops::kRead;
  }
};

}  // namespace

const DataType* FindDataType(const std::string& name) {
  static const RegisterType kRegister;
  static const CounterType kCounter;
  static const AccountType kAccount;
  static const Set64Type kSet64;
  static const CellType kCell;
  if (name == "register") return &kRegister;
  if (name == "counter") return &kCounter;
  if (name == "account") return &kAccount;
  if (name == "set64") return &kSet64;
  if (name == "cell") return &kCell;
  return nullptr;
}

Status ValidateAccessSemantics(const SystemType& st) {
  for (const TransactionId& a : st.AllAccesses()) {
    const auto& info = st.Access(a);
    const DataType* dt = FindDataType(st.Object(info.object).data_type);
    if (dt == nullptr) {
      return Status::InvalidArgument(
          StrCat("object X", info.object, " has unknown data type '",
                 st.Object(info.object).data_type, "'"));
    }
    if (info.kind == AccessKind::kRead && !dt->IsReadOnly(info.op)) {
      return Status::InvalidArgument(
          StrCat("read access ", a, " uses a mutating operation (code ",
                 info.op.code, ") of ", dt->name(),
                 "; semantic condition 3 of the paper would be violated"));
    }
  }
  return Status::OK();
}

}  // namespace nestedtx
