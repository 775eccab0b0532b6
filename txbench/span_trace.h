// Spans recorded by the txbench driver around its calls into the engine,
// and their self-time accounting.
//
// Spans are recorded from outside the engine only: the driver stamps a
// span around each public call it makes (Begin, TryGet, Add, BeginChild,
// child and top-level Commit/Abort), around the retry backoff sleep, and
// around its own structure (the logical transaction, each top-level
// attempt, each subtransaction). Database::EnableTracing is never used:
// it disables the lock-word fast lanes and replays OCC through the
// locking grant path, so it would measure a different program.
#ifndef TXBENCH_SPAN_TRACE_H_
#define TXBENCH_SPAN_TRACE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace txbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#define TXBENCH_SPANS(X)                          \
  X(kTxn, "txn")                                  \
  X(kAttempt, "attempt")                          \
  X(kSubtxn, "subtxn")                            \
  X(kBegin, "transaction.begin")                  \
  X(kRead, "transaction.read")                    \
  X(kWrite, "transaction.write")                  \
  X(kBeginChild, "transaction.begin_child")       \
  X(kChildCommit, "transaction.child_commit")     \
  X(kChildAbort, "transaction.child_abort")       \
  X(kCommit, "transaction.commit")                \
  X(kAbort, "transaction.abort")                  \
  X(kBackoff, "retry.backoff")

enum SpanName : uint8_t {
#define TXBENCH_SPAN_ENUM(id, name) id,
  TXBENCH_SPANS(TXBENCH_SPAN_ENUM)
#undef TXBENCH_SPAN_ENUM
      kNumSpanNames,
};

inline const char* SpanNameString(int n) {
  static constexpr const char* kNames[] = {
#define TXBENCH_SPAN_STR(id, name) name,
      TXBENCH_SPANS(TXBENCH_SPAN_STR)
#undef TXBENCH_SPAN_STR
  };
  return kNames[n];
}

struct Span {
  uint64_t id;  // shared by every span of one logical transaction
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;  // index within the same logical transaction, -1 = root
  SpanName name;
};

/// Per-name totals over finished logical transactions.
struct SpanTotals {
  std::array<uint64_t, kNumSpanNames> calls{};
  std::array<uint64_t, kNumSpanNames> total_ns{};
  std::array<uint64_t, kNumSpanNames> self_ns{};
  uint64_t roots = 0;
  uint64_t root_ns = 0;  // sum of root (logical transaction) durations

  void Merge(const SpanTotals& o) {
    for (int n = 0; n < kNumSpanNames; ++n) {
      calls[n] += o.calls[n];
      total_ns[n] += o.total_ns[n];
      self_ns[n] += o.self_ns[n];
    }
    roots += o.roots;
    root_ns += o.root_ns;
  }
  uint64_t SelfSum() const {
    uint64_t s = 0;
    for (uint64_t v : self_ns) s += v;
    return s;
  }
};

/// One client's span recorder. Spans of the logical transaction in flight
/// are kept in `open_txn_`; Finish() folds their self times into the
/// totals and keeps the first `export_limit` transactions' spans for
/// writing out at exit (bounded memory).
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t export_limit) : export_limit_(export_limit) {}

  void StartTxn(uint64_t id) {
    id_ = id;
    open_txn_.clear();
    innermost_ = -1;
  }

  int Open(SpanName name) {
    open_txn_.push_back(Span{id_, NowNs(), 0, innermost_, name});
    innermost_ = static_cast<int>(open_txn_.size()) - 1;
    return innermost_;
  }

  void Close(int idx) {
    open_txn_[idx].end_ns = NowNs();
    innermost_ = open_txn_[idx].parent;
  }

  /// Finish the logical transaction: every span must be closed.
  void Finish() {
    AccumulateSelfTimes(open_txn_, &totals_);
    if (exported_txns_ < export_limit_) {
      exported_.insert(exported_.end(), open_txn_.begin(), open_txn_.end());
      ++exported_txns_;
    }
  }

  const SpanTotals& totals() const { return totals_; }
  const std::vector<Span>& exported() const { return exported_; }

  /// Self time of each span = its duration minus the part of its interval
  /// covered by its children (clipped to the parent, overlaps counted
  /// once). `spans` is one logical transaction in open order, root first.
  static void AccumulateSelfTimes(const std::vector<Span>& spans,
                                  SpanTotals* totals) {
    if (spans.empty()) return;
    // Reused across calls: the traced run finishes one transaction per
    // call and should not allocate for it.
    thread_local std::vector<uint64_t> covered, cursor;
    covered.assign(spans.size(), 0);
    cursor.resize(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      cursor[i] = spans[i].start_ns;
    }
    // Children follow their parent in open order, and siblings follow
    // each other, so one forward pass with a per-parent cursor suffices.
    for (size_t i = 1; i < spans.size(); ++i) {
      const int p = spans[i].parent;
      if (p < 0) continue;
      const uint64_t lo = std::max(spans[i].start_ns, cursor[p]);
      const uint64_t hi = std::min(spans[i].end_ns, spans[p].end_ns);
      if (hi > lo) {
        covered[p] += hi - lo;
        cursor[p] = hi;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint64_t dur = spans[i].end_ns - spans[i].start_ns;
      const SpanName n = spans[i].name;
      totals->calls[n] += 1;
      totals->total_ns[n] += dur;
      totals->self_ns[n] += dur - std::min(dur, covered[i]);
    }
    totals->roots += 1;
    totals->root_ns += spans[0].end_ns - spans[0].start_ns;
  }

 private:
  size_t export_limit_;
  uint64_t id_ = 0;
  int innermost_ = -1;
  std::vector<Span> open_txn_;
  SpanTotals totals_;
  size_t exported_txns_ = 0;
  std::vector<Span> exported_;
};

/// Write spans as JSON lines, one span per line. `idx` numbers the spans
/// of one logical transaction from 0 (the root); `parent` refers to it.
inline bool WriteSpans(const char* path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  int idx = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    idx = i > 0 && spans[i - 1].id == s.id ? idx + 1 : 0;
    std::fprintf(f,
                 "{\"id\":%llu,\"idx\":%d,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%d}\n",
                 static_cast<unsigned long long>(s.id), idx,
                 SpanNameString(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace txbench

#endif  // TXBENCH_SPAN_TRACE_H_
