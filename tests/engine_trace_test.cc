// The self-verifying engine: record real (multithreaded) engine runs as
// schedules of the formal R/W Locking system, reconstruct the system type
// from the trace, and validate the run with the mechanized Theorem 34
// checker. This closes the loop between the paper's model and the
// production engine.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "checker/serial_correctness.h"
#include "core/database.h"
#include "serial/data_type.h"
#include "tx/visibility.h"
#include "tx/well_formed.h"
#include "util/random.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

EngineOptions TracedOptions() {
  EngineOptions o;
  o.lock_timeout = std::chrono::milliseconds(300);
  return o;
}

// Full validation pipeline for a traced database.
void ValidateTrace(Database& db) {
  ASSERT_NE(db.trace(), nullptr);
  const Schedule alpha = db.trace()->Snapshot();
  auto st = db.trace()->BuildSystemType();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_TRUE(ValidateAccessSemantics(*st).ok());
  Status wf = CheckConcurrentWellFormed(*st, alpha);
  ASSERT_TRUE(wf.ok()) << wf.ToString();
  Status sc = CheckSeriallyCorrectForAll(*st, alpha, {});
  EXPECT_TRUE(sc.ok()) << sc.ToString() << "\n" << ToString(alpha);
}

TEST(EngineTraceTest, SingleTransactionRoundTrip) {
  Database db(TracedOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("k", 10);
  auto t = db.Begin();
  auto v = t->Get("k");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(t->Put("k", *v + 1).ok());
  ASSERT_TRUE(t->Commit().ok());
  ValidateTrace(db);
}

TEST(EngineTraceTest, NestedWithPartialAbort) {
  Database db(TracedOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("k", 1);
  auto t = db.Begin();
  {
    auto good = t->BeginChild();
    ASSERT_TRUE(good.ok());
    ASSERT_TRUE((*good)->Add("k", 5).ok());
    ASSERT_TRUE((*good)->Commit().ok());
  }
  {
    auto bad = t->BeginChild();
    ASSERT_TRUE(bad.ok());
    ASSERT_TRUE((*bad)->Put("k", 999).ok());
    ASSERT_TRUE((*bad)->Abort().ok());
  }
  auto v = t->Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 6);
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 6);
  ValidateTrace(db);
}

TEST(EngineTraceTest, AbortedTopLevelExcludedFromWitness) {
  Database db(TracedOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("k", 1);
  {
    auto t = db.Begin();
    ASSERT_TRUE(t->Put("k", 100).ok());
    ASSERT_TRUE(t->Abort().ok());
  }
  {
    auto t = db.Begin();
    auto v = t->Get("k");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 1);
    ASSERT_TRUE(t->Commit().ok());
  }
  ValidateTrace(db);
}

TEST(EngineTraceTest, DeletesAndMissingKeys) {
  Database db(TracedOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("k", 3);
  auto t = db.Begin();
  auto miss = t->TryGet("ghost");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());
  ASSERT_TRUE(t->Delete("k").ok());
  auto gone = t->TryGet("k");
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
  auto readd = t->Add("k", 4);
  ASSERT_TRUE(readd.ok());
  EXPECT_EQ(*readd, 4);
  ASSERT_TRUE(t->Commit().ok());
  ValidateTrace(db);
}

TEST(EngineTraceTest, GetForUpdateTraced) {
  Database db(TracedOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("k", 5);
  auto t = db.Begin();
  auto v = t->GetForUpdate("k");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(t->Put("k", v->value_or(0) * 2).ok());
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(db.ReadCommitted("k").value(), 10);
  ValidateTrace(db);
}

TEST(EngineTraceTest, TracingAfterFirstTxnRefused) {
  Database db(TracedOptions());
  { auto t = db.Begin(); (void)t->Commit(); }
  EXPECT_TRUE(db.EnableTracing().IsFailedPrecondition());
}

TEST(EngineTraceTest, MultithreadedContendedRunValidates) {
  Database db(TracedOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  for (int k = 0; k < 3; ++k) db.Preload(StrCat("k", k), 0);
  constexpr int kThreads = 4;
  constexpr int kTxns = 12;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(w * 71 + 9);
      for (int i = 0; i < kTxns; ++i) {
        (void)db.RunTransaction(30, [&](Transaction& t) -> Status {
          for (int o = 0; o < 2; ++o) {
            const std::string key = StrCat("k", rng.Uniform(3));
            if (rng.Bernoulli(0.5)) {
              auto r = t.TryGet(key);
              if (!r.ok()) return r.status();
            } else {
              auto r = t.Add(key, 1);
              if (!r.ok()) return r.status();
            }
          }
          return Status::OK();
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  ValidateTrace(db);
}

TEST(EngineTraceTest, MultithreadedNestedRunValidates) {
  Database db(TracedOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("a", 0);
  db.Preload("b", 0);
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(w * 37 + 5);
      for (int i = 0; i < 8; ++i) {
        (void)db.RunTransaction(30, [&](Transaction& t) -> Status {
          return Database::RunNested(t, 3, [&](Transaction& c) -> Status {
            auto r = c.Add(rng.Bernoulli(0.5) ? "a" : "b", 1);
            if (!r.ok()) return r.status();
            if (rng.Bernoulli(0.3)) {
              return Status::Aborted("induced subtxn failure");
            }
            return Status::OK();
          });
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  ValidateTrace(db);
}

TEST(EngineTraceTest, TraceMatchesCommittedState) {
  // The reconstructed model, replayed serially from the witness, agrees
  // with the engine's committed values (checked via the committed sum).
  Database db(TracedOptions());
  ASSERT_TRUE(db.EnableTracing().ok());
  db.Preload("sum", 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.RunTransaction(10, [&](Transaction& t) {
                    auto r = t.Add("sum", 2);
                    return r.ok() ? Status::OK() : r.status();
                  }).ok());
  }
  EXPECT_EQ(db.ReadCommitted("sum").value(), 10);
  ValidateTrace(db);
  // The trace's final write REQUEST_COMMIT value is the committed value.
  const Schedule alpha = db.trace()->Snapshot();
  Value last_write = -1;
  for (const Event& e : alpha) {
    if (e.kind == EventKind::kRequestCommit && e.txn.Depth() == 2) {
      last_write = e.value;
    }
  }
  EXPECT_EQ(last_write, 10);
}

// The "cell" operations are defined once (ApplyCellOp): every engine
// path must return, leave behind and commit exactly what the model's
// CellType::Apply computes, for every op on every start state —
// absent, zero, negative and INT64_MAX (where Add wraps).
TEST(EngineTraceTest, CellOpsMatchModelOnEveryPath) {
  struct Path {
    const char* name;
    CcProtocol protocol;
    bool traced;
  };
  const Path paths[] = {{"detect", CcProtocol::kDetect, false},
                        {"occ", CcProtocol::kOcc, false},
                        {"traced-occ", CcProtocol::kOcc, true}};
  const OpDescriptor cell_ops[] = {{ops::kRead, 0},
                                   {ops::kWrite, 42},
                                   {ops::kCellAdd, 2},
                                   {ops::kCellDelete, 0}};
  const Value starts[] = {kAbsentValue, 0, -5, INT64_MAX};
  const DataType* cell = FindDataType("cell");
  ASSERT_NE(cell, nullptr);
  for (const Path& path : paths) {
    for (const OpDescriptor& op : cell_ops) {
      for (const Value start : starts) {
        SCOPED_TRACE(StrCat(path.name, " op ", op.code, " start ", start));
        const auto [want_state, want_ret] = cell->Apply(start, op);
        EngineOptions o = TracedOptions();
        o.cc_protocol = path.protocol;
        Database db(o);
        if (path.traced) {
          ASSERT_TRUE(db.EnableTracing().ok());
        }
        if (start != kAbsentValue) db.Preload("k", start);
        auto t = db.Begin();
        Status s;
        std::optional<Value> ret;  // where the API returns the op's value
        if (op.code == ops::kRead) {
          auto r = t->TryGet("k");
          s = r.status();
          if (r.ok()) ret = r->value_or(kAbsentValue);
        } else if (op.code == ops::kCellAdd) {
          auto r = t->Add("k", op.arg);
          s = r.status();
          if (r.ok()) ret = *r;
        } else if (op.code == ops::kWrite) {
          s = t->Put("k", op.arg);
        } else {
          s = t->Delete("k");
        }
        ASSERT_TRUE(s.ok()) << s.ToString();
        if (ret.has_value()) {
          EXPECT_EQ(*ret, want_ret);
        }
        auto seen = t->TryGet("k");
        ASSERT_TRUE(seen.ok());
        EXPECT_EQ(seen->value_or(kAbsentValue), want_state);
        ASSERT_TRUE(t->Commit().ok());
        EXPECT_EQ(db.ReadCommitted("k").value_or(kAbsentValue), want_state);
        if (path.traced) ValidateTrace(db);
      }
    }
  }
}

}  // namespace
}  // namespace nestedtx
