// Independent serializability oracle for the engine: run a contended
// multithreaded workload, record the access trace of every transaction
// that commits, and check with the classical precedence graph (which
// shares no code with the engine's locking) that the committed top-level
// transactions are conflict-serializable.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "checker/precedence_graph.h"
#include "core/database.h"
#include "util/random.h"
#include "util/strings.h"

namespace nestedtx {
namespace {

struct TraceCollector {
  std::mutex m;
  std::vector<AccessRecord> records;
  std::atomic<uint64_t> seq{0};

  // Per-attempt buffer: records become real only if the attempt commits.
  void Flush(std::vector<AccessRecord>& local) {
    std::lock_guard<std::mutex> lock(m);
    records.insert(records.end(), local.begin(), local.end());
    local.clear();
  }
};

void RunSerializabilityOracle(double read_ratio, int num_keys) {
  EngineOptions opts;
  opts.lock_timeout = std::chrono::milliseconds(500);
  Database db(opts);
  for (int k = 0; k < num_keys; ++k) db.Preload(StrCat("k", k), 0);

  TraceCollector trace;
  std::atomic<uint64_t> txn_ids{1};
  constexpr int kThreads = 6;
  constexpr int kTxnsPerThread = 60;

  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(w * 131 + 7);
      for (int j = 0; j < kTxnsPerThread; ++j) {
        std::vector<AccessRecord> local;
        const uint64_t my_id = txn_ids.fetch_add(1);
        Status s = db.RunTransaction(40, [&](Transaction& t) -> Status {
          local.clear();  // retries restart the trace
          const int ops = 2 + rng.Uniform(3);
          for (int o = 0; o < ops; ++o) {
            const uint64_t key = rng.Uniform(num_keys);
            const std::string key_name = StrCat("k", key);
            if (rng.Bernoulli(read_ratio)) {
              auto r = t.Get(key_name);
              if (!r.ok()) return r.status();
              local.push_back(
                  {my_id, key, false, trace.seq.fetch_add(1)});
            } else {
              auto r = t.Add(key_name, 1);
              if (!r.ok()) return r.status();
              local.push_back(
                  {my_id, key, true, trace.seq.fetch_add(1)});
            }
          }
          return Status::OK();
        });
        if (s.ok()) trace.Flush(local);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Oracle 1: the committed transactions' conflicts form no cycle.
  auto order = ConflictSerialOrder(trace.records);
  ASSERT_TRUE(order.ok()) << order.status().ToString();

  // Oracle 2: the committed store equals the sum of committed writes
  // (each write is a +1).
  std::vector<int64_t> expected(num_keys, 0);
  for (const auto& r : trace.records) {
    if (r.is_write) ++expected[r.key];
  }
  for (int k = 0; k < num_keys; ++k) {
    auto v = db.ReadCommitted(StrCat("k", k));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, expected[k]) << "key k" << k;
  }
}

TEST(EngineSerializabilityTest, MossMixedWorkload) {
  RunSerializabilityOracle(0.5, 4);
}

TEST(EngineSerializabilityTest, MossReadHeavyHotspot) {
  RunSerializabilityOracle(0.9, 2);
}

TEST(EngineSerializabilityTest, MossWriteOnly) {
  RunSerializabilityOracle(0.0, 3);
}

TEST(PrecedenceGraphTest, EmptyTraceIsSerial) {
  auto order = ConflictSerialOrder({});
  ASSERT_TRUE(order.ok());
  EXPECT_TRUE(order->empty());
}

TEST(PrecedenceGraphTest, DetectsClassicCycle) {
  // T1 reads x before T2 writes x; T2 reads y before T1 writes y.
  std::vector<AccessRecord> recs = {
      {1, /*key=*/0, /*is_write=*/false, /*seq=*/1},
      {2, 1, false, 2},
      {2, 0, true, 3},
      {1, 1, true, 4},
  };
  auto order = ConflictSerialOrder(recs);
  EXPECT_FALSE(order.ok());
  EXPECT_TRUE(order.status().IsAborted());
}

TEST(PrecedenceGraphTest, ReadsDoNotConflict) {
  std::vector<AccessRecord> recs = {
      {1, 0, false, 1},
      {2, 0, false, 2},
      {1, 0, false, 3},  // interleaved reads, no edges
  };
  auto order = ConflictSerialOrder(recs);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->size(), 2u);
}

TEST(PrecedenceGraphTest, ChainOrdersTopologically) {
  std::vector<AccessRecord> recs = {
      {3, 0, true, 1},
      {1, 0, true, 2},
      {2, 0, true, 3},
  };
  auto order = ConflictSerialOrder(recs);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(*order, (std::vector<uint64_t>{3, 1, 2}));
}

}  // namespace
}  // namespace nestedtx
