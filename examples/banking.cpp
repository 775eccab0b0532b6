// Banking under contention: many worker threads transfer money between
// accounts using nested transactions; deadlock victims retry only the
// failing subtree. Demonstrates invariant preservation (total balance is
// conserved) and prints engine statistics. Runs the engine's one
// algorithm, Moss nested read/write locking; the paper's baselines live
// in the bench harness (bench/engine_harness.h).
//
// Usage: ./build/examples/banking [threads] [transfers-per-thread]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/database.h"
#include "util/random.h"
#include "util/strings.h"

using namespace nestedtx;

namespace {

constexpr int kAccounts = 16;
constexpr int64_t kInitialBalance = 1000;

int64_t TotalBalance(Database& db) {
  int64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) {
    total += db.ReadCommitted(StrCat("acct", i)).value_or(0);
  }
  return total;
}

void RunScenario(int threads, int transfers_per_thread) {
  EngineOptions options;
  options.lock_timeout = std::chrono::milliseconds(500);
  Database db(options);
  for (int i = 0; i < kAccounts; ++i) {
    db.Preload(StrCat("acct", i), kInitialBalance);
  }

  std::atomic<int> committed{0}, failed{0};
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(w * 7919 + 11);
      for (int i = 0; i < transfers_per_thread; ++i) {
        const std::string from = StrCat("acct", rng.Uniform(kAccounts));
        const std::string to = StrCat("acct", rng.Uniform(kAccounts));
        const int64_t amount = rng.UniformRange(1, 25);
        if (from == to) continue;
        // Each leg is a subtransaction: a deadlock on the second leg
        // retries only that leg, keeping the withdrawal's work.
        Status s = db.RunTransaction(20, [&](Transaction& t) -> Status {
          Status leg1 = Database::RunNested(t, 5, [&](Transaction& c) {
            auto bal = c.Get(from);
            if (!bal.ok()) return bal.status();
            if (*bal < amount) return Status::OK();  // insufficient: no-op
            auto r = c.Add(from, -amount);
            return r.ok() ? Status::OK() : r.status();
          });
          if (!leg1.ok()) return leg1;
          return Database::RunNested(t, 5, [&](Transaction& c) {
            auto r = c.Add(to, amount);
            return r.ok() ? Status::OK() : r.status();
          });
        });
        (s.ok() ? committed : failed).fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const int64_t total = TotalBalance(db);
  std::printf(
      "threads=%d transfers=%d committed=%d failed=%d "
      "throughput=%.0f txn/s total=%lld (%s)\n",
      threads, threads * transfers_per_thread,
      committed.load(), failed.load(), committed.load() / secs,
      static_cast<long long>(total),
      total == kAccounts * kInitialBalance ? "conserved ✓" : "VIOLATED ✗");
  std::printf("%s\n", db.stats().ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 8;
  const int per_thread = argc > 2 ? std::atoi(argv[2]) : 500;
  std::printf("banking: %d accounts, initial total %lld\n\n", kAccounts,
              static_cast<long long>(kAccounts * kInitialBalance));
  RunScenario(threads, per_thread);
  return 0;
}
