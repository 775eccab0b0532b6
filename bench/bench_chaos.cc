// E12 — goodput and tail latency under injected failure storms: the
// fault-tolerant execution layer (RetryExecutor + orphan cancellation +
// admission gate) driven through time-boxed multithreaded workloads
// while every FailPoints site is armed at a swept rate.
//
// Three sweeps:
//   - fault rate: goodput / throughput / p99 unit latency as the
//     injection rate rises from off to 1-in-4 — the headline "graceful
//     degradation" curve;
//   - retry budget: the same storm with the per-tree retry pool swept
//     from unlimited down to starvation, trading give-ups for bounded
//     worst-case work;
//   - admission on/off: an oversubscribed thread count with and without
//     the gate — sheds convert queue collapse into accounted rejections.
// And one zero-fault table: what the retry loop itself costs per
// transaction when nothing fails, through Database::RunTransaction and
// through one RetryExecutor shared by every thread.
//
// A "unit" is one logical top-level piece of work: all its retries count
// toward its single latency sample, so p99 measures what a caller
// actually waits. Run with --json to write BENCH_bench_chaos.json.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/database.h"
#include "core/failpoints.h"
#include "core/retry.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/strings.h"

using namespace nestedtx;

namespace {

struct ChaosCfg {
  int threads = 8;
  int num_keys = 8;
  int writes_per_txn = 3;
  uint32_t fault_one_in = 0;  // 0 = failpoints unarmed
  int tree_budget = 0;        // 0 = unlimited
  uint32_t admit_inflight = 0;
  uint32_t admit_queued = 0;
  double duration_seconds = 0.4;
};

struct ChaosResult {
  uint64_t committed = 0;
  uint64_t gave_up = 0;
  uint64_t shed = 0;
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t retries_attempted = 0;
  uint64_t retries_exhausted = 0;
  uint64_t admission_rejected = 0;
  uint64_t waits_cancelled = 0;
  uint64_t injections = 0;

  double TxnPerSec() const { return seconds > 0 ? committed / seconds : 0; }
  /// Committed units over all attempts (first runs + retries): the
  /// fraction of execution that was not wasted.
  double Goodput() const {
    const uint64_t attempts = committed + gave_up + retries_attempted;
    return attempts > 0 ? double(committed) / double(attempts) : 0;
  }
};

// Arm every site from the single swept rate (operator overrides via
// NESTEDTX_FAILPOINTS are honored in the chaos *test*; the bench needs
// the rate axis under its own control, so it always sets its own).
void ArmSites(uint32_t one_in) {
  FailPoints::DisableAll();
  if (one_in == 0) return;
  FailPoints::Config grant;
  grant.deadlock_one_in = one_in;
  grant.timeout_one_in = one_in;
  grant.delay_one_in = one_in;
  grant.delay_us = 20;
  FailPoints::Enable(FailPoints::kLockGrant, grant);
  FailPoints::Config wakeup;
  wakeup.spurious_wakeup_one_in = one_in > 1 ? one_in / 2 : 1;
  wakeup.deadlock_one_in = one_in;
  FailPoints::Enable(FailPoints::kWaitWakeup, wakeup);
  FailPoints::Config slow;
  slow.delay_one_in = one_in;
  slow.delay_us = 20;
  FailPoints::Enable(FailPoints::kCommitInherit, slow);
  FailPoints::Enable(FailPoints::kAbortPurge, slow);
  FailPoints::Config begin;
  begin.deadlock_one_in = one_in;
  FailPoints::Enable(FailPoints::kBeginTxn, begin);
  FailPoints::Config backoff;
  backoff.timeout_one_in = one_in;
  FailPoints::Enable(FailPoints::kRetryBackoff, backoff);
  FailPoints::Seed(0xE12E12ULL);
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PercentileMs(std::vector<double>& latencies_ms, double q) {
  if (latencies_ms.empty()) return 0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const size_t idx = std::min(
      latencies_ms.size() - 1,
      static_cast<size_t>(q * static_cast<double>(latencies_ms.size())));
  return latencies_ms[idx];
}

ChaosResult RunChaosCell(const ChaosCfg& raw_cfg) {
  ChaosCfg cfg = raw_cfg;
  if (bench::Smoke()) {
    cfg.duration_seconds = std::min(cfg.duration_seconds, 0.02);
  }
  ArmSites(cfg.fault_one_in);

  EngineOptions options;
  options.victim_policy = VictimPolicy::kYoungestSubtree;
  options.lock_timeout = std::chrono::milliseconds(2000);
  options.admission_max_inflight = cfg.admit_inflight;
  options.admission_max_queued = cfg.admit_queued;
  Database db(options);
  std::vector<std::string> keys;
  for (int k = 0; k < cfg.num_keys; ++k) {
    keys.push_back(StrCat("k", k));
    db.Preload(keys.back(), 0);
  }

  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.max_attempts_top = 500;
  policy.tree_budget = cfg.tree_budget;
  policy.backoff_base_us = 20;
  policy.backoff_cap_us = 2000;
  policy.seed = 0xE12ULL;
  RetryExecutor ex(&db, policy);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0}, gave_up{0}, shed{0};
  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(cfg.threads));
  std::vector<std::thread> workers;
  Stopwatch clock;
  for (int w = 0; w < cfg.threads; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0xE12u + 7919u * static_cast<uint64_t>(w));
      std::vector<size_t> order(keys.size());
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t j = 0; j < order.size(); ++j) order[j] = j;
        for (size_t j = order.size(); j > 1; --j) {
          std::swap(order[j - 1], order[rng.Uniform(j)]);
        }
        const auto start = std::chrono::steady_clock::now();
        Status s = ex.Run([&](Transaction& tx) -> Status {
          for (int i = 0; i < cfg.writes_per_txn; ++i) {
            const std::string& key = keys[order[static_cast<size_t>(i)]];
            RETURN_IF_ERROR(
                ex.RunChild(tx, [&](Transaction& child) -> Status {
                  return child.Add(key, 1).status();
                }));
          }
          return Status::OK();
        });
        latencies[static_cast<size_t>(w)].push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count());
        if (s.ok()) {
          committed.fetch_add(1);
        } else if (s.IsOverloaded()) {
          shed.fetch_add(1);
        } else {
          gave_up.fetch_add(1);
        }
      }
    });
  }
  while (clock.ElapsedSeconds() < cfg.duration_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : workers) t.join();

  ChaosResult r;
  r.committed = committed.load();
  r.gave_up = gave_up.load();
  r.shed = shed.load();
  r.seconds = clock.ElapsedSeconds();
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  r.p50_ms = PercentileMs(all, 0.50);
  r.p99_ms = PercentileMs(all, 0.99);
  const StatsSnapshot snap = db.stats().Snapshot();
  r.retries_attempted = snap.retries_attempted;
  r.retries_exhausted = snap.retries_exhausted;
  r.admission_rejected = snap.admission_rejected;
  r.waits_cancelled = snap.waits_cancelled;
  r.injections = FailPoints::InjectionCount();
  FailPoints::DisableAll();
  return r;
}

void Report(bench::JsonResultFile& out, const std::string& name,
            const ChaosCfg& cfg, const ChaosResult& r) {
  std::printf(
      "%-24s faults=1/%-3u budget=%-4d admit=%u/%u | "
      "%8.0f txn/s goodput=%.3f p50=%6.2fms p99=%7.2fms "
      "gave_up=%llu shed=%llu inj=%llu\n",
      name.c_str(), cfg.fault_one_in, cfg.tree_budget, cfg.admit_inflight,
      cfg.admit_queued, r.TxnPerSec(), r.Goodput(), r.p50_ms, r.p99_ms,
      static_cast<unsigned long long>(r.gave_up),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.injections));
  out.Add(name)
      .Int("fault_one_in", cfg.fault_one_in)
      .Int("tree_budget", static_cast<unsigned long long>(
                              cfg.tree_budget < 0 ? 0 : cfg.tree_budget))
      .Int("admit_inflight", cfg.admit_inflight)
      .Int("admit_queued", cfg.admit_queued)
      .Int("threads", static_cast<unsigned long long>(cfg.threads))
      .Num("duration_seconds", r.seconds)
      .Num("txn_per_sec", r.TxnPerSec())
      .Num("goodput", r.Goodput())
      .Num("p50_ms", r.p50_ms)
      .Num("p99_ms", r.p99_ms)
      .Int("committed", r.committed)
      .Int("gave_up", r.gave_up)
      .Int("shed", r.shed)
      .Int("retries_attempted", r.retries_attempted)
      .Int("retries_exhausted", r.retries_exhausted)
      .Int("admission_rejected", r.admission_rejected)
      .Int("waits_cancelled", r.waits_cancelled)
      .Int("injections", r.injections);
}

// Zero-fault loop cost: each thread commits a fixed number of one-key
// Add transactions on a key of its own (no conflicts, so no retries),
// either through Database::RunTransaction or through one RetryExecutor
// all threads share. Reported as wall microseconds per transaction per
// thread: flat in the thread count when the loop shares nothing. The
// workers' summed thread CPU time per transaction rides along as the
// low-noise companion on a shared host. An untimed warm-up of a tenth
// as many transactions per thread runs first (allocator, lock table and
// span stripes settle before the clock).
bool RunLoopCell(bench::JsonResultFile& out, bool shared_executor,
                 int threads) {
  const int per_thread = bench::Smoke() ? 200 : 200000;
  const int warmup = per_thread / 10;
  Database db;
  RetryExecutor ex(&db);
  std::vector<std::string> keys;
  for (int t = 0; t < threads; ++t) {
    keys.push_back(StrCat("k", t));
    db.Preload(keys.back(), 0);
  }
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> cpu_ns{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::string& key = keys[static_cast<size_t>(t)];
      const Database::TxnBody body = [&key](Transaction& tx) {
        return tx.Add(key, 1).status();
      };
      auto run = [&](int n) {
        for (int i = 0; i < n; ++i) {
          const Status s =
              shared_executor ? ex.Run(body) : db.RunTransaction(8, body);
          if (!s.ok()) failed.fetch_add(1);
        }
      };
      run(warmup);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const uint64_t cpu_start = ThreadCpuNs();
      run(per_thread);
      cpu_ns.fetch_add(ThreadCpuNs() - cpu_start);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  Stopwatch clock;
  go.store(true);
  for (auto& w : workers) w.join();
  const double seconds = clock.ElapsedSeconds();
  // Self-check: the store holds exactly the committed Adds.
  int64_t sum = 0;
  for (const std::string& key : keys) sum += db.ReadCommitted(key).value_or(0);
  const bool exact = sum == int64_t{threads} * (warmup + per_thread) -
                                static_cast<int64_t>(failed.load());
  const double us_per_txn = seconds * 1e6 / per_thread;
  const double cpu_us_per_txn =
      static_cast<double>(cpu_ns.load()) / 1e3 / (threads * per_thread);
  const char* loop = shared_executor ? "shared_executor" : "run_transaction";
  std::printf(
      "%-16s threads=%d | %6.3f us/txn/thread %6.3f cpu_us/txn %9.0f txn/s "
      "failed=%llu\n",
      loop, threads, us_per_txn, cpu_us_per_txn, threads * per_thread / seconds,
      static_cast<unsigned long long>(failed.load()));
  out.Add(StrCat("loop_", loop, "_t", threads))
      .Int("fault_one_in", 0)
      .Int("threads", static_cast<unsigned long long>(threads))
      .Int("txns_per_thread", static_cast<unsigned long long>(per_thread))
      .Num("duration_seconds", seconds)
      .Num("us_per_txn_per_thread", us_per_txn)
      .Num("cpu_us_per_txn", cpu_us_per_txn)
      .Num("txn_per_sec", threads * per_thread / seconds)
      .Int("failed", failed.load())
      .Int("effects_exact", exact ? 1 : 0);
  return exact;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonResultFile out("bench_chaos");

  std::printf("-- E12a: goodput vs fault rate --\n");
  for (uint32_t one_in : {0u, 32u, 16u, 8u, 4u}) {
    ChaosCfg cfg;
    cfg.fault_one_in = one_in;
    Report(out, StrCat("fault_1_in_", one_in), cfg, RunChaosCell(cfg));
  }

  std::printf("-- E12b: retry-budget sweep at 1-in-8 faults --\n");
  for (int budget : {0, 64, 16, 4}) {
    ChaosCfg cfg;
    cfg.fault_one_in = 8;
    cfg.tree_budget = budget;
    Report(out, StrCat("budget_", budget), cfg, RunChaosCell(cfg));
  }

  std::printf("-- E12c: admission gate on/off, oversubscribed --\n");
  for (int admit : {0, 1}) {
    ChaosCfg cfg;
    cfg.fault_one_in = 8;
    cfg.threads = 16;
    if (admit != 0) {
      cfg.admit_inflight = 4;
      cfg.admit_queued = 4;
    }
    Report(out, admit != 0 ? "admission_on" : "admission_off", cfg,
           RunChaosCell(cfg));
  }

  std::printf("-- E12d: retry-loop cost with no faults (one-key Add) --\n");
  std::vector<int> thread_counts = {1, 2};
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (nproc > 2) thread_counts.push_back(nproc);
  bool exact = true;
  for (int threads : thread_counts) {
    for (bool shared_executor : {false, true}) {
      exact &= RunLoopCell(out, shared_executor, threads);
    }
  }
  if (!exact) {
    std::fprintf(stderr, "E12d: committed Adds missing from the store\n");
    return 1;
  }

  if (bench::HasFlag(argc, argv, "--json") && !out.Write()) {
    std::fprintf(stderr, "failed to write json results\n");
    return 1;
  }
  return 0;
}
