// E3 — throughput vs. read ratio: the case for separate read locks.
//
// Transactions dwell 200us per access while holding the lock, modelling
// the I/O / RPC latency of the paper's Argus setting (and making
// throughput measure concurrency *admission* on this single-core host —
// sleeping lock-holders overlap; see DESIGN.md substitution table).
//
// Expected shape: at 0% reads Moss == exclusive (it degenerates to it);
// the gap opens as the read ratio grows, because Moss's read locks admit
// concurrent readers that exclusive locking serializes; serial execution
// is the floor throughout.
#include <cstdio>

#include "engine_harness.h"

using namespace nestedtx;
using namespace nestedtx::bench;

int main(int argc, char** argv) {
  const bool json = HasFlag(argc, argv, "--json");
  JsonResultFile out("bench_engine_readratio");
  std::printf("E3: throughput (committed txn/s) vs read ratio "
              "(16 threads, 8 keys, 4 accesses/txn, 200us dwell/access)\n");
  std::printf("%8s | %12s %12s %12s %12s\n", "read%", "moss-rw",
              "exclusive", "flat-2pl", "serial");
  for (int read_pct : {0, 25, 50, 75, 90, 100}) {
    std::printf("%8d |", read_pct);
    for (Baseline mode : {Baseline::kMossRW, Baseline::kExclusive,
                          Baseline::kFlat2PL, Baseline::kSerial}) {
      WorkloadConfig cfg;
      cfg.mode = mode;
      cfg.threads = 16;
      cfg.num_keys = 8;
      cfg.read_ratio = read_pct / 100.0;
      cfg.accesses_per_txn = 4;
      cfg.dwell_us_per_access = 200;
      cfg.duration_seconds = 0.6;
      cfg.lock_timeout = std::chrono::milliseconds(500);
      WorkloadResult r = RunWorkload(cfg);
      if (json) {
        AddWorkloadEntry(
            out, StrCat("read", read_pct, "_", BaselineName(mode)), cfg, r);
      }
      std::printf(" %12.0f", r.TxnPerSec());
    }
    std::printf("\n");
  }
  if (json) {
    // CPU-bound hot-path configs (no dwell): the numbers the hot-path
    // overhaul is measured against across PRs. read95_hotset is
    // read-dominant and low-contention, with enough accesses per txn over
    // a small hot set that re-reads under held locks dominate — the
    // held-lock fast lane's home turf.
    {
      WorkloadConfig cfg;
      cfg.mode = Baseline::kMossRW;
      cfg.threads = 2;
      cfg.num_keys = 8;
      cfg.read_ratio = 0.95;
      cfg.accesses_per_txn = 12;
      cfg.dwell_us_per_access = 0;
      cfg.duration_seconds = 2.0;
      WorkloadResult r = RunWorkload(cfg);
      AddWorkloadEntry(out, "read95_hotset", cfg, r);
      std::printf("\nread95_hotset (CPU-bound): txn/s=%.0f ops/s=%.0f\n",
                  r.TxnPerSec(), r.OpsPerSec());
    }
    {
      WorkloadConfig cfg;
      cfg.mode = Baseline::kMossRW;
      cfg.threads = 8;
      cfg.num_keys = 8;
      cfg.read_ratio = 0.9;
      cfg.accesses_per_txn = 4;
      cfg.dwell_us_per_access = 0;
      cfg.duration_seconds = 2.0;
      WorkloadResult r = RunWorkload(cfg);
      AddWorkloadEntry(out, "read90_nodwell", cfg, r);
      std::printf("read90_nodwell (CPU-bound): txn/s=%.0f ops/s=%.0f\n",
                  r.TxnPerSec(), r.OpsPerSec());
    }
  }
  std::printf("\nconcurrency-admission detail at read%%=90:\n");
  for (Baseline mode : {Baseline::kMossRW, Baseline::kExclusive}) {
    WorkloadConfig cfg;
    cfg.mode = mode;
    cfg.threads = 16;
    cfg.num_keys = 8;
    cfg.read_ratio = 0.9;
    cfg.dwell_us_per_access = 200;
    cfg.duration_seconds = 0.6;
    cfg.lock_timeout = std::chrono::milliseconds(500);
    WorkloadResult r = RunWorkload(cfg);
    std::printf("  %-10s txn/s=%-8.0f waits=%-6llu deadlocks=%-5llu "
                "goodput=%.1f%%\n",
                BaselineName(mode), r.TxnPerSec(),
                (unsigned long long)r.lock_waits,
                (unsigned long long)r.deadlocks, 100 * r.Goodput());
  }
  if (json && !out.Write()) return 1;
  return 0;
}
