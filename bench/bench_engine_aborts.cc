// E5 — partial abort vs. whole-transaction abort.
//
// Subtransactions abort voluntarily with probability p; under Moss
// nesting, only the failing subtree retries (the parent's other work
// survives); under flat 2PL a subtransaction abort dooms the whole
// transaction (no savepoints), so everything restarts.
//
// Expected shape: Moss goodput (commits/attempts) degrades slowly with p;
// flat 2PL collapses much faster, and its throughput falls off with it.
#include <cstdio>

#include "engine_harness.h"

using namespace nestedtx;
using namespace nestedtx::bench;

int main(int argc, char** argv) {
  const bool json = HasFlag(argc, argv, "--json");
  JsonResultFile out("bench_engine_aborts");
  std::printf("E5: goodput & throughput vs subtransaction abort "
              "probability\n    (8 threads, 32 keys, depth 3, 9 accesses, "
              "100us dwell)\n");
  std::printf("%8s | %22s | %22s\n", "", "moss-rw (partial abort)",
              "flat-2pl (full restart)");
  std::printf("%8s | %10s %11s | %10s %11s\n", "abort%", "txn/s",
              "goodput", "txn/s", "goodput");
  for (int abort_pct : {0, 5, 10, 20, 35, 50}) {
    std::printf("%8d |", abort_pct);
    for (Baseline mode : {Baseline::kMossRW, Baseline::kFlat2PL}) {
      WorkloadConfig cfg;
      cfg.mode = mode;
      cfg.threads = 8;
      cfg.num_keys = 32;
      cfg.read_ratio = 0.5;
      cfg.accesses_per_txn = 9;
      cfg.nesting_depth = 3;
      cfg.subtxn_abort_prob = abort_pct / 100.0;
      cfg.dwell_us_per_access = 100;  // makes redone work cost real time
      cfg.duration_seconds = 0.5;
      WorkloadResult r = RunWorkload(cfg);
      if (json) {
        AddWorkloadEntry(
            out, StrCat("abort", abort_pct, "_", BaselineName(mode)), cfg, r);
      }
      std::printf(" %10.0f %10.1f%% %s", r.TxnPerSec(), 100 * r.Goodput(),
                  mode == Baseline::kMossRW ? "|" : "");
    }
    std::printf("\n");
  }
  if (json && !out.Write()) return 1;
  return 0;
}
