// E14 — core-scaling sweep for the lock-word fast path: committed
// throughput vs. worker-thread count, lock word on vs. off, for two
// CPU-bound cells (no dwell):
//
//   read_mostly — 64 keys, 95% reads, 12 accesses/txn: almost every
//     access is a conflict-free read grant or a repeat read under a
//     held lock, i.e. the lanes the lock word serves without touching a
//     key mutex. Target: near-linear scaling of ops/s with cores (on a
//     host with >1 core), and a visible gap over the lock-word-off
//     baseline at every thread count.
//
//   hot_set — 4 keys, 50% reads: writer conflicts are common, so keys
//     inflate and stay inflated. This cell bounds the regression the
//     fast-word machinery could cost contended workloads (the word is
//     one early-exit branch once inflated).
//
// The sweep runs 1..hardware_concurrency threads (always at least 2 so
// a single-core host still exercises the multithreaded path). Threads
// are pinned round-robin on Linux (--no-pin disables). Run with --json
// to write per-cell rows to BENCH_bench_core_scaling.json.
//
// Single-core hosts cannot show parallel speedup — ops/s stays flat or
// dips slightly with more threads; the lock-word on/off gap is the
// meaningful signal there (see EXPERIMENTS.md E14).
#include <cstdio>
#include <thread>

#include "engine_harness.h"

using namespace nestedtx;
using namespace nestedtx::bench;

namespace {

WorkloadConfig CellConfig(bool read_mostly, int threads, bool lock_word,
                          bool pin) {
  WorkloadConfig cfg;
  cfg.mode = Baseline::kMossRW;
  cfg.threads = threads;
  cfg.num_keys = read_mostly ? 64 : 4;
  cfg.read_ratio = read_mostly ? 0.95 : 0.5;
  cfg.accesses_per_txn = read_mostly ? 12 : 4;
  cfg.dwell_us_per_access = 0;
  cfg.duration_seconds = 0.5;
  cfg.lock_word_enabled = lock_word;
  cfg.pin_threads = pin;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = HasFlag(argc, argv, "--json");
  const bool pin = !HasFlag(argc, argv, "--no-pin");
  JsonResultFile out("bench_core_scaling");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> sweep;
  for (unsigned t = 1; t <= std::max(hw, 2u); ++t) {
    sweep.push_back(static_cast<int>(t));
  }
  if (Smoke() && sweep.size() > 2) sweep.resize(2);

  std::printf("E14: core scaling (hardware_concurrency=%u, pin=%d)\n", hw,
              pin ? 1 : 0);
  for (const bool read_mostly : {true, false}) {
    const char* cell = read_mostly ? "read_mostly" : "hot_set";
    std::printf("\n%s: %s\n", cell,
                read_mostly ? "64 keys, 95% reads, 12 accesses/txn"
                            : "4 keys, 50% reads, 4 accesses/txn");
    std::printf("%8s | %14s %14s %8s\n", "threads", "word-on ops/s",
                "word-off ops/s", "gain");
    for (int threads : sweep) {
      double ops[2] = {0, 0};
      for (const bool lock_word : {true, false}) {
        WorkloadConfig cfg = CellConfig(read_mostly, threads, lock_word, pin);
        WorkloadResult r = RunWorkload(cfg);
        ops[lock_word ? 0 : 1] = r.OpsPerSec();
        if (json) {
          AddWorkloadEntry(out,
                           StrCat(cell, "_t", threads, "_word",
                                  lock_word ? "on" : "off"),
                           cfg, r);
        }
      }
      std::printf("%8d | %14.0f %14.0f %7.2fx\n", threads, ops[0], ops[1],
                  ops[1] > 0 ? ops[0] / ops[1] : 0.0);
    }
  }
  if (json && !out.Write()) return 1;
  return 0;
}
