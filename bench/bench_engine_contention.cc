// E6 — contention behaviour: throughput vs. key-space size, skew, and
// thread count, across the baselines.
//
// Transactions dwell 200us per access while holding locks (the Argus
// I/O model; see DESIGN.md).
//
// Expected shape: with one hot write-shared key every scheme converges
// toward serial throughput; as keys spread out (or reads dominate) the
// locking schemes scale away from serial; Moss tracks or beats exclusive
// throughout (its grants are a superset); exclusive stays near the
// serial floor at 75% reads regardless of spread, because reads conflict
// with reads; thread scaling lifts Moss but not exclusive.
#include <cstdio>

#include "engine_harness.h"

using namespace nestedtx;
using namespace nestedtx::bench;

namespace {

WorkloadConfig BaseConfig() {
  WorkloadConfig cfg;
  cfg.threads = 8;
  cfg.read_ratio = 0.75;
  cfg.dwell_us_per_access = 200;  // Argus-style I/O dwell; see DESIGN.md
  cfg.duration_seconds = 0.5;
  cfg.lock_timeout = std::chrono::milliseconds(500);
  return cfg;
}

void KeySweep(JsonResultFile* out) {
  std::printf("E6a: txn/s vs #keys (8 threads, 75%% reads, uniform, "
              "200us dwell)\n");
  std::printf("%8s | %12s %12s %12s %12s\n", "keys", "moss-rw",
              "exclusive", "flat-2pl", "serial");
  for (int keys : {1, 2, 4, 16, 64, 256}) {
    std::printf("%8d |", keys);
    for (Baseline mode : {Baseline::kMossRW, Baseline::kExclusive,
                          Baseline::kFlat2PL, Baseline::kSerial}) {
      WorkloadConfig cfg = BaseConfig();
      cfg.mode = mode;
      cfg.num_keys = keys;
      WorkloadResult r = RunWorkload(cfg);
      if (out != nullptr) {
        AddWorkloadEntry(*out, StrCat("keys", keys, "_", BaselineName(mode)),
                         cfg, r);
      }
      std::printf(" %12.0f", r.TxnPerSec());
    }
    std::printf("\n");
  }
}

void SkewSweep(JsonResultFile* out) {
  std::printf("\nE6b: txn/s vs zipfian skew (8 threads, 64 keys, "
              "75%% reads, 200us dwell)\n");
  std::printf("%8s | %12s %12s\n", "theta", "moss-rw", "exclusive");
  for (double theta : {0.0, 0.5, 0.9, 0.99, 1.2}) {
    std::printf("%8.2f |", theta);
    for (Baseline mode : {Baseline::kMossRW, Baseline::kExclusive}) {
      WorkloadConfig cfg = BaseConfig();
      cfg.mode = mode;
      cfg.num_keys = 64;
      cfg.zipf_theta = theta;
      WorkloadResult r = RunWorkload(cfg);
      if (out != nullptr) {
        AddWorkloadEntry(*out,
                         StrCat("theta", int(theta * 100), "_",
                                BaselineName(mode)),
                         cfg, r);
      }
      std::printf(" %12.0f", r.TxnPerSec());
    }
    std::printf("\n");
  }
}

void ThreadSweep(JsonResultFile* out) {
  std::printf("\nE6c: txn/s vs threads (16 keys, 75%% reads, "
              "200us dwell)\n");
  std::printf("%8s | %12s %12s %12s\n", "threads", "moss-rw", "exclusive",
              "serial");
  for (int threads : {1, 2, 4, 8, 16}) {
    std::printf("%8d |", threads);
    for (Baseline mode :
         {Baseline::kMossRW, Baseline::kExclusive, Baseline::kSerial}) {
      WorkloadConfig cfg = BaseConfig();
      cfg.mode = mode;
      cfg.threads = threads;
      cfg.num_keys = 16;
      WorkloadResult r = RunWorkload(cfg);
      if (out != nullptr) {
        AddWorkloadEntry(*out,
                         StrCat("threads", threads, "_", BaselineName(mode)),
                         cfg, r);
      }
      std::printf(" %12.0f", r.TxnPerSec());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = HasFlag(argc, argv, "--json");
  JsonResultFile out("bench_engine_contention");
  JsonResultFile* p = json ? &out : nullptr;
  KeySweep(p);
  SkewSweep(p);
  ThreadSweep(p);
  if (json && !out.Write()) return 1;
  return 0;
}
