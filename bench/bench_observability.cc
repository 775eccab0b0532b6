// E13 — the price of watching: instrumentation overhead of the
// observability layer on the CPU-bound read95_hotset workload (the
// hot-path yardstick from E3, where per-access bookkeeping has nowhere
// to hide behind I/O dwell).
//
// Cells: metrics disabled (the branch-only floor), metrics on with spans
// off (the production default), and metrics + span sampling at 1/64 and
// 1/1. Expected shape: disabled is within noise of the PR-4 baseline;
// metrics+1/64 sampling stays within a few percent (the target in
// EXPERIMENTS.md is <3%); 1/1 sampling prices the worst case.
//
// The run also exercises the export surfaces end to end: the JSON cell
// summaries land in BENCH_bench_observability.json (validated by CI's
// json.tool pass), and the final cell prints an ExportText digest.
#include <cstdio>

#include "engine_harness.h"

using namespace nestedtx;
using namespace nestedtx::bench;

namespace {

struct Cell {
  const char* name;
  bool metrics_enabled;
  uint32_t span_sample_one_in;
};

WorkloadConfig Read95Hotset() {
  WorkloadConfig cfg;
  cfg.mode = Baseline::kMossRW;
  cfg.threads = 2;
  cfg.num_keys = 8;
  cfg.read_ratio = 0.95;
  cfg.accesses_per_txn = 12;
  cfg.dwell_us_per_access = 0;
  cfg.duration_seconds = 1.0;  // short cells; best-of-reps does the work
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = HasFlag(argc, argv, "--json");
  JsonResultFile out("bench_observability");
  const Cell cells[] = {
      {"metrics_off", false, 0},
      {"metrics_on", true, 0},
      {"spans_1_in_64", true, 64},
      {"spans_1_in_1", true, 1},
  };
  std::printf("E13: instrumentation overhead on read95_hotset "
              "(2 threads, 8 keys, 12 accesses/txn, CPU-bound)\n");
  std::printf("%-14s | %12s %12s %10s\n", "config", "txn/s", "ops/s",
              "vs off");
  // Best-of-N per cell, reps interleaved round-robin across the cells:
  // run-to-run noise on a shared host is several percent — larger than
  // the effect being measured — almost entirely downward (scheduler
  // preemption) and drifting over time, so the per-cell max over
  // interleaved reps is the least biased comparison.
  const int reps = Smoke() ? 1 : 5;
  constexpr int kCells = int(sizeof(cells) / sizeof(cells[0]));
  WorkloadConfig cfgs[kCells];
  WorkloadResult best[kCells];
  for (int rep = 0; rep < reps; ++rep) {
    for (int c = 0; c < kCells; ++c) {
      WorkloadConfig cfg = Read95Hotset();
      cfg.metrics_enabled = cells[c].metrics_enabled;
      cfg.span_sample_one_in = cells[c].span_sample_one_in;
      cfgs[c] = cfg;
      WorkloadResult r = RunWorkload(cfg);
      if (rep == 0 || r.OpsPerSec() > best[c].OpsPerSec()) best[c] = r;
    }
  }
  const double baseline = best[0].OpsPerSec();
  for (int c = 0; c < kCells; ++c) {
    const WorkloadResult& r = best[c];
    const double overhead_pct =
        baseline > 0 ? 100.0 * (1.0 - r.OpsPerSec() / baseline) : 0;
    std::printf("%-14s | %12.0f %12.0f %+9.2f%%\n", cells[c].name,
                r.TxnPerSec(), r.OpsPerSec(), overhead_pct);
    if (json) {
      AddWorkloadEntry(out, cells[c].name, cfgs[c], r)
          .Int("metrics_enabled", cells[c].metrics_enabled ? 1 : 0)
          .Int("span_sample_one_in", cells[c].span_sample_one_in)
          .Num("overhead_vs_off_pct", overhead_pct);
    }
  }

  // Export-surface smoke: drive a few hundred transactions on a
  // span-sampling database and show what the text exposition looks like.
  {
    EngineOptions options;
    options.span_sample_one_in = 16;
    Database db(options);
    for (int k = 0; k < 8; ++k) db.Preload(StrCat("k", k), 0);
    for (int i = 0; i < (Smoke() ? 5 : 200); ++i) {
      auto txn = db.Begin();
      (void)txn->Add(StrCat("k", i % 8), 1);
      (void)txn->Commit();
    }
    const std::string text = db.ExportMetricsText();
    std::printf("\nExportText digest (first lines):\n");
    size_t pos = 0;
    for (int line = 0; line < 8 && pos < text.size(); ++line) {
      const size_t end = text.find('\n', pos);
      std::printf("  %.*s\n", int(end - pos), text.c_str() + pos);
      pos = end + 1;
    }
    std::printf("  ... (%zu bytes total; ExportJson: %zu bytes)\n",
                text.size(), db.ExportMetricsJson().size());
  }

  if (json && !out.Write()) return 1;
  return 0;
}
