// The paper's comparison baselines are workload transforms in the bench
// harness (bench/engine_harness.h), not engine modes. Each transform must
// leave its signature in the engine's own counters, and every baseline
// must still commit all of its work.
#include <gtest/gtest.h>

#include "engine_harness.h"

namespace nestedtx {
namespace bench {
namespace {

WorkloadConfig TransformConfig(Baseline baseline) {
  WorkloadConfig cfg;
  cfg.mode = baseline;
  cfg.threads = 4;
  cfg.num_keys = 64;
  cfg.read_ratio = 0.5;
  cfg.accesses_per_txn = 6;
  cfg.nesting_depth = 3;
  cfg.duration_seconds = 0.05;
  return cfg;
}

WorkloadResult RunBaseline(Baseline baseline) {
  const WorkloadResult r = RunWorkload(TransformConfig(baseline));
  EXPECT_GT(r.committed, 0u) << BaselineName(baseline);
  EXPECT_EQ(r.failed, 0u) << BaselineName(baseline);
  return r;
}

TEST(HarnessTransformTest, NamesKeepTheBenchModeColumn) {
  EXPECT_STREQ(BaselineName(Baseline::kMossRW), "moss-rw");
  EXPECT_STREQ(BaselineName(Baseline::kExclusive), "exclusive");
  EXPECT_STREQ(BaselineName(Baseline::kFlat2PL), "flat-2pl");
  EXPECT_STREQ(BaselineName(Baseline::kSerial), "serial");
}

// The untransformed run is the control: it takes read locks and begins
// subtransactions, so the signatures below are the transforms' doing.
TEST(HarnessTransformTest, MossRunTakesReadLocksAndNests) {
  const WorkloadResult r = RunBaseline(Baseline::kMossRW);
  EXPECT_GT(r.reads, 0u);
  EXPECT_GT(r.txns_begun, r.attempts);
}

TEST(HarnessTransformTest, ExclusiveIssuesNoReadLocks) {
  const WorkloadResult r = RunBaseline(Baseline::kExclusive);
  EXPECT_EQ(r.reads, 0u);
}

TEST(HarnessTransformTest, FlatBeginsNoSubtransactions) {
  const WorkloadResult r = RunBaseline(Baseline::kFlat2PL);
  EXPECT_EQ(r.txns_begun, r.attempts);
}

TEST(HarnessTransformTest, SerialNeverWaitsOrDeadlocks) {
  const WorkloadResult r = RunBaseline(Baseline::kSerial);
  EXPECT_EQ(r.lock_waits, 0u);
  EXPECT_EQ(r.deadlocks, 0u);
}

}  // namespace
}  // namespace bench
}  // namespace nestedtx
