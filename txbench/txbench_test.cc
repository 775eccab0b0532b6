// Tests of the txbench building blocks: the latency recorder's percentile
// error against exact sample quantiles, and span self-time accounting.
// Exits nonzero on the first failed check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "latency_recorder.h"
#include "span_trace.h"
#include "util/random.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

// Nearest-rank quantile of a sorted sample, the definition Percentile uses.
uint64_t Exact(const std::vector<uint64_t>& sorted, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * double(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Every reported quantile is within 1% of the exact one, over latency-like
// (log-uniform, 50 ns .. 50 ms) samples and over a narrow cluster.
void TestPercentileError() {
  nestedtx::Rng rng(42);
  for (int dist = 0; dist < 2; ++dist) {
    txbench::LatencyRecorder rec;
    std::vector<uint64_t> samples;
    for (int i = 0; i < 200000; ++i) {
      const double x = rng.NextDouble();
      const uint64_t v =
          dist == 0 ? uint64_t(50.0 * std::pow(1e6, x))
                    : uint64_t(20000 + 400 * x);  // ~20 us, 2% wide
      samples.push_back(v);
      rec.Record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double exact = double(Exact(samples, q));
      const double got = rec.Percentile(q);
      const double err = std::fabs(got - exact) / exact;
      if (err > 0.01) {
        std::fprintf(stderr, "dist %d q %.3f: exact %.0f got %.1f err %.4f\n",
                     dist, q, exact, got, err);
      }
      Expect(err <= 0.01, "percentile within 1% of the exact quantile");
    }
  }
}

// Bucket geometry: exact below 2^kSubBits, every bucket at most 1/128 of
// its lower edge wide, and Index/Lower consistent at bucket edges.
void TestBuckets() {
  using R = txbench::LatencyRecorder;
  for (uint64_t v = 0; v < R::kSub; ++v) {
    Expect(R::Index(v) == v && R::Width(v) == 1, "small values exact");
  }
  for (size_t i = R::kSub; i + 1 < R::kBuckets; ++i) {
    Expect(R::Index(R::Lower(i)) == i, "lower edge maps to its bucket");
    Expect(R::Index(R::Lower(i) + R::Width(i) - 1) == i,
           "upper edge maps to its bucket");
    Expect(R::Lower(i + 1) == R::Lower(i) + R::Width(i), "buckets contiguous");
    Expect(double(R::Width(i)) / double(R::Lower(i)) <= 1.0 / 128,
           "relative bucket width <= 1/128");
  }
  R rec;
  rec.Record(~uint64_t{0});
  Expect(rec.Percentile(1.0) > 0, "overflow values land in the last bucket");
}

// Merging per-client recorders equals recording into one.
void TestMerge() {
  txbench::LatencyRecorder a, b, all;
  for (uint64_t v = 1; v < 100000; v += 7) {
    (v % 3 ? a : b).Record(v);
    all.Record(v);
  }
  a.Merge(b);
  Expect(a.count() == all.count(), "merged count");
  for (double q : {0.5, 0.99}) {
    Expect(a.Percentile(q) == all.Percentile(q), "merged percentile");
  }
}

// Self time = duration minus child coverage; self times of a nested
// transaction partition the root's duration.
void TestSelfTimes() {
  using txbench::Span;
  // txn [0,100) > attempt [5,95) > {begin [5,10), read [20,30),
  // subtxn [40,80) > write [50,60)}; commit [85,95).
  std::vector<Span> spans = {
      {1, 0, 100, -1, txbench::kTxn},      {1, 5, 95, 0, txbench::kAttempt},
      {1, 5, 10, 1, txbench::kBegin},      {1, 20, 30, 1, txbench::kRead},
      {1, 40, 80, 1, txbench::kSubtxn},    {1, 50, 60, 4, txbench::kWrite},
      {1, 85, 95, 1, txbench::kCommit},
  };
  txbench::SpanTotals t;
  txbench::SpanRecorder::AccumulateSelfTimes(spans, &t);
  Expect(t.root_ns == 100 && t.roots == 1, "root duration");
  Expect(t.self_ns[txbench::kTxn] == 10, "txn self");
  Expect(t.self_ns[txbench::kAttempt] == 90 - 5 - 10 - 40 - 10, "attempt self");
  Expect(t.self_ns[txbench::kSubtxn] == 30, "subtxn self");
  Expect(t.self_ns[txbench::kWrite] == 10, "leaf self = duration");
  Expect(t.SelfSum() == t.root_ns, "self times partition the root");
}

}  // namespace

int main() {
  TestPercentileError();
  TestBuckets();
  TestMerge();
  TestSelfTimes();
  if (failures == 0) std::printf("txbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
