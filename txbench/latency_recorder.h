// Fixed-memory latency recorder with fine resolution, for the txbench
// driver's client-measured transaction latencies.
//
// Values are bucketed log-linearly: below 2^kSubBits every value has its
// own bucket; above, each power-of-two octave is split into 2^kSubBits
// equal sub-buckets. A bucket's width is therefore at most 1/2^kSubBits
// (0.78%) of its lower edge, and Percentile() returns the bucket midpoint,
// so a reported quantile is within 0.4% of the exact sample quantile.
// Memory is one fixed array per recorder (no per-sample storage), so peak
// RSS does not grow with throughput; per-client recorders are merged after
// the measured window.
#ifndef TXBENCH_LATENCY_RECORDER_H_
#define TXBENCH_LATENCY_RECORDER_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace txbench {

class LatencyRecorder {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  /// Octaves above the exact range; values at or beyond
  /// 2^(kSubBits + kOctaves) ns (~34 s) land in the last bucket.
  static constexpr int kOctaves = 28;
  static constexpr size_t kBuckets = (kOctaves + 1) * kSub;

  void Record(uint64_t v) {
    ++counts_[Index(v)];
    ++count_;
    sum_ += v;
  }

  void Merge(const LatencyRecorder& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  void Clear() {
    counts_.fill(0);
    count_ = 0;
    sum_ = 0;
  }

  uint64_t count() const { return count_; }
  double Mean() const { return count_ == 0 ? 0.0 : double(sum_) / count_; }

  /// Nearest-rank q-quantile (q in (0, 1]) as its bucket's midpoint;
  /// 0 when empty.
  double Percentile(double q) const {
    if (count_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * double(count_)));
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        return double(Lower(i)) + double(Width(i) - 1) / 2.0;
      }
    }
    return double(Lower(kBuckets - 1));
  }

  /// Bucket of value `v`.
  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;
    if (shift >= kOctaves) return kBuckets - 1;
    return static_cast<size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }
  /// Smallest value in bucket `i`.
  static uint64_t Lower(size_t i) {
    if (i < kSub) return i;
    const int shift = static_cast<int>(i / kSub) - 1;
    return (kSub + i % kSub) << shift;
  }
  /// Number of distinct values bucket `i` holds.
  static uint64_t Width(size_t i) {
    return i < kSub ? 1 : uint64_t{1} << (i / kSub - 1);
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace txbench

#endif  // TXBENCH_LATENCY_RECORDER_H_
