#ifndef KANON_COMMON_BUCKET_HISTOGRAM_H_
#define KANON_COMMON_BUCKET_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace kanon {

/// A histogram of non-negative values (latencies and durations in ms) over
/// compile-time log-scale buckets: every exposition has the same `le` set,
/// and the counts are exact lifetime totals. Observe() is two relaxed
/// atomic adds, safe from any thread. The total is summed from the bucket
/// reads, so a renderer that reuses them keeps `+Inf == _count` even while
/// other threads observe. Copying loads every counter (a stats snapshot).
class BucketHistogram {
 public:
  /// Inclusive upper bounds: a 1-2.5-5 series from 10 us to 100 s. One
  /// more bucket, past the last bound, catches everything above.
  static constexpr std::array<double, 22> kBounds = {
      0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1,     2.5,   5,     10,    25,
      50,   100,   250,  500,  1000, 2500, 5000,  10000, 25000, 50000, 100000};
  static constexpr size_t kNumBuckets = kBounds.size() + 1;

  BucketHistogram() = default;
  BucketHistogram(const BucketHistogram& other) { *this = other; }
  BucketHistogram& operator=(const BucketHistogram& other) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      buckets_[b].store(other.bucket(b), std::memory_order_relaxed);
    }
    sum_.store(other.sum(), std::memory_order_relaxed);
    return *this;
  }

  void Observe(double value) {
    const auto b = std::lower_bound(kBounds.begin(), kBounds.end(), value) -
                   kBounds.begin();
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Adds `other`'s counts and sum into this one (shard totals).
  void Merge(const BucketHistogram& other) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      buckets_[b].fetch_add(other.bucket(b), std::memory_order_relaxed);
    }
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  }

  /// Observations in bucket `b` alone, not cumulative.
  uint64_t bucket(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  uint64_t count() const {
    uint64_t n = 0;
    for (size_t b = 0; b < kNumBuckets; ++b) n += bucket(b);
    return n;
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
};

}  // namespace kanon

#endif  // KANON_COMMON_BUCKET_HISTOGRAM_H_
