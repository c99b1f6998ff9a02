#pragma once

#include <cstdint>
#include <vector>

/// \file histogram.hpp
/// Fixed-width bucket histogram for latency distributions.

namespace wormrt::util {

/// Histogram over [lo, hi) with `buckets` equal-width buckets plus
/// underflow/overflow counters.
class Histogram {
 public:
  /// Requires lo < hi and buckets >= 1.
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  /// Adds every sample of \p other into this histogram.  Requires an
  /// identical layout (same lo, hi, bucket count) — the sharded metrics
  /// registry aggregates per-thread shards this way.
  void merge(const Histogram& other);

  /// Estimated q-quantile, q in [0, 1], assuming samples distribute
  /// uniformly within their bucket.  Underflow samples are treated as
  /// lo and overflow samples as hi (the closest representable value),
  /// so the estimate never leaves [lo, hi].  Returns lo when empty.
  /// The estimate and the true nearest-rank sample always fall in the
  /// same bucket, so the error is bounded by one bucket width.
  double quantile(double q) const;

  /// Tail shorthands.  p999 only resolves beyond p99 when the bucket
  /// ladder is fine enough — the µs-scale service families use widths
  /// of 10–50µs for exactly this (DESIGN.md §14).
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t bucket(std::size_t i) const { return counts_[i]; }
  /// Inclusive lower edge of bucket \p i.
  double bucket_lo(std::size_t i) const;
  /// Exclusive upper edge of bucket \p i.
  double bucket_hi(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace wormrt::util
