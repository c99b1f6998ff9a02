#include "util/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wormrt::util {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  assert(lo < hi);
  assert(buckets >= 1);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  idx = std::min(idx, counts_.size() - 1);  // guard float edge cases
  ++counts_[idx];
}

void Histogram::merge(const Histogram& other) {
  assert(other.lo_ == lo_ && other.hi_ == hi_ &&
         other.counts_.size() == counts_.size() &&
         "merge requires an identical bucket layout");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) {
    return lo_;
  }
  q = std::min(1.0, std::max(0.0, q));
  // Nearest-rank: the r-th smallest sample, 1-indexed.
  const auto r = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(total_))));
  std::size_t cum = underflow_;
  if (r <= cum) {
    return lo_;  // all we know about an underflow sample is x < lo
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (r <= cum + counts_[i]) {
      // Interpolate the rank's position inside the bucket.
      const double within = static_cast<double>(r - cum) /
                            static_cast<double>(counts_[i]);
      return bucket_lo(i) + width_ * within;
    }
    cum += counts_[i];
  }
  return hi_;  // the rank lands in the overflow tail
}

double Histogram::bucket_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

}  // namespace wormrt::util
