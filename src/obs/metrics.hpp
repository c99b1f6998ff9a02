#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.hpp"
#include "util/json.hpp"

/// \file metrics.hpp
/// The process-wide metrics registry: named counters, gauges and
/// histograms with label support, exposed as Prometheus text and JSON.
///
/// Design constraints, in order:
///   1. Cheap hot path — Counter::inc / Gauge::set are one relaxed
///      atomic op; Histogram::observe takes one uncontended per-shard
///      mutex (shards are picked by thread index, so concurrent
///      observers rarely collide).  Look metrics up ONCE (registration
///      walks a map under the registry mutex) and cache the returned
///      reference; references stay valid for the registry's lifetime.
///   2. Exact totals — concurrent increments are never lost (property
///      tested with N threads hammering one counter/histogram).
///   3. Aggregation on read — per-shard util::Histograms are merged at
///      exposition time (Histogram::merge), and quantiles are estimated
///      from the merged buckets (Histogram::quantile), so the write
///      path never sorts or stores samples.
///
/// Naming follows the Prometheus conventions documented in DESIGN.md
/// §9: `wormrt_<subsystem>_<what>[_total]`, labels for dimensions that
/// fan out (verb, decision, invariant).

namespace wormrt::obs {

/// Label set of one metric child, e.g. {{"verb", "REQUEST"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Mirrors an externally maintained cumulative count (e.g. the
  /// incremental engine's work counters) at scrape time.  The source
  /// must itself be monotonic or the exposition lies.
  void mirror(std::uint64_t absolute) {
    value_.store(absolute, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous value that can go up and down.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Sharded fixed-bucket histogram.  Each shard wraps a util::Histogram
/// plus sum/min/max; observe() touches only the calling thread's shard.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void observe(double x);

  /// Merged view of all shards (a copy; the shards keep accumulating).
  util::Histogram merged() const;
  std::uint64_t count() const;
  double sum() const;
  /// Smallest / largest observed value; 0 when empty.
  double min() const;
  double max() const;
  /// Estimated q-quantile (q in [0,1]) over the merged buckets, clamped
  /// into [min(), max()]: interpolation inside the rank's bucket never
  /// reports a value beyond the ones observed.
  double quantile(double q) const { return quantiles({q})[0]; }
  double p99() const { return quantile(0.99); }
  /// quantile() at each of \p qs, from one merged view.
  std::vector<double> quantiles(std::initializer_list<double> qs) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t buckets() const { return buckets_; }

 private:
  static constexpr std::size_t kShards = 8;
  struct Shard {
    explicit Shard(double lo, double hi, std::size_t buckets)
        : hist(lo, hi, buckets) {}
    mutable std::mutex mu;
    util::Histogram hist;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  double lo_;
  double hi_;
  std::size_t buckets_;
  std::deque<Shard> shards_;  // deque: Shard holds a mutex, never moves
};

/// Owner of all metrics.  Registration is idempotent: asking for the
/// same (name, labels) again returns the same instance, so call sites
/// do not need to coordinate.  Use Registry::global() for process-wide
/// metrics; services that must not share counters across instances
/// (e.g. two svc::Services in one test binary) own a private Registry.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  /// All children of one histogram family must agree on the bucket
  /// layout (asserted).
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t buckets, const Labels& labels = {},
                       const std::string& help = "");

  /// Prometheus text exposition (version 0.0.4): one # HELP/# TYPE pair
  /// per family, histogram children as cumulative _bucket{le=...} series
  /// plus _sum and _count.
  std::string to_prometheus() const;

  /// JSON exposition: {"metrics":[{name,labels,type,...}]} with a value
  /// for counters and gauges, and count/sum/min/max/p50/p99/p999 for
  /// histograms — the block METRICS embeds in its reply.  A whole number
  /// below 1e15 is an integer, as in the text exposition.
  util::Json to_json() const;

  static Registry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    Labels labels;
    std::string help;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  mutable std::mutex mu_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> entries_;                 // exposition order
  std::map<std::string, std::size_t> index_;   // name+labels -> entry
};

}  // namespace wormrt::obs
