#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/log.hpp"

namespace wormrt::obs {

namespace {

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote and newline.
std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders {k1="v1",k2="v2"}; empty string when there are no labels.
std::string render_labels(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += labels[i].first + "=\"" + escape_label(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

/// Like render_labels but with one extra label appended (histogram le).
std::string render_labels_plus(const Labels& labels, const std::string& key,
                               const std::string& value) {
  Labels all = labels;
  all.emplace_back(key, value);
  return render_labels(all);
}

/// True when both expositions write \p v as an integer: a whole number
/// below 1e15.
bool whole(double v) { return std::abs(v) < 1e15 && v == std::trunc(v); }

std::string format_double(double v) {
  if (v == std::numeric_limits<double>::infinity()) {
    return "+Inf";
  }
  char buf[64];
  // %.17g round-trips doubles; trim to %g-style readability for the
  // common integral values.
  if (whole(v)) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

util::Json json_number(double v) {
  return whole(v) ? util::Json(static_cast<std::int64_t>(v)) : util::Json(v);
}

std::string key_of(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), buckets_(buckets) {
  for (std::size_t i = 0; i < kShards; ++i) {
    shards_.emplace_back(lo, hi, buckets);
  }
}

void Histogram::observe(double x) {
  Shard& s = shards_[util::thread_index() % kShards];
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.hist.total() == 0) {
    s.min = x;
    s.max = x;
  } else {
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.hist.add(x);
  s.sum += x;
}

util::Histogram Histogram::merged() const {
  util::Histogram out(lo_, hi_, buckets_);
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    out.merge(s.hist);
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    n += s.hist.total();
  }
  return n;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    total += s.sum;
  }
  return total;
}

double Histogram::min() const {
  double m = 0.0;
  bool seen = false;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.hist.total() == 0) {
      continue;
    }
    m = seen ? std::min(m, s.min) : s.min;
    seen = true;
  }
  return m;
}

double Histogram::max() const {
  double m = 0.0;
  bool seen = false;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.hist.total() == 0) {
      continue;
    }
    m = seen ? std::max(m, s.max) : s.max;
    seen = true;
  }
  return m;
}

std::vector<double> Histogram::quantiles(
    std::initializer_list<double> qs) const {
  util::Histogram all(lo_, hi_, buckets_);
  double lo = 0.0;
  double hi = 0.0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.hist.total() == 0) {
      continue;
    }
    lo = all.total() == 0 ? s.min : std::min(lo, s.min);
    hi = all.total() == 0 ? s.max : std::max(hi, s.max);
    all.merge(s.hist);
  }
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    out.push_back(all.total() == 0 ? all.quantile(q)
                                   : std::clamp(all.quantile(q), lo, hi));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry

Counter& Registry::counter(const std::string& name, const Labels& labels,
                           const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string key = key_of(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    assert(entries_[it->second].kind == Kind::kCounter);
    return *entries_[it->second].counter;
  }
  counters_.emplace_back();
  Entry e;
  e.kind = Kind::kCounter;
  e.name = name;
  e.labels = labels;
  e.help = help;
  e.counter = &counters_.back();
  index_[key] = entries_.size();
  entries_.push_back(std::move(e));
  return counters_.back();
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string key = key_of(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    assert(entries_[it->second].kind == Kind::kGauge);
    return *entries_[it->second].gauge;
  }
  gauges_.emplace_back();
  Entry e;
  e.kind = Kind::kGauge;
  e.name = name;
  e.labels = labels;
  e.help = help;
  e.gauge = &gauges_.back();
  index_[key] = entries_.size();
  entries_.push_back(std::move(e));
  return gauges_.back();
}

Histogram& Registry::histogram(const std::string& name, double lo, double hi,
                               std::size_t buckets, const Labels& labels,
                               const std::string& help) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::string key = key_of(name, labels);
  auto it = index_.find(key);
  if (it != index_.end()) {
    Histogram* h = entries_[it->second].histogram;
    assert(entries_[it->second].kind == Kind::kHistogram);
    assert(h->lo() == lo && h->hi() == hi && h->buckets() == buckets);
    return *h;
  }
  histograms_.emplace_back(lo, hi, buckets);
  Entry e;
  e.kind = Kind::kHistogram;
  e.name = name;
  e.labels = labels;
  e.help = help;
  e.histogram = &histograms_.back();
  index_[key] = entries_.size();
  entries_.push_back(std::move(e));
  return histograms_.back();
}

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;

  // One # HELP/# TYPE pair per family, children grouped beneath it.  A
  // family is every entry sharing a name; exposition preserves first-
  // registration order.
  std::vector<bool> emitted(entries_.size(), false);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (emitted[i]) {
      continue;
    }
    const Entry& head = entries_[i];
    const char* type = head.kind == Kind::kCounter   ? "counter"
                       : head.kind == Kind::kGauge   ? "gauge"
                                                     : "histogram";
    if (!head.help.empty()) {
      out += "# HELP " + head.name + " " + head.help + "\n";
    }
    out += "# TYPE " + head.name + " " + type + "\n";
    for (std::size_t j = i; j < entries_.size(); ++j) {
      if (emitted[j] || entries_[j].name != head.name) {
        continue;
      }
      emitted[j] = true;
      const Entry& e = entries_[j];
      switch (e.kind) {
        case Kind::kCounter:
          out += e.name + render_labels(e.labels) + " " +
                 std::to_string(e.counter->value()) + "\n";
          break;
        case Kind::kGauge:
          out += e.name + render_labels(e.labels) + " " +
                 format_double(e.gauge->value()) + "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *e.histogram;
          const util::Histogram m = h.merged();
          std::uint64_t cum = m.underflow();
          for (std::size_t b = 0; b < m.bucket_count(); ++b) {
            cum += m.bucket(b);
            out += e.name + "_bucket" +
                   render_labels_plus(e.labels, "le",
                                      format_double(m.bucket_hi(b))) +
                   " " + std::to_string(cum) + "\n";
          }
          cum += m.overflow();
          out += e.name + "_bucket" +
                 render_labels_plus(e.labels, "le", "+Inf") + " " +
                 std::to_string(cum) + "\n";
          out += e.name + "_sum" + render_labels(e.labels) + " " +
                 format_double(h.sum()) + "\n";
          out += e.name + "_count" + render_labels(e.labels) + " " +
                 std::to_string(cum) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

util::Json Registry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  util::Json list = util::Json::array();
  for (const Entry& e : entries_) {
    util::Json entry = util::Json::object();
    entry.set("name", e.name);
    util::Json labels = util::Json::object();
    for (const auto& [key, value] : e.labels) {
      labels.set(key, value);
    }
    entry.set("labels", std::move(labels));
    switch (e.kind) {
      case Kind::kCounter:
        entry.set("type", "counter");
        entry.set("value", static_cast<std::int64_t>(e.counter->value()));
        break;
      case Kind::kGauge:
        entry.set("type", "gauge");
        entry.set("value", json_number(e.gauge->value()));
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e.histogram;
        const std::vector<double> q = h.quantiles({0.50, 0.99, 0.999});
        entry.set("type", "histogram");
        entry.set("count", static_cast<std::int64_t>(h.count()));
        entry.set("sum", json_number(h.sum()));
        entry.set("min", json_number(h.min()));
        entry.set("max", json_number(h.max()));
        entry.set("p50", json_number(q[0]));
        entry.set("p99", json_number(q[1]));
        entry.set("p999", json_number(q[2]));
        break;
      }
    }
    list.push_back(std::move(entry));
  }
  util::Json out = util::Json::object();
  out.set("metrics", std::move(list));
  return out;
}

Registry& Registry::global() {
  static Registry* reg = new Registry();  // leaked: outlives all users
  return *reg;
}

}  // namespace wormrt::obs
