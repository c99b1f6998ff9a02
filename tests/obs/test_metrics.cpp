// The obs metrics registry: exact totals under concurrency, idempotent
// registration, and both exposition formats.  The Prometheus text is
// validated by a small parser (structure, TYPE lines, cumulative
// histogram buckets) rather than substring checks; the JSON block is a
// Json value, and the METRICS reply's rendering of it is pinned byte for
// byte.  The svc::Service migration is covered end to end: every
// documented family — verb counters, the admission latency histogram,
// thread-pool gauges, engine cache stats — must appear in a scrape.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "route/dor.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"
#include "topo/mesh.hpp"

namespace wormrt::obs {
namespace {

using svc::Json;

// ---------------------------------------------------------------------
// Mini Prometheus text-format parser.  Accepts exactly the subset the
// registry emits and checks the structural rules a real scraper relies
// on: every sample's family has a preceding # TYPE line, TYPE appears
// once per family, histogram buckets are cumulative and consistent with
// _count.  Samples land in `values` keyed by the full series name
// (name{labels}).

struct PromScrape {
  std::map<std::string, std::string> types;   // family -> counter/gauge/...
  std::map<std::string, double> values;       // series -> value
  std::string error;

  bool ok() const { return error.empty(); }
};

std::string family_of(const std::string& series) {
  const std::string base = series.substr(0, series.find('{'));
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (base.size() > s.size() &&
        base.compare(base.size() - s.size(), s.size(), s) == 0) {
      return base.substr(0, base.size() - s.size());
    }
  }
  return base;
}

PromScrape parse_prometheus(const std::string& text) {
  PromScrape scrape;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = " (line " + std::to_string(lineno) + ": " +
                              line + ")";
    if (line.empty()) {
      scrape.error = "blank line" + where;
      return scrape;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      if (!(fields >> family >> type) ||
          (type != "counter" && type != "gauge" && type != "histogram")) {
        scrape.error = "bad TYPE line" + where;
        return scrape;
      }
      if (scrape.types.count(family) != 0) {
        scrape.error = "duplicate TYPE for " + family + where;
        return scrape;
      }
      scrape.types[family] = type;
      continue;
    }
    if (line[0] == '#') {
      scrape.error = "unknown comment" + where;
      return scrape;
    }
    // Sample line: name[{labels}] value
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 == line.size()) {
      scrape.error = "bad sample line" + where;
      return scrape;
    }
    const std::string series = line.substr(0, space);
    const std::string value_text = line.substr(space + 1);
    double value = 0.0;
    if (value_text == "+Inf") {
      value = 1e308 * 10;  // inf without depending on <limits> here
    } else {
      char* end = nullptr;
      value = std::strtod(value_text.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        scrape.error = "bad sample value" + where;
        return scrape;
      }
    }
    const std::size_t brace = series.find('{');
    if (brace != std::string::npos && series.back() != '}') {
      scrape.error = "unbalanced labels" + where;
      return scrape;
    }
    const std::string family = family_of(series);
    if (scrape.types.count(family) == 0) {
      scrape.error = "sample before TYPE for " + family + where;
      return scrape;
    }
    if (scrape.values.count(series) != 0) {
      scrape.error = "duplicate series " + series + where;
      return scrape;
    }
    scrape.values[series] = value;
  }

  // Histogram consistency: buckets cumulative (non-decreasing in le
  // order of appearance is implied by cumulative checks against _count;
  // here: the +Inf bucket must equal _count for every child).
  for (const auto& [family, type] : scrape.types) {
    if (type != "histogram") {
      continue;
    }
    for (const auto& [series, value] : scrape.values) {
      const std::size_t pos = series.find("le=\"+Inf\"");
      if (series.rfind(family + "_bucket", 0) != 0 ||
          pos == std::string::npos) {
        continue;
      }
      // Rebuild the matching _count series by dropping the le label.
      std::string labels = series.substr(series.find('{'));
      const std::size_t le = labels.find("le=\"+Inf\"");
      std::string stripped = labels.substr(0, le) + labels.substr(le + 9);
      // Tidy separators: ",}" or "{," or "{}" after the removal.
      std::string cleaned;
      for (std::size_t i = 0; i < stripped.size(); ++i) {
        if (stripped[i] == ',' &&
            (i + 1 == stripped.size() || stripped[i + 1] == '}' ||
             cleaned.back() == '{')) {
          continue;
        }
        cleaned += stripped[i];
      }
      if (cleaned == "{}") {
        cleaned.clear();
      }
      const std::string count_series = family + "_count" + cleaned;
      const auto it = scrape.values.find(count_series);
      if (it == scrape.values.end()) {
        scrape.error = "no _count for " + series;
        return scrape;
      }
      if (value != it->second) {
        scrape.error = "+Inf bucket " + series + " != " + count_series;
        return scrape;
      }
    }
  }
  return scrape;
}

// ---------------------------------------------------------------------

TEST(ObsRegistry, RegistrationIsIdempotentAndLabelsFanOut) {
  Registry reg;
  Counter& a = reg.counter("x_total", {{"verb", "A"}});
  Counter& b = reg.counter("x_total", {{"verb", "A"}});
  Counter& c = reg.counter("x_total", {{"verb", "B"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  c.inc();
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(c.value(), 1u);

  Histogram& h1 = reg.histogram("lat_us", 0.0, 100.0, 10);
  Histogram& h2 = reg.histogram("lat_us", 0.0, 100.0, 10);
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, CounterMirrorTracksExternalSource) {
  Registry reg;
  Counter& c = reg.counter("mirrored_total");
  c.mirror(41);
  c.mirror(42);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsRegistry, GaugeSetAndAdd) {
  Registry reg;
  Gauge& g = reg.gauge("queue_depth");
  g.set(5.0);
  g.add(2.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 6.0);
}

TEST(ObsConcurrency, CountersNeverLoseIncrements) {
  Registry reg;
  Counter& c = reg.counter("hammer_total");
  constexpr int kThreads = 8;
  constexpr int kIncs = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) {
        c.inc();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(ObsConcurrency, HistogramCountAndSumAreExact) {
  Registry reg;
  Histogram& h = reg.histogram("obs_us", 0.0, 1000.0, 20);
  constexpr int kThreads = 8;
  constexpr int kObs = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) {
        h.observe(static_cast<double>((t + i) % 1000));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kObs);
  // Integral samples: the per-shard partial sums are exact in double.
  double want = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kObs; ++i) {
      want += static_cast<double>((t + i) % 1000);
    }
  }
  EXPECT_DOUBLE_EQ(h.sum(), want);
  EXPECT_EQ(h.merged().total(), h.count());
  EXPECT_GE(h.min(), 0.0);
  EXPECT_LE(h.max(), 999.0);
}

TEST(ObsHistogram, QuantilesStayWithinTheObservedRange) {
  // Twelve samples in the bucket [30, 40), the largest 39: interpolating
  // the top ranks inside the bucket reaches its upper edge, 40, which no
  // sample had.  Every estimate, here and in the JSON block, stays <= 39.
  Registry reg;
  Histogram& h = reg.histogram("dispatch_us", 0.0, 100.0, 10);
  for (const double x : {30.0, 31.0, 32.0, 33.0, 34.0, 35.0, 36.0, 37.0, 38.0,
                         39.0, 35.0, 36.0}) {
    h.observe(x);
  }
  ASSERT_EQ(h.max(), 39.0);
  EXPECT_LE(h.p99(), 39.0);
  EXPECT_LE(h.quantile(0.999), 39.0);
  EXPECT_GE(h.quantile(0.0), 30.0);

  const Json doc = reg.to_json();
  const Json& hist = doc.get("metrics")->items()[0];
  EXPECT_LE(hist.get("p99")->as_double(), 39.0);
  EXPECT_LE(hist.get("p999")->as_double(), 39.0);
  EXPECT_DOUBLE_EQ(hist.get("max")->as_double(), 39.0);
}

TEST(ObsHistogram, OneSampleIsEveryQuantile) {
  Registry reg;
  Histogram& h = reg.histogram("one_us", 0.0, 100.0, 10);
  h.observe(7.5);
  for (const double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 7.5) << "q " << q;
  }
}

TEST(ObsConcurrency, ConcurrentRegistrationYieldsOneInstance) {
  Registry reg;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      Counter& c = reg.counter("race_total", {{"k", "v"}});
      c.inc();
      seen[static_cast<std::size_t>(t)] = &c;
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[0], seen[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(seen[0]->value(), static_cast<std::uint64_t>(kThreads));
}

TEST(ObsExposition, PrometheusTextParsesAndBucketsAreCumulative) {
  Registry reg;
  reg.counter("jobs_total", {{"verb", "A"}}, "Jobs by verb.").inc(7);
  reg.counter("jobs_total", {{"verb", "B"}}).inc(2);
  reg.gauge("depth", {}, "Queue depth.").set(3.5);
  Histogram& h = reg.histogram("lat_us", 0.0, 100.0, 4, {}, "Latency.");
  for (const double x : {5.0, 15.0, 15.0, 55.0, 250.0}) {
    h.observe(x);
  }

  const std::string text = reg.to_prometheus();
  const PromScrape scrape = parse_prometheus(text);
  ASSERT_TRUE(scrape.ok()) << scrape.error << "\n" << text;

  EXPECT_EQ(scrape.types.at("jobs_total"), "counter");
  EXPECT_EQ(scrape.types.at("depth"), "gauge");
  EXPECT_EQ(scrape.types.at("lat_us"), "histogram");
  EXPECT_EQ(scrape.values.at("jobs_total{verb=\"A\"}"), 7.0);
  EXPECT_EQ(scrape.values.at("jobs_total{verb=\"B\"}"), 2.0);
  EXPECT_DOUBLE_EQ(scrape.values.at("depth"), 3.5);

  // Cumulative buckets: 3 samples in [0,25), one in [50,75), nothing in
  // [75,100); the overflow sample appears only in +Inf.
  EXPECT_EQ(scrape.values.at("lat_us_bucket{le=\"25\"}"), 3.0);
  EXPECT_EQ(scrape.values.at("lat_us_bucket{le=\"50\"}"), 3.0);
  EXPECT_EQ(scrape.values.at("lat_us_bucket{le=\"75\"}"), 4.0);
  EXPECT_EQ(scrape.values.at("lat_us_bucket{le=\"100\"}"), 4.0);
  EXPECT_EQ(scrape.values.at("lat_us_bucket{le=\"+Inf\"}"), 5.0);
  EXPECT_EQ(scrape.values.at("lat_us_count"), 5.0);
  EXPECT_DOUBLE_EQ(scrape.values.at("lat_us_sum"), 340.0);
}

TEST(ObsExposition, LabelValuesAreEscaped) {
  Registry reg;
  reg.counter("esc_total", {{"k", "a\"b\\c\nd"}}).inc();
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("esc_total{k=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

TEST(ObsExposition, JsonBlockCarriesEveryKind) {
  Registry reg;
  reg.counter("c_total", {{"verb", "X"}}).inc(4);
  reg.gauge("g").set(1.25);
  Histogram& h = reg.histogram("h_us", 0.0, 10.0, 5);
  h.observe(2.0);
  h.observe(8.0);

  const Json doc = reg.to_json();
  const Json* metrics = doc.get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  ASSERT_EQ(metrics->items().size(), 3u);

  const Json& counter = metrics->items()[0];
  EXPECT_EQ(counter.get("name")->as_string(), "c_total");
  EXPECT_EQ(counter.get("type")->as_string(), "counter");
  EXPECT_EQ(counter.get("value")->as_int(), 4);
  EXPECT_EQ(counter.get("labels")->get("verb")->as_string(), "X");

  const Json& gauge = metrics->items()[1];
  EXPECT_EQ(gauge.get("type")->as_string(), "gauge");
  EXPECT_DOUBLE_EQ(gauge.get("value")->as_double(), 1.25);

  const Json& hist = metrics->items()[2];
  EXPECT_EQ(hist.get("type")->as_string(), "histogram");
  EXPECT_EQ(hist.get("count")->as_int(), 2);
  EXPECT_DOUBLE_EQ(hist.get("sum")->as_double(), 10.0);
  EXPECT_DOUBLE_EQ(hist.get("min")->as_double(), 2.0);
  EXPECT_DOUBLE_EQ(hist.get("max")->as_double(), 8.0);
  EXPECT_DOUBLE_EQ(hist.get("p50")->as_double(), h.quantile(0.50));
  EXPECT_DOUBLE_EQ(hist.get("p99")->as_double(), h.p99());
  EXPECT_DOUBLE_EQ(hist.get("p999")->as_double(), h.quantile(0.999));
}

// ---------------------------------------------------------------------
// The service's scrape carries every family DESIGN.md §9 documents.

TEST(ObsServiceScrape, CarriesAllDocumentedFamilies) {
  topo::Mesh mesh(8, 8);
  const route::XYRouting routing;
  svc::Service service(mesh, routing);

  service.handle_line(
      R"({"verb":"REQUEST","src":0,"dst":5,"priority":2,"period":50,"length":20,"deadline":250})");
  service.handle_line(R"({"verb":"QUERY","handle":0})");
  service.handle_line(R"({"verb":"METRICS"})");
  service.handle_line("not json");  // one error

  const std::string text = service.prometheus_text();
  const PromScrape scrape = parse_prometheus(text);
  ASSERT_TRUE(scrape.ok()) << scrape.error << "\n" << text;

  EXPECT_EQ(scrape.values.at("wormrt_requests_total{verb=\"REQUEST\"}"), 1.0);
  EXPECT_EQ(scrape.values.at("wormrt_requests_total{verb=\"QUERY\"}"), 1.0);
  EXPECT_EQ(scrape.values.at("wormrt_requests_total{verb=\"METRICS\"}"),
            1.0);
  EXPECT_EQ(scrape.values.at("wormrt_errors_total"), 1.0);
  EXPECT_EQ(
      scrape.values.at("wormrt_admission_decisions_total{decision=\"admitted\"}"),
      1.0);
  EXPECT_EQ(scrape.values.at("wormrt_admission_latency_us_count"), 1.0);
  EXPECT_EQ(scrape.values.at("wormrt_population"), 1.0);

  // Thread-pool gauges/mirrors and engine stats are bridged at scrape
  // time; presence (with sane values) is the contract.
  EXPECT_GE(scrape.values.at("wormrt_threadpool_workers"), 1.0);
  EXPECT_GE(scrape.values.at("wormrt_threadpool_queue_depth"), 0.0);
  EXPECT_GE(scrape.values.at("wormrt_threadpool_tasks_submitted_total"), 0.0);
  EXPECT_GE(scrape.values.at("wormrt_threadpool_tasks_executed_total"), 0.0);
  EXPECT_GE(scrape.values.at("wormrt_threadpool_busy_micros_total"), 0.0);
  EXPECT_EQ(scrape.values.at("wormrt_engine_adds_total"), 1.0);
  EXPECT_EQ(scrape.values.at("wormrt_engine_removes_total"), 0.0);
  EXPECT_GE(scrape.values.at("wormrt_engine_bound_recomputes_total"), 1.0);
  EXPECT_GE(scrape.values.at("wormrt_engine_dirty_marked_total"), 0.0);
  EXPECT_GE(scrape.values.at("wormrt_engine_edge_updates_total"), 0.0);
  EXPECT_GE(scrape.values.at("wormrt_engine_bound_cache_hits_total"), 1.0);
  EXPECT_EQ(scrape.types.at("wormrt_admission_latency_us"), "histogram");
}

TEST(ObsServiceScrape, MetricsReplyBlockTextIsPinned) {
  // The METRICS reply's JSON block, byte for byte, for entries of every
  // kind: integral and fractional gauges (a whole value below 1e15 is
  // written as an integer), label keys and values that need escaping,
  // and a histogram with an overflow sample.
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  svc::Service service(mesh, routing);
  Registry& reg = service.registry();
  reg.counter("pin_total", {{"verb", "a\"b\\c"}}, "Counter.").inc(3);
  reg.counter("pin_total", {{"verb", "ctl\n\t\r\x01\b\f"}}).inc(1);
  reg.gauge("pin_gauge", {{"k\"ey", "caf\xc3\xa9"}}).set(42.0);
  reg.gauge("pin_gauge", {{"k\"ey", "frac"}}).set(0.1);
  reg.gauge("pin_gauge", {{"k\"ey", "neg"}}).set(-2.5);
  reg.gauge("pin_gauge", {{"k\"ey", "e15"}}).set(1e15);
  reg.gauge("pin_gauge", {{"k\"ey", "e20"}}).set(1e20);
  reg.gauge("pin_gauge", {{"k\"ey", "zero"}}).set(-0.0);
  Histogram& h = reg.histogram("pin_us", 0.0, 100.0, 10, {{"path", "/a b"}});
  for (const double x : {5.0, 15.5, 15.5, 99.0, 250.0}) {
    h.observe(x);
  }
  reg.histogram("pin_us", 0.0, 100.0, 10, {{"path", "empty"}});

  const std::string line = service.handle_line(R"({"verb":"METRICS"})");
  const std::string pinned =
      R"x({"name":"pin_total","labels":{"verb":"a\"b\\c"},"type":"counter","value":3},)x"
      R"x({"name":"pin_total","labels":{"verb":"ctl\n\t\r\u0001\b\f"},"type":"counter","value":1},)x"
      R"x({"name":"pin_gauge","labels":{"k\"ey":")x"
      "caf\xc3\xa9"
      R"x("},"type":"gauge","value":42},)x"
      R"x({"name":"pin_gauge","labels":{"k\"ey":"frac"},"type":"gauge","value":0.10000000000000001},)x"
      R"x({"name":"pin_gauge","labels":{"k\"ey":"neg"},"type":"gauge","value":-2.5},)x"
      R"x({"name":"pin_gauge","labels":{"k\"ey":"e15"},"type":"gauge","value":1000000000000000},)x"
      R"x({"name":"pin_gauge","labels":{"k\"ey":"e20"},"type":"gauge","value":1e+20},)x"
      R"x({"name":"pin_gauge","labels":{"k\"ey":"zero"},"type":"gauge","value":0},)x"
      R"x({"name":"pin_us","labels":{"path":"/a b"},"type":"histogram","count":5,"sum":385,"min":5,"max":250,"p50":20,"p99":100,"p999":100},)x"
      R"x({"name":"pin_us","labels":{"path":"empty"},"type":"histogram","count":0,"sum":0,"min":0,"max":0,"p50":0,"p99":0,"p999":0})x";
  EXPECT_NE(line.find(pinned), std::string::npos) << line;
}

TEST(ObsServiceScrape, TwoServicesDoNotShareCounters) {
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  svc::Service a(mesh, routing);
  svc::Service b(mesh, routing);
  a.handle_line(R"({"verb":"METRICS"})");
  const PromScrape sa = parse_prometheus(a.prometheus_text());
  const PromScrape sb = parse_prometheus(b.prometheus_text());
  ASSERT_TRUE(sa.ok()) << sa.error;
  ASSERT_TRUE(sb.ok()) << sb.error;
  EXPECT_EQ(sa.values.at("wormrt_requests_total{verb=\"METRICS\"}"), 1.0);
  EXPECT_EQ(sb.values.at("wormrt_requests_total{verb=\"METRICS\"}"), 0.0);
}

}  // namespace
}  // namespace wormrt::obs
