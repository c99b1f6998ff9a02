// REPORT / HEALTH / HISTORY verbs, the audit log, and the agreement of
// METRICS's two renderings.  These are the observability verbs added
// by DESIGN.md §14: REPORT feeds observed latencies to the conformance
// monitor, HEALTH aggregates everything a pager needs into one status,
// HISTORY serves the sampler's bounded rings.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "metrics_reply.hpp"
#include "route/dor.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"
#include "topo/mesh.hpp"

namespace wormrt {
namespace {

using svc::Json;

class HealthHistoryTest : public ::testing::Test {
 protected:
  HealthHistoryTest() : mesh_(8, 8), service_(mesh_, routing_) {}

  Json call(const std::string& line) {
    std::string error;
    Json reply = Json::parse(service_.handle_line(line), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_TRUE(reply.is_object());
    return reply;
  }

  /// Admits a stream and returns its handle (asserts admission).
  std::int64_t admit(int src, int dst, int priority, Time period,
                     Time length, Time deadline) {
    Json r = Json::object();
    r.set("verb", "REQUEST");
    r.set("src", std::int64_t{src});
    r.set("dst", std::int64_t{dst});
    r.set("priority", std::int64_t{priority});
    r.set("period", period);
    r.set("length", length);
    r.set("deadline", deadline);
    const Json reply = call(r.dump());
    EXPECT_TRUE(reply.get("ok")->as_bool());
    EXPECT_TRUE(reply.get("admitted")->as_bool());
    return reply.get("handle")->as_int();
  }

  static std::string report_line(std::int64_t handle, double latency) {
    Json r = Json::object();
    r.set("verb", "REPORT");
    r.set("handle", handle);
    r.set("observed_latency", latency);
    return r.dump();
  }

  topo::Mesh mesh_;
  route::XYRouting routing_;
  svc::Service service_;
};

// --- REPORT ----------------------------------------------------------

TEST_F(HealthHistoryTest, ReportBelowBoundConformsAboveBoundViolates) {
  const std::int64_t handle = admit(0, 5, 2, 500, 20, 2500);
  Json q = Json::object();
  q.set("verb", "QUERY");
  q.set("handle", handle);
  const std::int64_t bound = call(q.dump()).get("bound")->as_int();
  ASSERT_GT(bound, 0);
  ASSERT_LE(bound + 2, 500) << "test stream must be flit-valid";

  const Json conforming =
      call(report_line(handle, static_cast<double>(bound)));
  EXPECT_TRUE(conforming.get("ok")->as_bool());
  EXPECT_TRUE(conforming.get("flit_valid")->as_bool());
  EXPECT_FALSE(conforming.get("violation")->as_bool());
  EXPECT_EQ(conforming.get("violations")->as_int(), 0);
  EXPECT_EQ(conforming.get("bound")->as_int(), bound);

  const Json violating =
      call(report_line(handle, static_cast<double>(bound) + 0.5));
  EXPECT_TRUE(violating.get("violation")->as_bool());
  EXPECT_EQ(violating.get("violations")->as_int(), 1);
  EXPECT_DOUBLE_EQ(violating.get("max_observed")->as_double(),
                   static_cast<double>(bound) + 0.5);
}

TEST_F(HealthHistoryTest, ReportOnUnknownHandleIsAnError) {
  const Json reply = call(report_line(12345, 1.0));
  EXPECT_FALSE(reply.get("ok")->as_bool());
}

TEST_F(HealthHistoryTest, BatchedReportCountsAcceptedUnknownViolations) {
  const std::int64_t a = admit(0, 5, 2, 500, 20, 2500);
  const std::int64_t b = admit(8, 13, 1, 600, 10, 3000);

  Json reports = Json::array();
  for (const auto& [handle, latency] :
       std::vector<std::pair<std::int64_t, double>>{
           {a, 1.0}, {b, 1.0}, {a, 90000.0}, {777, 1.0}}) {
    Json item = Json::object();
    item.set("handle", handle);
    item.set("observed_latency", latency);
    reports.push_back(std::move(item));
  }
  Json r = Json::object();
  r.set("verb", "REPORT");
  r.set("reports", std::move(reports));
  const Json reply = call(r.dump());
  EXPECT_TRUE(reply.get("ok")->as_bool());
  EXPECT_EQ(reply.get("accepted")->as_int(), 3);
  EXPECT_EQ(reply.get("unknown")->as_int(), 1);
  EXPECT_EQ(reply.get("violations")->as_int(), 1);
}

TEST_F(HealthHistoryTest, HostileReportPayloadsComeBackAsErrors) {
  const std::int64_t handle = admit(0, 5, 2, 500, 20, 2500);
  const std::vector<std::string> hostile = {
      R"({"verb":"REPORT"})",                              // nothing
      R"({"verb":"REPORT","handle":0})",                   // no latency
      R"({"verb":"REPORT","handle":0,"observed_latency":"x"})",
      R"({"verb":"REPORT","reports":42})",                 // non-array
      R"({"verb":"REPORT","reports":[17]})",               // non-object
      R"({"verb":"REPORT","reports":[{"handle":0}]})",     // no latency
      R"({"verb":"REPORT","reports":[{"observed_latency":1}]})",
      R"({"verb":"REPORT","handle":"zero","observed_latency":1})",
  };
  for (const std::string& line : hostile) {
    const Json reply = call(line);
    EXPECT_FALSE(reply.get("ok")->as_bool()) << line;
    EXPECT_NE(reply.get("error"), nullptr) << line;
  }
  // Still serving afterwards.
  EXPECT_TRUE(call(report_line(handle, 1.0)).get("ok")->as_bool());
}

TEST_F(HealthHistoryTest, RemovingAStreamPurgesItsConformanceRecord) {
  const std::int64_t handle = admit(0, 5, 2, 500, 20, 2500);
  call(report_line(handle, 1.0));
  EXPECT_EQ(service_.conformance().size(), 1u);

  Json rm = Json::object();
  rm.set("verb", "REMOVE");
  rm.set("handle", handle);
  EXPECT_TRUE(call(rm.dump()).get("ok")->as_bool());

  // The purge happens at scrape time (refresh_mirrors), not in the
  // mutation path — any observability verb triggers it.
  call(R"({"verb":"HEALTH"})");
  EXPECT_EQ(service_.conformance().size(), 0u);
}

// --- HEALTH ----------------------------------------------------------

TEST_F(HealthHistoryTest, HealthyServiceReportsOkWithNoReasons) {
  admit(0, 5, 2, 500, 20, 2500);
  const Json reply = call(R"({"verb":"HEALTH"})");
  EXPECT_TRUE(reply.get("ok")->as_bool());
  EXPECT_EQ(reply.get("status")->as_string(), "ok");
  EXPECT_TRUE(reply.get("reasons")->items().empty());
  EXPECT_EQ(reply.get("checks")->get("population")->as_int(), 1);
  EXPECT_EQ(reply.get("checks")->get("bound_violations")->as_int(), 0);
  EXPECT_EQ(reply.get("checks")->get("faulted_channels")->as_int(), 0);
}

TEST_F(HealthHistoryTest, BoundViolationFlipsHealthToDegraded) {
  const std::int64_t handle = admit(0, 5, 2, 500, 20, 2500);
  call(report_line(handle, 1.0));
  EXPECT_EQ(call(R"({"verb":"HEALTH"})").get("status")->as_string(), "ok");

  call(report_line(handle, 90000.0));
  const Json degraded = call(R"({"verb":"HEALTH"})");
  EXPECT_EQ(degraded.get("status")->as_string(), "degraded");
  ASSERT_FALSE(degraded.get("reasons")->items().empty());
  EXPECT_NE(degraded.get("reasons")->items()[0].as_string().find(
                "bound_violations"),
            std::string::npos);
  EXPECT_EQ(degraded.get("checks")->get("bound_violations")->as_int(), 1);
}

TEST_F(HealthHistoryTest, FaultedLinkDegradesHealthAndRepairRestoresIt) {
  admit(0, 5, 2, 500, 20, 2500);
  EXPECT_TRUE(
      call(R"({"verb":"LINK_DOWN","channel":30})").get("ok")->as_bool());
  const Json degraded = call(R"({"verb":"HEALTH"})");
  EXPECT_EQ(degraded.get("status")->as_string(), "degraded");
  EXPECT_EQ(degraded.get("checks")->get("faulted_channels")->as_int(), 1);

  EXPECT_TRUE(
      call(R"({"verb":"LINK_UP","channel":30})").get("ok")->as_bool());
  EXPECT_EQ(call(R"({"verb":"HEALTH"})").get("status")->as_string(), "ok");
}

TEST_F(HealthHistoryTest, HealthStreamsAreSortedBySlackTightestFirst) {
  // Same shape, increasing period => increasing slack.
  admit(0, 5, 1, 2000, 20, 10000);
  admit(16, 21, 2, 500, 20, 2500);
  admit(32, 37, 3, 1000, 20, 5000);

  const Json reply = call(R"({"verb":"HEALTH"})");
  const Json* streams = reply.get("conformance")->get("streams");
  ASSERT_EQ(streams->items().size(), 3u);
  std::int64_t last_slack = -1;
  for (const Json& s : streams->items()) {
    const std::int64_t slack = s.get("slack")->as_int();
    EXPECT_GE(slack, last_slack);
    last_slack = slack;
    EXPECT_TRUE(s.get("flit_valid")->as_bool());
  }
}

TEST_F(HealthHistoryTest, HealthChannelsReportOccupancyAndUtilization) {
  admit(0, 1, 2, 500, 20, 2500);  // one-hop XY route: exactly 1 channel
  admit(0, 1, 3, 1000, 10, 5000);  // same channel: utilization stacks
  const Json reply = call(R"({"verb":"HEALTH"})");
  const Json* channels = reply.get("channels");
  EXPECT_EQ(channels->get("count")->as_int(),
            static_cast<std::int64_t>(mesh_.num_channels()));
  EXPECT_EQ(channels->get("occupied")->as_int(), 1);
  const Json* busiest = channels->get("busiest");
  ASSERT_EQ(busiest->items().size(), 1u);
  EXPECT_EQ(busiest->items()[0].get("streams")->as_int(), 2);
  EXPECT_DOUBLE_EQ(busiest->items()[0].get("utilization")->as_double(),
                   20.0 / 500.0 + 10.0 / 1000.0);
}

// --- HISTORY ---------------------------------------------------------

TEST_F(HealthHistoryTest, HistoryServesSampledSeries) {
  admit(0, 5, 2, 500, 20, 2500);
  service_.sampler().sample_once();
  service_.sampler().sample_once();

  const Json reply = call(R"({"verb":"HISTORY"})");
  EXPECT_TRUE(reply.get("ok")->as_bool());
  ASSERT_FALSE(reply.get("series")->items().empty());
  bool saw_population = false;
  for (const Json& s : reply.get("series")->items()) {
    if (s.get("name")->as_string() == "population") {
      saw_population = true;
      const auto& samples = s.get("samples")->items();
      ASSERT_EQ(samples.size(), 2u);
      // [t_ms, value] pairs; the admission precedes both samples.
      EXPECT_DOUBLE_EQ(samples[0].items()[1].as_double(), 1.0);
      EXPECT_DOUBLE_EQ(samples[1].items()[1].as_double(), 1.0);
      EXPECT_GE(samples[1].items()[0].as_int(),
                samples[0].items()[0].as_int());
    }
  }
  EXPECT_TRUE(saw_population);
}

TEST_F(HealthHistoryTest, HistoryFiltersBySeriesNameAndWindow) {
  service_.sampler().sample_once();
  const Json filtered =
      call(R"({"verb":"HISTORY","series":["requests_total"]})");
  ASSERT_EQ(filtered.get("series")->items().size(), 1u);
  EXPECT_EQ(filtered.get("series")->items()[0].get("name")->as_string(),
            "requests_total");

  // A zero-width window in the future of all samples returns empty
  // sample lists but still enumerates the series.
  const Json empty = call(R"({"verb":"HISTORY","window_ms":0})");
  for (const Json& s : empty.get("series")->items()) {
    (void)s;  // window_ms:0 => since now_ms: nothing can be newer...
  }
  EXPECT_TRUE(empty.get("ok")->as_bool());
  EXPECT_GE(empty.get("now_ms")->as_int(), 0);
}

TEST_F(HealthHistoryTest, SamplerReadsTheFsyncHistogramOnlyWithAJournal) {
  // Without a journal the fsync_p99_us series reads 0 and registers
  // nothing: no fsync can ever land in the histogram.
  service_.sampler().sample_once();
  EXPECT_EQ(service_.prometheus_text().find("wormrt_journal_fsync_us"),
            std::string::npos);
  const Json history =
      call(R"({"verb":"HISTORY","series":["fsync_p99_us"]})");
  ASSERT_EQ(history.get("series")->items().size(), 1u);
  const auto& samples =
      history.get("series")->items()[0].get("samples")->items();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].items()[1].as_double(), 0.0);

  // A journaled service still exposes it.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("wormrt-sampler-fsync-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  topo::Mesh mesh(8, 8);
  svc::ServiceOptions options;
  options.state_dir = dir;
  svc::Service journaled(mesh, routing_, {}, options);
  std::string error;
  ASSERT_TRUE(journaled.open_state(&error)) << error;
  journaled.sampler().sample_once();
  EXPECT_NE(journaled.prometheus_text().find("wormrt_journal_fsync_us"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(HealthHistoryTest, HostileHistoryPayloadsComeBackAsErrors) {
  const std::vector<std::string> hostile = {
      R"({"verb":"HISTORY","series":"population"})",  // non-array filter
      R"({"verb":"HISTORY","window_ms":-5})",         // negative window
      R"({"verb":"HISTORY","window_ms":"soon"})",     // non-numeric
  };
  for (const std::string& line : hostile) {
    const Json reply = call(line);
    EXPECT_FALSE(reply.get("ok")->as_bool()) << line;
  }
  EXPECT_TRUE(call(R"({"verb":"HISTORY"})").get("ok")->as_bool());
}

// --- METRICS: the JSON block and the Prometheus text agree ------------

TEST_F(HealthHistoryTest, MetricsBlockAndTextAgreeOnEveryServiceCounter) {
  // A mixed workload: two admissions, one REPORT, one of each read verb
  // and one unknown verb.
  const std::int64_t handle = admit(0, 5, 2, 500, 20, 2500);
  admit(8, 13, 1, 600, 10, 3000);
  call(report_line(handle, 1.0));
  call(R"({"verb":"QUERY","handle":0})");
  call(R"({"verb":"HEALTH"})");
  call(R"({"verb":"HISTORY"})");
  call(R"({"verb":"SNAPSHOT"})");
  call(R"({"verb":"nonsense"})");

  const Json metrics = call(R"({"verb":"METRICS"})");
  ASSERT_TRUE(metrics.get("ok")->as_bool());
  const std::string text = metrics.get("prometheus")->as_string();
  // The sample line "name{key="value"} N" (or "name N") of the text.
  const auto text_value = [&text](const std::string& name,
                                  const std::string& key,
                                  const std::string& value) {
    const std::string series =
        key.empty() ? name + " " : name + "{" + key + "=\"" + value + "\"} ";
    const std::size_t at = text.find("\n" + series);
    return at == std::string::npos
               ? std::int64_t{-1}
               : std::stoll(text.substr(at + 1 + series.size()));
  };

  // METRICS counts itself before it renders.
  const std::vector<std::pair<std::string, std::int64_t>> verbs = {
      {"REQUEST", 2}, {"REMOVE", 0},  {"QUERY", 1},     {"EXPLAIN", 0},
      {"SNAPSHOT", 1}, {"METRICS", 1}, {"REPORT", 1},   {"HEALTH", 1},
      {"HISTORY", 1}, {"LINK_DOWN", 0}, {"LINK_UP", 0}};
  for (const auto& [verb, want] : verbs) {
    EXPECT_EQ(svc::testing::verb_count(metrics, verb), want) << verb;
    EXPECT_EQ(text_value("wormrt_requests_total", "verb", verb), want)
        << verb;
  }
  const std::vector<std::tuple<std::string, std::string, std::string,
                               std::int64_t>>
      counters = {
          {"wormrt_admission_decisions_total", "decision", "admitted", 2},
          {"wormrt_admission_decisions_total", "decision", "rejected", 0},
          {"wormrt_errors_total", "", "", 1},
          {"wormrt_population", "", "", 2},
          {"wormrt_link_streams_total", "outcome", "evicted", 0},
          {"wormrt_link_streams_total", "outcome", "rerouted", 0},
      };
  for (const auto& [name, key, value, want] : counters) {
    EXPECT_EQ(svc::testing::metric_count(metrics, name, key, value), want)
        << name << " " << value;
    EXPECT_EQ(text_value(name, key, value), want) << name << " " << value;
  }

  // One latency sample per REQUEST, in both renderings.
  EXPECT_EQ(svc::testing::metric_count(metrics, "wormrt_admission_latency_us",
                                       "", "", "count"),
            2);
  EXPECT_EQ(text_value("wormrt_admission_latency_us_count", "", ""), 2);
}

// --- audit log -------------------------------------------------------

std::vector<Json> read_jsonl(const std::string& path) {
  std::vector<Json> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::string error;
    Json parsed = Json::parse(line, &error);
    EXPECT_TRUE(error.empty()) << error << " in: " << line;
    out.push_back(std::move(parsed));
  }
  return out;
}

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::snprintf(path_, sizeof path_, "/tmp/wormrt-audit-%d.jsonl",
                  static_cast<int>(::getpid()));
    ::unlink(path_);
  }
  void TearDown() override {
    ::unlink(path_);
    ::unlink((std::string(path_) + ".1").c_str());
  }

  char path_[128];
};

TEST_F(AuditTest, EveryDecisionRemovalAndLinkMutationIsRecorded) {
  topo::Mesh mesh(8, 8);
  route::XYRouting routing;
  svc::ServiceOptions options;
  options.audit_path = path_;
  svc::Service service(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(service.open_state(&error)) << error;

  const auto call = [&](const std::string& line) {
    std::string parse_error;
    Json reply = Json::parse(service.handle_line(line), &parse_error);
    EXPECT_TRUE(parse_error.empty()) << parse_error;
    return reply;
  };

  // Admission, rejection (unroutable after fault), removal, link verbs.
  const Json admitted = call(
      R"({"verb":"REQUEST","src":0,"dst":5,"priority":2,"period":500,)"
      R"("length":20,"deadline":2500,"explain":true})");
  ASSERT_TRUE(admitted.get("admitted")->as_bool());
  const std::int64_t handle = admitted.get("handle")->as_int();
  call(R"({"verb":"LINK_DOWN","channel":30})");
  call(R"({"verb":"LINK_UP","channel":30})");
  Json rm = Json::object();
  rm.set("verb", "REMOVE");
  rm.set("handle", handle);
  call(rm.dump());
  // A rejected request (deadline impossible) is audited too — the
  // journal never sees rejections, the audit log must.
  const Json rejected = call(
      R"({"verb":"REQUEST","src":0,"dst":5,"priority":2,"period":500,)"
      R"("length":20,"deadline":1})");
  ASSERT_TRUE(rejected.get("ok")->as_bool());
  ASSERT_FALSE(rejected.get("admitted")->as_bool());

  ASSERT_NE(service.audit(), nullptr);
  service.audit()->flush();
  const std::vector<Json> records = read_jsonl(path_);
  ASSERT_EQ(records.size(), 5u);

  EXPECT_EQ(records[0].get("event")->as_string(), "request");
  EXPECT_TRUE(records[0].get("admitted")->as_bool());
  EXPECT_EQ(records[0].get("handle")->as_int(), handle);
  EXPECT_EQ(records[0].get("src")->as_int(), 0);
  EXPECT_EQ(records[0].get("dst")->as_int(), 5);
  EXPECT_NE(records[0].get("bound"), nullptr);
  EXPECT_NE(records[0].get("route_order"), nullptr);
  EXPECT_NE(records[0].get("explain"), nullptr)
      << "explain:true must attach provenance to the audit record";

  EXPECT_EQ(records[1].get("event")->as_string(), "link_down");
  EXPECT_EQ(records[1].get("channel")->as_int(), 30);
  EXPECT_EQ(records[2].get("event")->as_string(), "link_up");
  EXPECT_EQ(records[3].get("event")->as_string(), "remove");
  EXPECT_EQ(records[3].get("handle")->as_int(), handle);
  EXPECT_EQ(records[4].get("event")->as_string(), "request");
  EXPECT_FALSE(records[4].get("admitted")->as_bool());

  // Sequence numbers are dense and ordered; timestamps present.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].get("seq")->as_int(),
              static_cast<std::int64_t>(i));
    EXPECT_GT(records[i].get("ts_ms")->as_int(), 0);
  }
}

TEST_F(AuditTest, RecordLayoutFollowsTheReply) {
  // Every audited event's keys, in order, and the decision fields equal
  // to the reply the client saw.
  const std::string state_dir = std::string(path_) + ".state";
  std::filesystem::remove_all(state_dir);
  topo::Mesh mesh(8, 8);
  route::XYRouting routing;
  svc::ServiceOptions options;
  options.audit_path = path_;
  options.state_dir = state_dir;
  svc::Service service(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(service.open_state(&error)) << error;
  const auto call = [&](const std::string& line) {
    std::string parse_error;
    Json reply = Json::parse(service.handle_line(line), &parse_error);
    EXPECT_TRUE(parse_error.empty()) << parse_error;
    return reply;
  };

  // A tight low-priority stream along row 0, then a higher-priority
  // newcomer on the same channels that would break it.
  const Json admitted = call(
      R"({"verb":"REQUEST","src":0,"dst":3,"priority":1,"period":100,)"
      R"("length":20,"deadline":30,"explain":true})");
  ASSERT_TRUE(admitted.get("admitted")->as_bool());
  const Json breaking = call(
      R"({"verb":"REQUEST","src":0,"dst":3,"priority":2,"period":100,)"
      R"("length":20,"deadline":200})");
  ASSERT_FALSE(breaking.get("admitted")->as_bool());
  ASSERT_FALSE(breaking.get("would_break")->items().empty());
  const std::int64_t channel = mesh.channel_between(8, 9);
  call(R"({"verb":"LINK_DOWN","src":8,"dst":9})");
  const Json unroutable = call(
      R"({"verb":"REQUEST","src":8,"dst":9,"priority":1,"period":100,)"
      R"("length":2,"deadline":100})");
  ASSERT_TRUE(unroutable.get("no_route")->as_bool());
  Json rm = Json::object();
  rm.set("verb", "REMOVE");
  rm.set("handle", admitted.get("handle")->as_int());
  call(rm.dump());

  service.audit()->flush();
  const std::vector<Json> records = read_jsonl(path_);
  ASSERT_EQ(records.size(), 5u);
  const auto keys_of = [](const Json& record) {
    std::vector<std::string> keys;
    for (const auto& member : record.members()) {
      keys.push_back(member.first);
    }
    return keys;
  };
  using Keys = std::vector<std::string>;
  EXPECT_EQ(keys_of(records[0]),
            (Keys{"event", "admitted", "src", "dst", "priority", "period",
                  "length", "deadline", "bound", "flit_valid", "handle",
                  "route_order", "explain", "lsn", "durable", "seq",
                  "ts_ms"}));
  EXPECT_EQ(keys_of(records[1]),
            (Keys{"event", "admitted", "src", "dst", "priority", "period",
                  "length", "deadline", "bound", "flit_valid", "would_break",
                  "seq", "ts_ms"}));
  EXPECT_EQ(keys_of(records[2]),
            (Keys{"event", "channel", "src", "dst", "evicted", "rerouted",
                  "recomputed", "lsn", "durable", "seq", "ts_ms"}));
  EXPECT_EQ(keys_of(records[3]),
            (Keys{"event", "admitted", "src", "dst", "priority", "period",
                  "length", "deadline", "bound", "flit_valid", "no_route",
                  "seq", "ts_ms"}));
  EXPECT_EQ(keys_of(records[4]),
            (Keys{"event", "handle", "lsn", "durable", "seq", "ts_ms"}));

  for (const char* key : {"bound", "flit_valid", "handle", "route_order",
                          "explain"}) {
    EXPECT_EQ(records[0].get(key)->dump(), admitted.get(key)->dump()) << key;
  }
  EXPECT_EQ(records[1].get("would_break")->dump(),
            breaking.get("would_break")->dump());
  EXPECT_EQ(records[2].get("channel")->as_int(), channel);
  EXPECT_EQ(records[3].get("bound")->dump(), unroutable.get("bound")->dump());
  std::filesystem::remove_all(state_dir);
}

TEST_F(AuditTest, RotationCapsTheLogAndKeepsOneGeneration) {
  topo::Mesh mesh(8, 8);
  route::XYRouting routing;
  svc::ServiceOptions options;
  options.audit_path = path_;
  options.audit_max_bytes = 2048;  // force several rotations
  svc::Service service(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(service.open_state(&error)) << error;

  for (int i = 0; i < 100; ++i) {
    Json r = Json::object();
    r.set("verb", "REQUEST");
    r.set("src", std::int64_t{0});
    r.set("dst", std::int64_t{5});
    r.set("priority", std::int64_t{2});
    r.set("period", Time{500});
    r.set("length", Time{20});
    r.set("deadline", Time{2500});
    const std::string reply = service.handle_line(r.dump());
    Json parsed = Json::parse(reply, &error);
    if (parsed.get("admitted")->as_bool()) {
      Json rm = Json::object();
      rm.set("verb", "REMOVE");
      rm.set("handle", parsed.get("handle")->as_int());
      service.handle_line(rm.dump());
    }
  }
  ASSERT_NE(service.audit(), nullptr);
  service.audit()->flush();
  EXPECT_GT(service.audit()->rotations(), 0u);
  EXPECT_EQ(service.audit()->failures(), 0u);

  // Both generations parse line by line; the live file respects the cap
  // within one record's slop.
  struct stat st {};
  ASSERT_EQ(::stat(path_, &st), 0);
  EXPECT_LE(st.st_size, 4096);
  const std::vector<Json> live = read_jsonl(path_);
  const std::vector<Json> rotated = read_jsonl(std::string(path_) + ".1");
  EXPECT_FALSE(live.empty());
  EXPECT_FALSE(rotated.empty());
  // The rotated generation ends exactly where the live one begins.
  EXPECT_EQ(rotated.back().get("seq")->as_int() + 1,
            live.front().get("seq")->as_int());
}

}  // namespace
}  // namespace wormrt
