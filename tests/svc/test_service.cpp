// The wormrtd protocol layer: JSON round-trips, Service verb dispatch
// against an in-process replay controller, and the Server/Client socket
// transport end to end over a real Unix-domain socket.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "core/stream_io.hpp"
#include "metrics_reply.hpp"
#include "route/dor.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/mesh.hpp"
#include "util/rng.hpp"

namespace wormrt {
namespace {

using svc::Json;
using svc::testing::metric_child;
using svc::testing::metric_count;
using svc::testing::verb_count;

TEST(Json, RoundTripsScalarsArraysAndObjects) {
  Json obj = Json::object();
  obj.set("verb", "REQUEST");
  obj.set("n", std::int64_t{42});
  obj.set("big", std::int64_t{1} << 60);
  obj.set("neg", std::int64_t{-7});
  obj.set("pi", 3.5);
  obj.set("yes", true);
  obj.set("no", false);
  obj.set("nothing", nullptr);
  Json arr = Json::array();
  arr.push_back(std::int64_t{1});
  arr.push_back("two");
  obj.set("list", std::move(arr));

  std::string error;
  const Json back = Json::parse(obj.dump(), &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_TRUE(back.is_object());
  EXPECT_EQ(back.get("verb")->as_string(), "REQUEST");
  EXPECT_EQ(back.get("n")->as_int(), 42);
  EXPECT_EQ(back.get("big")->as_int(), std::int64_t{1} << 60);
  EXPECT_EQ(back.get("neg")->as_int(), -7);
  EXPECT_DOUBLE_EQ(back.get("pi")->as_double(), 3.5);
  EXPECT_TRUE(back.get("yes")->as_bool());
  EXPECT_FALSE(back.get("no")->as_bool());
  EXPECT_TRUE(back.get("nothing")->is_null());
  ASSERT_TRUE(back.get("list")->is_array());
  EXPECT_EQ(back.get("list")->items()[0].as_int(), 1);
  EXPECT_EQ(back.get("list")->items()[1].as_string(), "two");
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  Json obj = Json::object();
  obj.set("s", std::string("a\"b\\c\nd\te\x01f"));
  const std::string text = obj.dump();
  std::string error;
  const Json back = Json::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error << " in " << text;
  EXPECT_EQ(back.get("s")->as_string(), "a\"b\\c\nd\te\x01f");
}

TEST(Json, ParsesEscapesAndUnicode) {
  std::string error;
  const Json v = Json::parse(R"({"s":"Aé€\/"})", &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(v.get("s")->as_string(), "A\xC3\xA9\xE2\x82\xAC/");
}

TEST(Json, RejectsMalformedInput) {
  const char* bad[] = {
      "",        "{",        "[1,",      "{\"a\":}",  "tru",
      "1 2",     "\"open",   "{\"a\" 1}", "[1,]",     "nope",
  };
  for (const char* text : bad) {
    std::string error;
    Json::parse(text, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << text;
  }
}

TEST(Json, NumbersStayInt64Exact) {
  std::string error;
  const Json v = Json::parse("{\"h\":1152921504606846975}", &error);
  EXPECT_TRUE(error.empty());
  EXPECT_TRUE(v.get("h")->is_int());
  EXPECT_EQ(v.get("h")->as_int(), 1152921504606846975LL);
}

TEST(Json, ParsesInt64Boundaries) {
  std::string error;
  const Json lo = Json::parse("-9223372036854775808", &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_TRUE(lo.is_int());
  EXPECT_EQ(lo.as_int(), std::numeric_limits<std::int64_t>::min());

  const Json hi = Json::parse("9223372036854775807", &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_TRUE(hi.is_int());
  EXPECT_EQ(hi.as_int(), std::numeric_limits<std::int64_t>::max());
}

TEST(Json, RejectsIntegerOverflowAndTrailingGarbage) {
  // strtoll used to saturate these to INT64_MIN/MAX and accept "12abc"
  // up to the first bad character — a handle forged as 2^63 would have
  // aliased a real one.  from_chars makes both hard parse errors.
  const char* bad[] = {
      "9223372036854775808",          // INT64_MAX + 1
      "-9223372036854775809",         // INT64_MIN - 1
      "99999999999999999999999999",   // way out of range
      "{\"h\":9223372036854775808}",  // nested in an object
      "12abc",                        // trailing garbage
      "1e",                           // truncated exponent
      "--5",                          // double sign
  };
  for (const char* text : bad) {
    std::string error;
    Json::parse(text, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << text;
  }
}

TEST(Json, CapsContainerNesting) {
  // The parser is recursive descent; without a depth cap one line of
  // 10^5 '[' bytes would overflow the stack (uncatchable daemon death).
  std::string shallow = std::string(10, '[') + std::string(10, ']');
  std::string error;
  Json::parse(shallow, &error);
  EXPECT_TRUE(error.empty()) << error;

  std::string deep = std::string(100000, '[');
  Json::parse(deep, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(Json, AsIntReadsADoubleOutsideInt64AsTheFallback) {
  // Casting such a double to int64 is undefined behaviour, and GCC's
  // -fsanitize=undefined does not check that cast.
  EXPECT_EQ(Json(1e300).as_int(7), 7);
  EXPECT_EQ(Json(-1e300).as_int(7), 7);
  EXPECT_EQ(Json(9223372036854775808.0).as_int(7), 7);  // 2^63
  EXPECT_EQ(Json(-9223372036854775808.0).as_int(7),
            std::numeric_limits<std::int64_t>::min());  // -2^63 fits
  EXPECT_EQ(Json(50.7).as_int(), 50);
  EXPECT_EQ(Json(-50.7).as_int(), -50);
}

/// Drives the Service and an in-process AdmissionController with the
/// same operations; decisions and bounds must agree exactly.
class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : mesh_(8, 8), service_(mesh_, routing_), replay_(mesh_, routing_) {}

  Json call(const std::string& line) {
    std::string error;
    Json reply = Json::parse(service_.handle_line(line), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_TRUE(reply.is_object());
    return reply;
  }

  static std::string request_line(int src, int dst, int priority, Time period,
                                  Time length, Time deadline) {
    Json r = Json::object();
    r.set("verb", "REQUEST");
    r.set("src", std::int64_t{src});
    r.set("dst", std::int64_t{dst});
    r.set("priority", std::int64_t{priority});
    r.set("period", period);
    r.set("length", length);
    r.set("deadline", deadline);
    return r.dump();
  }

  topo::Mesh mesh_;
  route::XYRouting routing_;
  svc::Service service_;
  core::AdmissionController replay_;
};

TEST_F(ServiceTest, RequestQueryRemoveMatchInProcessController) {
  util::Rng rng(20260806);
  std::vector<core::AdmissionController::Handle> live;
  for (int step = 0; step < 120; ++step) {
    if (!live.empty() && rng.bernoulli(0.3)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const auto handle = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      Json r = Json::object();
      r.set("verb", "REMOVE");
      r.set("handle", handle);
      const Json reply = call(r.dump());
      EXPECT_TRUE(reply.get("ok")->as_bool());
      EXPECT_TRUE(reply.get("removed")->as_bool());
      EXPECT_TRUE(replay_.remove(handle));
      continue;
    }
    const int src = static_cast<int>(rng.uniform_int(0, 63));
    int dst = static_cast<int>(rng.uniform_int(0, 63));
    if (dst == src) {
      dst = (dst + 1) % 64;
    }
    const int priority = static_cast<int>(rng.uniform_int(1, 4));
    const Time period = rng.uniform_int(40, 89);
    const Time length = rng.uniform_int(1, 18);
    const Time deadline = rng.uniform_int(40, 339);

    const Json reply =
        call(request_line(src, dst, priority, period, length, deadline));
    const auto expect = replay_.request(src, dst, priority, period, length,
                                        deadline);
    ASSERT_TRUE(reply.get("ok")->as_bool());
    EXPECT_EQ(reply.get("admitted")->as_bool(), expect.admitted);
    EXPECT_EQ(reply.get("bound")->as_int(), expect.bound);
    ASSERT_EQ(reply.get("would_break")->items().size(),
              expect.would_break.size());
    for (std::size_t i = 0; i < expect.would_break.size(); ++i) {
      EXPECT_EQ(reply.get("would_break")->items()[i].as_int(),
                expect.would_break[i]);
    }
    if (expect.admitted) {
      EXPECT_EQ(reply.get("handle")->as_int(), expect.handle);
      live.push_back(expect.handle);

      Json q = Json::object();
      q.set("verb", "QUERY");
      q.set("handle", expect.handle);
      const Json qr = call(q.dump());
      EXPECT_TRUE(qr.get("ok")->as_bool());
      EXPECT_EQ(qr.get("bound")->as_int(), expect.bound);
      EXPECT_EQ(qr.get("deadline")->as_int(), deadline);
      EXPECT_TRUE(qr.get("guaranteed")->as_bool());
    }
  }
  EXPECT_EQ(service_.population(), replay_.size());
}

TEST_F(ServiceTest, SnapshotMatchesReplaySnapshot) {
  call(request_line(0, 5, 2, 50, 20, 250));
  call(request_line(8, 13, 1, 60, 10, 300));
  replay_.request(0, 5, 2, 50, 20, 250);
  replay_.request(8, 13, 1, 60, 10, 300);

  const Json reply = call(R"({"verb":"SNAPSHOT"})");
  EXPECT_TRUE(reply.get("ok")->as_bool());
  EXPECT_EQ(reply.get("size")->as_int(), 2);
  EXPECT_EQ(reply.get("csv")->as_string(),
            core::streams_to_csv(replay_.snapshot()));
}

TEST_F(ServiceTest, ValidationAndErrorPaths) {
  EXPECT_FALSE(call("this is not json").get("ok")->as_bool());
  EXPECT_FALSE(call("[1,2,3]").get("ok")->as_bool());
  EXPECT_FALSE(call(R"({"no_verb":1})").get("ok")->as_bool());
  EXPECT_FALSE(call(R"({"verb":"FROBNICATE"})").get("ok")->as_bool());
  EXPECT_FALSE(call(R"({"verb":"REQUEST","src":0})").get("ok")->as_bool());
  EXPECT_FALSE(call(request_line(0, 999, 1, 50, 10, 100)).get("ok")->as_bool());
  EXPECT_FALSE(call(request_line(3, 3, 1, 50, 10, 100)).get("ok")->as_bool());
  EXPECT_FALSE(call(request_line(0, 5, 1, -2, 10, 100)).get("ok")->as_bool());
  EXPECT_FALSE(call(R"({"verb":"REMOVE"})").get("ok")->as_bool());
  EXPECT_FALSE(call(R"({"verb":"QUERY","handle":99})").get("ok")->as_bool());

  const Json removed = call(R"({"verb":"REMOVE","handle":12345})");
  EXPECT_TRUE(removed.get("ok")->as_bool());
  EXPECT_FALSE(removed.get("removed")->as_bool());

  const Json metrics = call(R"({"verb":"METRICS"})");
  EXPECT_TRUE(metrics.get("ok")->as_bool());
  EXPECT_GE(metric_count(metrics, "wormrt_errors_total"), 9);
}

TEST_F(ServiceTest, HostileLinesNeverEscapeAsExceptions) {
  // handle_line runs on pool workers; an escaping exception would kill
  // the daemon.  Every hostile line must come back as one ok:false line.
  std::vector<std::string> lines = {
      "",                                  // empty line
      "{",                                 // truncated JSON
      R"({"verb":"REQUEST","src":)",       // truncated mid-value
      std::string(1, '\0'),                // NUL
      "\x01\x02\xff\xfe binary noise",     // binary garbage
      R"({"verb":"REQUEST","src":9223372036854775808})",  // overflow
      std::string(1 << 16, 'x'),           // oversized junk
      R"({"verb":"REPORT","handle":true,"observed_latency":[]})",
      R"({"verb":"REPORT","reports":[{"handle":1e400}]})",  // inf handle
      R"({"verb":"HISTORY","window_ms":-9223372036854775807})",
      R"({"verb":"HISTORY","series":{"a":1}})",
  };
  std::string deep(2000, '[');             // parser recursion stress
  deep += std::string(2000, ']');
  lines.push_back(deep);
  for (const std::string& line : lines) {
    std::string reply;
    ASSERT_NO_THROW(reply = service_.handle_line(line));
    std::string error;
    const Json parsed = Json::parse(reply, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(parsed.is_object());
    EXPECT_FALSE(parsed.get("ok")->as_bool());
    EXPECT_NE(parsed.get("error"), nullptr);
  }
  // The service still works afterwards.
  EXPECT_TRUE(call(request_line(0, 5, 1, 50, 10, 250)).get("ok")->as_bool());
}

TEST_F(ServiceTest, ShutdownVerbRaisesTheFlag) {
  EXPECT_FALSE(service_.shutdown_requested());
  const Json reply = call(R"({"verb":"SHUTDOWN"})");
  EXPECT_TRUE(reply.get("ok")->as_bool());
  EXPECT_TRUE(service_.shutdown_requested());
}

TEST_F(ServiceTest, StatsCountLatencySamplesPerRequest) {
  call(request_line(0, 5, 2, 50, 20, 250));
  call(request_line(16, 21, 1, 60, 10, 300));
  const Json metrics = call(R"({"verb":"METRICS"})");
  const Json* latency = metric_child(metrics, "wormrt_admission_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->get("count")->as_int(), 2);
  EXPECT_GT(latency->get("p99")->as_double(), 0.0);
}

TEST_F(ServiceTest, MetricsVerbReturnsPrometheusTextAndJson) {
  call(request_line(0, 5, 2, 50, 20, 250));
  call(R"({"verb":"QUERY","handle":0})");
  const Json reply = call(R"({"verb":"METRICS"})");
  ASSERT_TRUE(reply.get("ok")->as_bool());

  const std::string prom = reply.get("prometheus")->as_string();
  EXPECT_NE(prom.find("# TYPE wormrt_requests_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("wormrt_requests_total{verb=\"REQUEST\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("wormrt_requests_total{verb=\"QUERY\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("wormrt_admission_latency_us_count 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("wormrt_population 1"), std::string::npos) << prom;

  const Json* metrics = reply.get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  ASSERT_TRUE(metrics->get("metrics")->is_array());
  EXPECT_FALSE(metrics->get("metrics")->items().empty());
}

TEST_F(ServiceTest, ExplainVerbDecomposesTheCachedBound) {
  const Json admitted = call(request_line(0, 5, 2, 50, 20, 250));
  ASSERT_TRUE(admitted.get("admitted")->as_bool());
  const std::int64_t handle = admitted.get("handle")->as_int();

  Json q = Json::object();
  q.set("verb", "QUERY");
  q.set("handle", handle);
  const Json query = call(q.dump());

  Json e = Json::object();
  e.set("verb", "EXPLAIN");
  e.set("handle", handle);
  const Json explain = call(e.dump());
  ASSERT_TRUE(explain.get("ok")->as_bool());
  EXPECT_EQ(explain.get("handle")->as_int(), handle);
  // The provenance's bound is the cached bound QUERY serves.
  EXPECT_EQ(explain.get("bound")->as_int(), query.get("bound")->as_int());
  // And it decomposes exactly.
  EXPECT_EQ(explain.get("base_latency")->as_int() +
                explain.get("interference")->as_int(),
            explain.get("bound")->as_int());
  ASSERT_TRUE(explain.get("terms")->is_array());
  EXPECT_FALSE(explain.get("text")->as_string().empty());
  EXPECT_NE(explain.get("text")->as_string().find("U(stream"),
            std::string::npos);

  EXPECT_FALSE(call(R"({"verb":"EXPLAIN","handle":9999})")
                   .get("ok")
                   ->as_bool());
  EXPECT_FALSE(call(R"({"verb":"EXPLAIN"})").get("ok")->as_bool());
}

TEST_F(ServiceTest, RequestWithExplainAttachesProvenance) {
  Json r = Json::object();
  r.set("verb", "REQUEST");
  r.set("src", std::int64_t{0});
  r.set("dst", std::int64_t{5});
  r.set("priority", std::int64_t{2});
  r.set("period", std::int64_t{50});
  r.set("length", std::int64_t{20});
  r.set("deadline", std::int64_t{250});
  r.set("explain", true);
  const Json reply = call(r.dump());
  ASSERT_TRUE(reply.get("ok")->as_bool());
  const Json* prov = reply.get("explain");
  ASSERT_NE(prov, nullptr);
  EXPECT_EQ(prov->get("bound")->as_int(), reply.get("bound")->as_int());
  EXPECT_EQ(prov->get("base_latency")->as_int() +
                prov->get("interference")->as_int(),
            prov->get("bound")->as_int());

  // Without the flag the reply carries no provenance (wire compat).
  const Json plain = call(request_line(8, 13, 1, 60, 10, 300));
  EXPECT_EQ(plain.get("explain"), nullptr);
}

TEST_F(ServiceTest, ExplainedRequestListsEveryBrokenGuarantee) {
  // Every REQUEST on the wire carries "explain":true.  Its decision must
  // be the plain in-process request's, and its would_break the full list
  // of the same request explained in process (on a copy, so the replay
  // itself stays plain); the plain list is that list's first element.
  const auto handles = [](const Json& list) {
    std::vector<core::AdmissionController::Handle> out;
    for (const Json& item : list.items()) {
      out.push_back(item.as_int());
    }
    return out;
  };
  util::Rng rng(20261019);
  std::vector<core::AdmissionController::Handle> live;
  int several_broken = 0;
  for (int step = 0; step < 150; ++step) {
    if (!live.empty() && rng.bernoulli(0.25)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      Json r = Json::object();
      r.set("verb", "REMOVE");
      r.set("handle", live[pick]);
      EXPECT_TRUE(call(r.dump()).get("removed")->as_bool());
      EXPECT_TRUE(replay_.remove(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    const int src = static_cast<int>(rng.uniform_int(0, 63));
    int dst = static_cast<int>(rng.uniform_int(0, 62));
    if (dst >= src) {
      ++dst;
    }
    const int priority = static_cast<int>(rng.uniform_int(0, 3));
    const Time period = rng.uniform_int(60, 200);
    const Time length = rng.uniform_int(1, 30);
    const Time deadline =
        rng.bernoulli(0.3) ? rng.uniform_int(period / 3, period) : period;

    std::string error;
    Json r = Json::parse(
        request_line(src, dst, priority, period, length, deadline), &error);
    r.set("explain", true);
    const Json reply = call(r.dump());
    core::AdmissionController copy = replay_;
    core::BoundProvenance provenance;
    const auto explained = copy.request(src, dst, priority, period, length,
                                        deadline, &provenance);
    const auto plain =
        replay_.request(src, dst, priority, period, length, deadline);

    ASSERT_TRUE(reply.get("ok")->as_bool()) << "step " << step;
    EXPECT_EQ(reply.get("admitted")->as_bool(), plain.admitted)
        << "step " << step;
    EXPECT_EQ(reply.get("bound")->as_int(), plain.bound) << "step " << step;
    EXPECT_EQ(handles(*reply.get("would_break")), explained.would_break)
        << "step " << step;
    EXPECT_TRUE(plain.would_break.empty() ||
                (!explained.would_break.empty() &&
                 plain.would_break ==
                     std::vector<core::AdmissionController::Handle>{
                         explained.would_break.front()}))
        << "step " << step;
    several_broken += explained.would_break.size() > 1 ? 1 : 0;
    if (plain.admitted) {
      EXPECT_EQ(reply.get("handle")->as_int(), plain.handle)
          << "step " << step;
      live.push_back(plain.handle);
    }
  }
  EXPECT_GT(several_broken, 0);
  EXPECT_EQ(service_.population(), replay_.size());
}

TEST_F(ServiceTest, StatsCountsExplainsAndCacheHits) {
  const Json admitted = call(request_line(0, 5, 2, 50, 20, 250));
  Json e = Json::object();
  e.set("verb", "EXPLAIN");
  e.set("handle", admitted.get("handle")->as_int());
  call(e.dump());
  const Json metrics = call(R"({"verb":"METRICS"})");
  EXPECT_EQ(verb_count(metrics, "EXPLAIN"), 1);
  EXPECT_GE(metric_count(metrics, "wormrt_engine_bound_cache_hits_total"), 0);
}

TEST_F(ServiceTest, BatchVerbDispatchesSubRequestsInOrder) {
  // One BATCH line carrying a mixed bag of sub-requests; the replies
  // array answers them in order, and each sub-reply matches what the
  // serial verb would have said.
  Json batch = Json::object();
  batch.set("verb", "BATCH");
  Json requests = Json::array();
  std::string parse_error;
  requests.push_back(
      Json::parse(request_line(0, 5, 2, 50, 20, 250), &parse_error));
  requests.push_back(
      Json::parse(request_line(8, 13, 1, 60, 10, 300), &parse_error));
  Json query = Json::object();
  query.set("verb", "QUERY");
  query.set("handle", std::int64_t{0});  // the batch's first admission
  requests.push_back(std::move(query));
  Json bogus = Json::object();
  bogus.set("verb", "FROBNICATE");
  requests.push_back(std::move(bogus));
  batch.set("requests", std::move(requests));

  const Json reply = call(batch.dump());
  ASSERT_TRUE(reply.get("ok")->as_bool()) << batch.dump();
  const auto& replies = reply.get("replies")->items();
  ASSERT_EQ(replies.size(), 4u);

  const auto first = replay_.request(0, 5, 2, 50, 20, 250);
  const auto second = replay_.request(8, 13, 1, 60, 10, 300);
  EXPECT_TRUE(replies[0].get("admitted")->as_bool());
  EXPECT_EQ(replies[0].get("handle")->as_int(), first.handle);
  EXPECT_EQ(replies[0].get("bound")->as_int(), first.bound);
  EXPECT_TRUE(replies[1].get("admitted")->as_bool());
  EXPECT_EQ(replies[1].get("handle")->as_int(), second.handle);
  EXPECT_EQ(replies[1].get("bound")->as_int(), second.bound);
  // The QUERY inside the batch sees the admission made two slots
  // earlier in the same batch (handle 0: the first admission).
  EXPECT_TRUE(replies[2].get("ok")->as_bool());
  EXPECT_EQ(replies[2].get("bound")->as_int(), first.bound);
  // A failing sub-request fails alone; the batch itself is still ok.
  EXPECT_FALSE(replies[3].get("ok")->as_bool());

  // METRICS counts the sub-verbs, not the envelope.
  const Json metrics = call(R"({"verb":"METRICS"})");
  EXPECT_EQ(verb_count(metrics, "REQUEST"), 2);
  EXPECT_EQ(metric_count(metrics, "wormrt_admission_decisions_total",
                         "decision", "admitted"),
            2);
  EXPECT_EQ(metric_count(metrics, "wormrt_population"), 2);
}

TEST_F(ServiceTest, BatchVerbRejectsAbuse) {
  // No requests array.
  EXPECT_FALSE(call(R"({"verb":"BATCH"})").get("ok")->as_bool());
  EXPECT_FALSE(call(R"({"verb":"BATCH","requests":3})").get("ok")->as_bool());

  // Nested BATCH is refused (it could recurse without bound).
  const Json nested = call(
      R"({"verb":"BATCH","requests":[{"verb":"BATCH","requests":[]}]})");
  ASSERT_TRUE(nested.get("ok")->as_bool());
  const auto& replies = nested.get("replies")->items();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].get("ok")->as_bool());
  EXPECT_NE(replies[0].get("error")->as_string().find("nest"),
            std::string::npos);

  // Oversized batches are refused outright.
  Json big = Json::object();
  big.set("verb", "BATCH");
  Json many = Json::array();
  for (int i = 0; i < 4097; ++i) {
    Json metrics = Json::object();
    metrics.set("verb", "METRICS");
    many.push_back(std::move(metrics));
  }
  big.set("requests", std::move(many));
  const Json refused = call(big.dump());
  EXPECT_FALSE(refused.get("ok")->as_bool());
  EXPECT_NE(refused.get("error")->as_string().find("BATCH too large"),
            std::string::npos);
}

TEST_F(ServiceTest, IntegerFieldsAcceptOnlyJsonIntegers) {
  // DESIGN.md §7.2 promises int64-exact fields: a fractional (or merely
  // double-typed) number is refused, never truncated.
  const auto error_of = [this](const std::string& line) {
    const Json reply = call(line);
    EXPECT_FALSE(reply.get("ok")->as_bool()) << line;
    const Json* error = reply.get("error");
    return error != nullptr ? error->as_string() : std::string();
  };
  const std::string request_error =
      "REQUEST needs integer src, dst, priority, period, length, deadline";
  EXPECT_EQ(error_of(R"({"verb":"REQUEST","src":0,"dst":5,"priority":1,)"
                     R"("period":50.7,"length":10.9,"deadline":100.2})"),
            request_error);
  EXPECT_EQ(error_of(R"({"verb":"REQUEST","src":0,"dst":5,"priority":1,)"
                     R"("period":50.0,"length":10,"deadline":100})"),
            request_error);
  EXPECT_EQ(error_of(R"({"verb":"REQUEST","src":0,"dst":5,"priority":1,)"
                     R"("period":1e300,"length":10,"deadline":100})"),
            request_error);
  EXPECT_EQ(service_.population(), 0u);

  ASSERT_EQ(call(request_line(0, 5, 1, 50, 10, 100)).get("handle")->as_int(),
            0);
  EXPECT_EQ(error_of(R"({"verb":"QUERY","handle":0.9})"),
            "QUERY needs integer handle");
  EXPECT_EQ(error_of(R"({"verb":"EXPLAIN","handle":1e300})"),
            "EXPLAIN needs integer handle");
  EXPECT_EQ(error_of(R"({"verb":"REMOVE","handle":0.0})"),
            "REMOVE needs integer handle");
  EXPECT_EQ(error_of(R"({"verb":"LINK_DOWN","src":0.5,"dst":1})"),
            "LINK_DOWN needs integer channel, or integer src and dst");
  EXPECT_EQ(error_of(R"({"verb":"HISTORY","window_ms":1.5})"),
            "HISTORY window_ms must be a non-negative integer");
  EXPECT_EQ(error_of(R"({"verb":"HISTORY","window_ms":-1e300})"),
            "HISTORY window_ms must be a non-negative integer");
  EXPECT_EQ(service_.population(), 1u);
}

TEST_F(ServiceTest, RequestRefusesAPriorityOutside32BitsAndADeadlineAboveTheCap) {
  // The engine's Priority has 32 bits: narrowed, 2^32 + 1 would be
  // admitted as priority 1 and rank below a priority-2 stream it should
  // outrank.  A deadline sizes the newcomer's Cal_U diagram (up to D
  // slots), so one above the 2^18 horizon cap is refused before any
  // analysis runs.
  const auto error_of = [this](const std::string& line) {
    const Json reply = call(line);
    EXPECT_FALSE(reply.get("ok")->as_bool()) << line;
    const Json* error = reply.get("error");
    return error != nullptr ? error->as_string() : std::string();
  };
  const auto wide = [](std::int64_t priority, std::int64_t deadline) {
    Json r = Json::object();
    r.set("verb", "REQUEST");
    r.set("src", std::int64_t{0});
    r.set("dst", std::int64_t{5});
    r.set("priority", priority);
    r.set("period", std::int64_t{50});
    r.set("length", std::int64_t{10});
    r.set("deadline", deadline);
    return r.dump();
  };
  const std::int64_t int32_max = std::numeric_limits<std::int32_t>::max();
  const std::int64_t int32_min = std::numeric_limits<std::int32_t>::min();
  EXPECT_EQ(error_of(wide((std::int64_t{1} << 32) + 1, 100)),
            "priority must fit in 32 bits");
  EXPECT_EQ(error_of(wide(int32_max + 1, 100)),
            "priority must fit in 32 bits");
  EXPECT_EQ(error_of(wide(int32_min - 1, 100)),
            "priority must fit in 32 bits");
  EXPECT_EQ(error_of(wide(2, (std::int64_t{1} << 18) + 1)),
            "deadline exceeds the horizon cap of 262144 slots");
  EXPECT_EQ(service_.population(), 0u);

  // Nothing was admitted: a priority-2 stream on that path reads the
  // bound of an empty fabric.
  const Json alone = call(wide(2, 100));
  ASSERT_TRUE(alone.get("admitted")->as_bool()) << alone.dump();
  EXPECT_EQ(alone.get("bound")->as_int(),
            replay_.request(0, 5, 2, 50, 10, 100).bound);
  ASSERT_TRUE(call(R"({"verb":"REMOVE","handle":)" +
                   std::to_string(alone.get("handle")->as_int()) + "}")
                  .get("removed")
                  ->as_bool());

  // The extremes that fit are accepted.
  for (const std::int64_t priority : {int32_min, int32_max}) {
    EXPECT_TRUE(call(wide(priority, 100)).get("ok")->as_bool()) << priority;
  }
  EXPECT_TRUE(call(wide(2, std::int64_t{1} << 18)).get("ok")->as_bool());
}

TEST_F(ServiceTest, EveryVerbHasOneClassification) {
  const std::vector<std::string> verbs = {
      "REQUEST",   "REMOVE",   "QUERY",      "EXPLAIN",       "SNAPSHOT",
      "METRICS",   "REPORT",   "HEALTH",     "HISTORY",       "BATCH",
      "LINK_DOWN", "LINK_UP",  "SHUTDOWN",   "REPL_HELLO",    "REPL_SNAPSHOT",
      "REPL_PULL", "PROMOTE"};
  const std::vector<std::string> primary_only = {
      "REQUEST", "REMOVE",     "BATCH",         "LINK_DOWN",
      "LINK_UP", "REPL_HELLO", "REPL_SNAPSHOT", "REPL_PULL"};
  const std::vector<std::pair<std::string, std::string>> unbatchable = {
      {"BATCH", "BATCH does not nest"},
      {"LINK_DOWN", "LINK_DOWN is not batchable"},
      {"LINK_UP", "LINK_UP is not batchable"},
      {"REPL_HELLO", "REPL_HELLO is not batchable"},
      {"REPL_SNAPSHOT", "REPL_SNAPSHOT is not batchable"},
      {"REPL_PULL", "REPL_PULL is not batchable"},
      {"PROMOTE", "PROMOTE is not batchable"}};
  const auto error_of = [](const Json& reply) {
    const Json* error = reply.get("error");
    return error != nullptr ? error->as_string() : std::string();
  };

  // A follower refuses exactly the mutating and replication-serving
  // verbs; every other verb is served (or fails on its own terms).
  topo::Mesh follower_mesh(8, 8);
  svc::ServiceOptions follower_options;
  follower_options.follower = true;
  svc::Service follower(follower_mesh, routing_, {}, follower_options);
  for (const std::string& verb : verbs) {
    Json request = Json::object();
    request.set("verb", verb);
    const bool refused = error_of(follower.handle(request)) == "not primary";
    const bool want = std::find(primary_only.begin(), primary_only.end(),
                                verb) != primary_only.end();
    EXPECT_EQ(refused, want) << verb;
  }

  // Inside a BATCH the verbs that manage the service lock themselves are
  // refused; every other verb runs, SHUTDOWN included.
  Json batch = Json::object();
  batch.set("verb", "BATCH");
  Json items = Json::array();
  for (const std::string& verb : verbs) {
    Json request = Json::object();
    request.set("verb", verb);
    items.push_back(std::move(request));
  }
  Json bogus = Json::object();
  bogus.set("verb", "FROBNICATE");
  items.push_back(std::move(bogus));
  batch.set("requests", std::move(items));
  const Json reply = call(batch.dump());
  ASSERT_TRUE(reply.get("ok")->as_bool());
  const auto& replies = reply.get("replies")->items();
  ASSERT_EQ(replies.size(), verbs.size() + 1);
  for (std::size_t i = 0; i < verbs.size(); ++i) {
    const auto it = std::find_if(
        unbatchable.begin(), unbatchable.end(),
        [&](const auto& entry) { return entry.first == verbs[i]; });
    const std::string error = error_of(replies[i]);
    if (it != unbatchable.end()) {
      EXPECT_EQ(error, it->second) << verbs[i];
    } else {
      EXPECT_EQ(error.find("batchable"), std::string::npos) << verbs[i];
      EXPECT_EQ(error.find("nest"), std::string::npos) << verbs[i];
    }
  }
  const Json& shutdown =
      replies[static_cast<std::size_t>(
          std::find(verbs.begin(), verbs.end(), "SHUTDOWN") - verbs.begin())];
  EXPECT_TRUE(shutdown.get("ok")->as_bool());
  EXPECT_TRUE(shutdown.get("shutting_down")->as_bool());
  EXPECT_TRUE(service_.shutdown_requested());
  EXPECT_EQ(error_of(replies.back()), "unknown verb: FROBNICATE");
  EXPECT_EQ(error_of(call(R"({"verb":"FROBNICATE"})")),
            "unknown verb: FROBNICATE");
  // METRICS is the one metrics exposition: STATS is gone, not aliased.
  EXPECT_EQ(service_.handle_line(R"({"verb":"STATS"})"),
            R"({"ok":false,"error":"unknown verb: STATS"})");

  // METRICS keeps its exposition order: the service's own families
  // first, the per-verb counters in registration order.
  const std::string prom = service_.prometheus_text();
  std::size_t at = 0;
  for (const char* line :
       {"# TYPE wormrt_requests_total counter",
        "wormrt_requests_total{verb=\"REQUEST\"}",
        "wormrt_requests_total{verb=\"REMOVE\"}",
        "wormrt_requests_total{verb=\"QUERY\"}",
        "wormrt_requests_total{verb=\"EXPLAIN\"}",
        "wormrt_requests_total{verb=\"SNAPSHOT\"}",
        "wormrt_requests_total{verb=\"METRICS\"}",
        "wormrt_requests_total{verb=\"LINK_DOWN\"}",
        "wormrt_requests_total{verb=\"LINK_UP\"}",
        "wormrt_requests_total{verb=\"REPORT\"}",
        "wormrt_requests_total{verb=\"HEALTH\"}",
        "wormrt_requests_total{verb=\"HISTORY\"}",
        "# TYPE wormrt_link_streams_total counter",
        "# TYPE wormrt_admission_decisions_total counter",
        "# TYPE wormrt_errors_total counter",
        "# TYPE wormrt_admission_latency_us histogram",
        "# TYPE wormrt_population gauge",
        "# TYPE wormrt_engine_adds_total counter",
        "# TYPE wormrt_engine_removes_total counter",
        "# TYPE wormrt_engine_bound_recomputes_total counter",
        "# TYPE wormrt_engine_dirty_marked_total counter",
        "# TYPE wormrt_engine_edge_updates_total counter",
        "# TYPE wormrt_engine_bound_cache_hits_total counter"}) {
    const std::size_t next = prom.find(line, at);
    ASSERT_NE(next, std::string::npos) << line;
    at = next;
  }
}

/// LINK_DOWN / LINK_UP dispatch.  The oracle controller gets its OWN
/// topology instance: fault flags mutate the fabric in place, so the
/// fixture's shared-mesh replay_ cannot mirror link verbs.
class ServiceLinkTest : public ServiceTest {
 protected:
  ServiceLinkTest() : oracle_mesh_(8, 8), oracle_(oracle_mesh_, routing_) {}

  Json link(const char* verb, int src, int dst) {
    Json r = Json::object();
    r.set("verb", verb);
    r.set("src", std::int64_t{src});
    r.set("dst", std::int64_t{dst});
    return call(r.dump());
  }

  topo::Mesh oracle_mesh_;
  core::AdmissionController oracle_;
};

TEST_F(ServiceLinkTest, LinkDownEvictsReroutesAndReportsTheCascade) {
  // Three streams against the row-0 spine: one detourable (src and dst
  // differ in both dimensions, so the reversed order sidesteps row 0),
  // one pinned to row 0 in both orders, one far away.
  const int specs[][2] = {
      {mesh_.node_at({0, 0}), mesh_.node_at({2, 1})},  // rerouted
      {mesh_.node_at({0, 0}), mesh_.node_at({3, 0})},  // evicted
      {mesh_.node_at({0, 5}), mesh_.node_at({3, 5})},  // untouched
  };
  for (const auto& s : specs) {
    const Json reply = call(request_line(s[0], s[1], 2, 200, 6, 200));
    const auto expect = oracle_.request(s[0], s[1], 2, 200, 6, 200);
    ASSERT_TRUE(reply.get("admitted")->as_bool());
    ASSERT_TRUE(expect.admitted);
    ASSERT_EQ(reply.get("handle")->as_int(), expect.handle);
  }

  const int fsrc = mesh_.node_at({1, 0});
  const int fdst = mesh_.node_at({2, 0});
  const auto channel = oracle_mesh_.channel_between(fsrc, fdst);
  const auto m = oracle_.link_down(channel);
  ASSERT_TRUE(m.changed);
  ASSERT_EQ(m.rerouted.size(), 1u);
  ASSERT_EQ(m.evicted.size(), 1u);

  const Json reply = link("LINK_DOWN", fsrc, fdst);
  ASSERT_TRUE(reply.get("ok")->as_bool()) << reply.dump();
  EXPECT_EQ(reply.get("channel")->as_int(), channel);
  EXPECT_EQ(reply.get("src")->as_int(), fsrc);
  EXPECT_EQ(reply.get("dst")->as_int(), fdst);
  EXPECT_TRUE(reply.get("changed")->as_bool());
  ASSERT_EQ(reply.get("evicted")->items().size(), m.evicted.size());
  for (std::size_t i = 0; i < m.evicted.size(); ++i) {
    EXPECT_EQ(reply.get("evicted")->items()[i].as_int(), m.evicted[i]);
  }
  ASSERT_EQ(reply.get("rerouted")->items().size(), m.rerouted.size());
  for (std::size_t i = 0; i < m.rerouted.size(); ++i) {
    EXPECT_EQ(reply.get("rerouted")->items()[i].as_int(), m.rerouted[i]);
  }
  EXPECT_EQ(reply.get("recomputed")->as_int(),
            static_cast<std::int64_t>(m.recomputed.size()));
  EXPECT_EQ(service_.population(), oracle_.size());

  // The evicted stream is gone; the rerouted one answers QUERY with the
  // detour's recomputed bound.
  Json q = Json::object();
  q.set("verb", "QUERY");
  q.set("handle", m.evicted[0]);
  EXPECT_FALSE(call(q.dump()).get("ok")->as_bool());
  q.set("handle", m.rerouted[0]);
  const Json qr = call(q.dump());
  ASSERT_TRUE(qr.get("ok")->as_bool());
  const auto want = oracle_.bound_of(m.rerouted[0]);
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(qr.get("bound")->as_int(), *want);

  // Repair: the flag clears, nobody migrates back.
  const auto up = oracle_.link_up(channel);
  ASSERT_TRUE(up.changed);
  const Json upr = link("LINK_UP", fsrc, fdst);
  ASSERT_TRUE(upr.get("ok")->as_bool()) << upr.dump();
  EXPECT_TRUE(upr.get("changed")->as_bool());
  EXPECT_TRUE(upr.get("evicted")->items().empty());
  EXPECT_TRUE(upr.get("rerouted")->items().empty());

  // Both mutations are visible in METRICS.
  const Json metrics = call(R"({"verb":"METRICS"})");
  EXPECT_EQ(verb_count(metrics, "LINK_DOWN"), 1);
  EXPECT_EQ(verb_count(metrics, "LINK_UP"), 1);
}

TEST_F(ServiceLinkTest, LinkVerbsRejectNoOpsBadAddressingAndBatch) {
  // Repairing a healthy channel is an error, never a silent no-op (a
  // journaled no-op would desynchronise cascade replay).
  const Json up = link("LINK_UP", 0, 1);
  EXPECT_FALSE(up.get("ok")->as_bool());
  EXPECT_NE(up.get("error")->as_string().find("already up"),
            std::string::npos);

  ASSERT_TRUE(link("LINK_DOWN", 0, 1).get("ok")->as_bool());
  const Json twice = link("LINK_DOWN", 0, 1);
  EXPECT_FALSE(twice.get("ok")->as_bool());
  EXPECT_NE(twice.get("error")->as_string().find("already down"),
            std::string::npos);

  // Addressing errors: non-adjacent endpoints, out-of-range ids.
  const Json far = link("LINK_DOWN", 0, 9);
  EXPECT_FALSE(far.get("ok")->as_bool());
  EXPECT_NE(far.get("error")->as_string().find("no channel"),
            std::string::npos);
  EXPECT_FALSE(link("LINK_DOWN", -1, 0).get("ok")->as_bool());
  EXPECT_FALSE(link("LINK_DOWN", 0, 64).get("ok")->as_bool());

  Json by_channel = Json::object();
  by_channel.set("verb", "LINK_DOWN");
  by_channel.set("channel", std::int64_t{-1});
  EXPECT_FALSE(call(by_channel.dump()).get("ok")->as_bool());
  by_channel.set("channel",
                 static_cast<std::int64_t>(mesh_.num_channels()));
  EXPECT_FALSE(call(by_channel.dump()).get("ok")->as_bool());

  const Json naked = call(R"({"verb":"LINK_DOWN"})");
  EXPECT_FALSE(naked.get("ok")->as_bool());
  EXPECT_NE(naked.get("error")->as_string().find("needs integer channel"),
            std::string::npos);

  // Addressing by channel id works and matches the endpoint form.
  const auto rev = mesh_.channel_between(1, 0);
  Json down = Json::object();
  down.set("verb", "LINK_DOWN");
  down.set("channel", static_cast<std::int64_t>(rev));
  const Json dr = call(down.dump());
  ASSERT_TRUE(dr.get("ok")->as_bool()) << dr.dump();
  EXPECT_EQ(dr.get("src")->as_int(), 1);
  EXPECT_EQ(dr.get("dst")->as_int(), 0);

  // Topology mutations never ride inside a BATCH: the group-commit
  // ack protocol only covers stream mutations.
  const Json batch = call(
      R"({"verb":"BATCH","requests":[{"verb":"LINK_UP","src":0,"dst":1}]})");
  ASSERT_TRUE(batch.get("ok")->as_bool());
  const auto& replies = batch.get("replies")->items();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].get("ok")->as_bool());
  EXPECT_NE(replies[0].get("error")->as_string().find("not batchable"),
            std::string::npos);
}

/// The socket transport: a real Server on a Unix socket, several client
/// connections (serial and concurrent), decisions matching a replay
/// controller.
TEST(ServerSocket, ServesClientsOverUnixSocket) {
  topo::Mesh mesh(8, 8);
  const route::XYRouting routing;
  svc::Service service(mesh, routing);
  core::AdmissionController replay(mesh, routing);

  char path[128];
  std::snprintf(path, sizeof path, "/tmp/wormrt-test-%d.sock",
                static_cast<int>(::getpid()));
  svc::ServerConfig config;
  config.unix_path = path;
  config.workers = 4;
  svc::Server server(service, config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  svc::Client client;
  ASSERT_TRUE(client.connect_unix(path, &error)) << error;

  util::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, 63));
    const int dst = (src + static_cast<int>(rng.uniform_int(1, 63))) % 64;
    const int priority = static_cast<int>(rng.uniform_int(1, 3));
    const Time period = rng.uniform_int(40, 89);
    const Time length = rng.uniform_int(1, 15);
    const Time deadline = rng.uniform_int(50, 299);

    Json r = Json::object();
    r.set("verb", "REQUEST");
    r.set("src", std::int64_t{src});
    r.set("dst", std::int64_t{dst});
    r.set("priority", std::int64_t{priority});
    r.set("period", period);
    r.set("length", length);
    r.set("deadline", deadline);
    std::string response;
    ASSERT_TRUE(client.call(r.dump(), &response, &error)) << error;
    const Json reply = Json::parse(response, &error);
    ASSERT_TRUE(error.empty()) << error;

    const auto expect =
        replay.request(src, dst, priority, period, length, deadline);
    EXPECT_EQ(reply.get("admitted")->as_bool(), expect.admitted);
    EXPECT_EQ(reply.get("bound")->as_int(), expect.bound);
  }

  // Concurrent clients on their own connections: the service stays
  // consistent (sum of verb counters matches what was sent).
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&path, t] {
      svc::Client c;
      std::string err;
      ASSERT_TRUE(c.connect_unix(path, &err)) << err;
      for (int i = 0; i < 10; ++i) {
        Json q = Json::object();
        q.set("verb", "QUERY");
        q.set("handle", std::int64_t{t * 1000 + i});  // all unknown: fine
        std::string resp;
        ASSERT_TRUE(c.call(q.dump(), &resp, &err)) << err;
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }

  std::string response;
  ASSERT_TRUE(client.call(R"({"verb":"METRICS"})", &response, &error))
      << error;
  const Json metrics = Json::parse(response, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(verb_count(metrics, "REQUEST"), 40);
  EXPECT_GE(verb_count(metrics, "QUERY"), 40);
  EXPECT_EQ(metric_count(metrics, "wormrt_population"),
            static_cast<std::int64_t>(replay.size()));

  server.stop();
  EXPECT_FALSE(client.call(R"({"verb":"METRICS"})", &response, &error));
}

TEST(ServerSocket, ServesClientsOverLoopbackTcp) {
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  svc::Service service(mesh, routing);

  svc::ServerConfig config;
  config.tcp_port = 0;  // ephemeral
  svc::Server server(service, config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  svc::Client client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port(), &error)) << error;
  std::string response;
  ASSERT_TRUE(client.call(
      R"({"verb":"REQUEST","src":0,"dst":3,"priority":1,"period":50,"length":10,"deadline":200})",
      &response, &error))
      << error;
  const Json reply = Json::parse(response, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_TRUE(reply.get("ok")->as_bool());
  EXPECT_TRUE(reply.get("admitted")->as_bool());
  server.stop();
}

}  // namespace
}  // namespace wormrt
