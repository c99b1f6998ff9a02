// The trace span layer: the disabled path records nothing, the enabled
// path records complete events, and export_json() emits Chrome
// trace_event JSON that conforms to the schema chrome://tracing and
// Perfetto consume — checked event by event with the protocol's own
// JSON parser.  Also covers the flit simulator's on_delivery hook,
// which lays packet lifetimes out as spans with the stream id as a
// virtual tid.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/message_stream.hpp"
#include "flitsim/flit_sim.hpp"
#include "obs/trace.hpp"
#include "route/dor.hpp"
#include "svc/json.hpp"
#include "topo/mesh.hpp"

namespace wormrt::obs {
namespace {

using svc::Json;

/// Every test starts from an empty buffer and leaves tracing disabled.
class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::set_enabled(false);
    Tracer::clear();
  }
  void TearDown() override {
    Tracer::set_enabled(false);
    Tracer::clear();
  }

  /// Schema-checks one export.  ASSERTs on structural violations, so
  /// callers can dereference freely afterwards.
  static void check_schema(const Json& doc) {
    ASSERT_TRUE(doc.is_object());
    ASSERT_NE(doc.get("displayTimeUnit"), nullptr);
    EXPECT_EQ(doc.get("displayTimeUnit")->as_string(), "ms");
    const Json* events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    for (const Json& e : events->items()) {
      ASSERT_TRUE(e.is_object());
      for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
        ASSERT_NE(e.get(key), nullptr) << "event missing " << key;
      }
      ASSERT_TRUE(e.get("name")->is_string());
      EXPECT_FALSE(e.get("name")->as_string().empty());
      EXPECT_EQ(e.get("cat")->as_string(), "wormrt");
      EXPECT_EQ(e.get("ph")->as_string(), "X");
      ASSERT_TRUE(e.get("ts")->is_int());
      ASSERT_TRUE(e.get("dur")->is_int());
      EXPECT_GE(e.get("ts")->as_int(), 0);
      EXPECT_GE(e.get("dur")->as_int(), 0);
      EXPECT_EQ(e.get("pid")->as_int(), 1);
      ASSERT_TRUE(e.get("tid")->is_int());
      EXPECT_GE(e.get("tid")->as_int(), 1);
    }
  }

  /// Parses an export; schema violations fail the calling test.
  static Json parse_and_check(const std::string& text) {
    std::string error;
    Json doc = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    check_schema(doc);
    return doc;
  }
};

TEST_F(ObsTrace, DisabledSpansRecordNothing) {
  ASSERT_FALSE(Tracer::enabled());
  {
    OBS_SPAN("never_recorded");
    OBS_SPAN("nor_this");
  }
  EXPECT_EQ(Tracer::event_count(), 0u);
  const Json doc = parse_and_check(Tracer::export_json());
  EXPECT_TRUE(doc.get("traceEvents")->items().empty());
}

TEST_F(ObsTrace, EnabledSpansExportConformantNestedEvents) {
  Tracer::set_enabled(true);
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN("inner");
    }
  }
  Tracer::set_enabled(false);
  EXPECT_EQ(Tracer::event_count(), 2u);

  const Json doc = parse_and_check(Tracer::export_json());
  const auto& events = doc.get("traceEvents")->items();
  ASSERT_EQ(events.size(), 2u);

  const Json* outer = nullptr;
  const Json* inner = nullptr;
  for (const Json& e : events) {
    if (e.get("name")->as_string() == "outer") {
      outer = &e;
    } else if (e.get("name")->as_string() == "inner") {
      inner = &e;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Nesting is recovered by containment: the outer complete event
  // spans the inner one on the same tid.
  EXPECT_EQ(outer->get("tid")->as_int(), inner->get("tid")->as_int());
  EXPECT_LE(outer->get("ts")->as_int(), inner->get("ts")->as_int());
  EXPECT_GE(outer->get("ts")->as_int() + outer->get("dur")->as_int(),
            inner->get("ts")->as_int() + inner->get("dur")->as_int());
}

TEST_F(ObsTrace, SpanOpenedWhileDisabledNeverRecords) {
  {
    SpanGuard guard("opened_disabled");
    Tracer::set_enabled(true);  // flips on mid-span
  }
  EXPECT_EQ(Tracer::event_count(), 0u);
}

TEST_F(ObsTrace, EventNamesAreJsonEscaped) {
  Tracer::set_enabled(true);
  Tracer::record_complete("with\"quote\\slash", 0, 1);
  const Json doc = parse_and_check(Tracer::export_json());
  ASSERT_EQ(doc.get("traceEvents")->items().size(), 1u);
  EXPECT_EQ(doc.get("traceEvents")->items()[0].get("name")->as_string(),
            "with\"quote\\slash");
}

TEST_F(ObsTrace, ThreadsRecordUnderDistinctTids) {
  Tracer::set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        OBS_SPAN("worker_span");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  Tracer::set_enabled(false);
  EXPECT_EQ(Tracer::event_count(),
            static_cast<std::size_t>(kThreads) * kSpans);

  const Json doc = parse_and_check(Tracer::export_json());
  std::vector<std::int64_t> tids;
  for (const Json& e : doc.get("traceEvents")->items()) {
    if (std::find(tids.begin(), tids.end(), e.get("tid")->as_int()) ==
        tids.end()) {
      tids.push_back(e.get("tid")->as_int());
    }
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));

  Tracer::clear();
  EXPECT_EQ(Tracer::event_count(), 0u);
}

TEST_F(ObsTrace, SimulatorDeliveryHookLaysStreamsOutAsVirtualTids) {
  topo::Mesh mesh(8, 1);
  core::StreamSet set;
  set.add(core::make_stream(mesh, route::XYRouting(), 0, mesh.node_at({0, 0}),
                            mesh.node_at({7, 0}), /*priority=*/0,
                            /*period=*/40, /*length=*/8, /*deadline=*/200));
  set.add(core::make_stream(mesh, route::XYRouting(), 1, mesh.node_at({1, 0}),
                            mesh.node_at({6, 0}), /*priority=*/1,
                            /*period=*/50, /*length=*/4, /*deadline=*/200));

  Tracer::set_enabled(true);
  flitsim::FlitSimConfig cfg;
  cfg.duration = 400;
  cfg.warmup = 0;
  cfg.on_delivery = [](StreamId stream, Time generated, Time delivered) {
    if (Tracer::enabled()) {
      Tracer::record_complete("delivery", generated, delivered - generated,
                              static_cast<unsigned>(stream) + 1);
    }
  };
  flitsim::FlitSimulator sim(mesh, set, cfg);
  const flitsim::FlitSimResult result = sim.run();
  Tracer::set_enabled(false);

  const auto completed = static_cast<std::size_t>(
      result.per_stream[0].completed + result.per_stream[1].completed);
  ASSERT_GT(completed, 0u);
  // One span per delivery plus the run's own "flitsim_run" span.
  EXPECT_EQ(Tracer::event_count(), completed + 1);

  const Json doc = parse_and_check(Tracer::export_json());
  std::size_t tid1 = 0, tid2 = 0;
  for (const Json& e : doc.get("traceEvents")->items()) {
    if (e.get("name")->as_string() == "flitsim_run") {
      continue;
    }
    EXPECT_EQ(e.get("name")->as_string(), "delivery");
    // dur is the packet's in-network lifetime: at least the analytical
    // contention-free latency of its stream.
    const std::int64_t tid = e.get("tid")->as_int();
    ASSERT_TRUE(tid == 1 || tid == 2);
    EXPECT_GE(e.get("dur")->as_int(),
              set[static_cast<StreamId>(tid - 1)].latency);
    tid1 += tid == 1 ? 1 : 0;
    tid2 += tid == 2 ? 1 : 0;
  }
  EXPECT_EQ(tid1, static_cast<std::size_t>(result.per_stream[0].completed));
  EXPECT_EQ(tid2, static_cast<std::size_t>(result.per_stream[1].completed));
}

}  // namespace
}  // namespace wormrt::obs
