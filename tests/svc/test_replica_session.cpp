// The follower side of replication in one process: a journaled primary
// behind a real Server on a Unix socket, and a journaled follower running
// the ReplicaSession wormrtd --follow runs (catch-up, snapshot bootstrap,
// PROMOTE through the promote hook).  Then the replication figures the
// daemon reports — HEALTH's replication object and checks, the
// wormrt_repl_* gauges and HISTORY's replication_lag — on a follower and
// on a primary with two followers.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "metrics_reply.hpp"
#include "route/dor.hpp"
#include "svc/json.hpp"
#include "svc/replication.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/mesh.hpp"

namespace wormrt::svc {
namespace {

using testing::metric_child;
using testing::metric_count;

Json verb(const char* name) {
  Json j = Json::object();
  j.set("verb", name);
  return j;
}

/// A REQUEST for a one-hop stream from \p src to \p src + 1 on a 4x4
/// mesh: short, light and disjoint from the others, so it is admitted.
Json request(int src) {
  Json j = verb("REQUEST");
  j.set("src", std::int64_t{src});
  j.set("dst", std::int64_t{src + 1});
  j.set("priority", std::int64_t{1 + src % 3});
  j.set("period", std::int64_t{100});
  j.set("length", std::int64_t{5});
  j.set("deadline", std::int64_t{100});
  return j;
}

/// REPL_PULL as a follower named \p id sends it once it holds
/// \p durable_lsn: the primary registers the follower at that LSN.
Json pull(const char* id, std::int64_t durable_lsn) {
  Json j = verb("REPL_PULL");
  j.set("follower_id", id);
  j.set("from_lsn", durable_lsn + 1);
  j.set("durable_lsn", durable_lsn);
  j.set("wait_ms", std::int64_t{0});
  return j;
}

class ReplicaSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string tag =
        std::to_string(::getpid()) + "-" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    root_ = (std::filesystem::temp_directory_path() / ("wormrt-rs-" + tag))
                .string();
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    socket_ = "/tmp/wormrt-rs-" + std::to_string(::getpid()) + ".sock";
    ::unlink(socket_.c_str());
  }

  void TearDown() override {
    std::filesystem::remove_all(root_);
    ::unlink(socket_.c_str());
  }

  ServiceOptions options(const char* dir, bool follower) const {
    ServiceOptions o;
    o.state_dir = root_ + "/" + dir;
    o.follower = follower;
    return o;
  }

  /// Admits a stream on \p primary (asserts it).
  static void admit(Service& primary, int src) {
    const Json reply = primary.handle(request(src));
    ASSERT_TRUE(reply.get("admitted") != nullptr &&
                reply.get("admitted")->as_bool())
        << reply.dump();
  }

  /// Polls until \p follower holds everything \p primary made durable.
  static bool caught_up(const Service& primary, const Service& follower) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (follower.durable_lsn() < primary.durable_lsn()) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  /// Equal engines: the same streams, in the same order, under the same
  /// handles and route orders, with the same bounds and next handle.
  static void expect_same_engine(const Service& want, const Service& got) {
    const core::IncrementalAnalyzer& w = want.controller().engine();
    const core::IncrementalAnalyzer& g = got.controller().engine();
    ASSERT_EQ(w.size(), g.size());
    EXPECT_EQ(want.controller().next_handle(), got.controller().next_handle());
    for (std::size_t i = 0; i < w.size(); ++i) {
      const auto id = static_cast<StreamId>(i);
      EXPECT_EQ(w.handle_of(id), g.handle_of(id)) << "row " << i;
      EXPECT_EQ(w.bound_at(id), g.bound_at(id)) << "row " << i;
      const core::MessageStream& a = w.streams()[id];
      const core::MessageStream& b = g.streams()[id];
      EXPECT_EQ(a.src, b.src) << "row " << i;
      EXPECT_EQ(a.dst, b.dst) << "row " << i;
      EXPECT_EQ(a.priority, b.priority) << "row " << i;
      EXPECT_EQ(a.period, b.period) << "row " << i;
      EXPECT_EQ(a.length, b.length) << "row " << i;
      EXPECT_EQ(a.deadline, b.deadline) << "row " << i;
      EXPECT_EQ(a.route_order, b.route_order) << "row " << i;
    }
  }

  ReplicaConfig session_config() const {
    ReplicaConfig config;
    config.endpoint = "unix:" + socket_;
    config.follower_id = "session";
    return config;
  }

  std::string root_;
  std::string socket_;
  route::XYRouting routing_;
};

TEST_F(ReplicaSessionTest, CatchUpMatchesThePrimaryEngine) {
  topo::Mesh primary_mesh(4, 4);
  topo::Mesh follower_mesh(4, 4);
  Service primary(primary_mesh, routing_, {}, options("p", false));
  std::string error;
  ASSERT_TRUE(primary.open_state(&error)) << error;
  ServerConfig server_config;
  server_config.unix_path = socket_;
  Server server(primary, server_config);
  ASSERT_TRUE(server.start(&error)) << error;

  // Records before the session starts, and records while it streams,
  // with a removal and a link fault among them.
  for (const int src : {0, 4, 8}) {
    admit(primary, src);
  }
  Service follower(follower_mesh, routing_, {}, options("f", true));
  ASSERT_TRUE(follower.open_state(&error)) << error;
  ReplicaSession session(follower, session_config());
  session.start();
  for (const int src : {12, 2, 6}) {
    admit(primary, src);
  }
  Json remove = verb("REMOVE");
  remove.set("handle", std::int64_t{1});
  ASSERT_TRUE(primary.handle(remove).get("removed")->as_bool());
  Json link_down = verb("LINK_DOWN");
  link_down.set("src", std::int64_t{10});
  link_down.set("dst", std::int64_t{11});
  ASSERT_TRUE(primary.handle(link_down).get("ok")->as_bool());
  admit(primary, 14);

  ASSERT_TRUE(caught_up(primary, follower))
      << "follower durable " << follower.durable_lsn() << ", primary "
      << primary.durable_lsn();
  EXPECT_EQ(follower.durable_lsn(), 9u);
  expect_same_engine(primary, follower);
  EXPECT_TRUE(follower_mesh.channel_faulted(
      follower_mesh.channel_between(10, 11)));
  EXPECT_EQ(follower.registry()
                .counter("wormrt_repl_snapshots_installed_total")
                .value(),
            0u);

  session.stop();
  EXPECT_FALSE(session.running());
  server.stop();
}

TEST_F(ReplicaSessionTest, LateFollowerBootstrapsFromASnapshot) {
  topo::Mesh primary_mesh(4, 4);
  topo::Mesh follower_mesh(4, 4);
  ServiceOptions p_options = options("p", false);
  p_options.repl_buffer_records = 4;  // a 4-record tail
  Service primary(primary_mesh, routing_, {}, p_options);
  std::string error;
  ASSERT_TRUE(primary.open_state(&error)) << error;
  ServerConfig server_config;
  server_config.unix_path = socket_;
  Server server(primary, server_config);
  ASSERT_TRUE(server.start(&error)) << error;
  for (const int src : {0, 2, 4, 6, 8, 10, 12, 14}) {
    admit(primary, src);
  }

  // Eight records through a four-record tail: LSN 1 is gone, so the
  // follower's handshake asks for a snapshot, then it streams on.
  Service follower(follower_mesh, routing_, {}, options("f", true));
  ASSERT_TRUE(follower.open_state(&error)) << error;
  ReplicaSession session(follower, session_config());
  session.start();
  ASSERT_TRUE(caught_up(primary, follower));
  admit(primary, 1);
  ASSERT_TRUE(caught_up(primary, follower));
  EXPECT_EQ(follower.durable_lsn(), 9u);
  expect_same_engine(primary, follower);
  EXPECT_EQ(follower.registry()
                .counter("wormrt_repl_snapshots_installed_total")
                .value(),
            1u);

  session.stop();
  server.stop();
}

TEST_F(ReplicaSessionTest, PromoteStopsTheSessionThroughTheHook) {
  topo::Mesh primary_mesh(4, 4);
  topo::Mesh follower_mesh(4, 4);
  Service primary(primary_mesh, routing_, {}, options("p", false));
  std::string error;
  ASSERT_TRUE(primary.open_state(&error)) << error;
  ServerConfig server_config;
  server_config.unix_path = socket_;
  Server server(primary, server_config);
  ASSERT_TRUE(server.start(&error)) << error;
  admit(primary, 0);

  Service follower(follower_mesh, routing_, {}, options("f", true));
  ASSERT_TRUE(follower.open_state(&error)) << error;
  ReplicaSession session(follower, session_config());
  follower.set_promote_hook([&session] { session.stop(); });
  session.start();
  ASSERT_TRUE(caught_up(primary, follower));
  ASSERT_TRUE(session.running());

  // PROMOTE through the follower's own verb dispatch: the hook joins the
  // pull thread before the epoch bump, and the promoted node decides.
  const Json promoted = follower.handle(verb("PROMOTE"));
  ASSERT_TRUE(promoted.get("ok")->as_bool()) << promoted.dump();
  EXPECT_TRUE(promoted.get("promoted")->as_bool());
  EXPECT_EQ(promoted.get("epoch")->as_int(), 2);
  EXPECT_FALSE(session.running());
  EXPECT_FALSE(follower.is_follower());
  const Json decided = follower.handle(request(4));
  EXPECT_TRUE(decided.get("admitted")->as_bool()) << decided.dump();
  EXPECT_EQ(follower.durable_lsn(), 2u);

  server.stop();
}

// --- the replication figures the daemon reports -----------------------

/// A journaled primary with five admissions and two followers registered
/// through REPL_PULL (open), or a journaled follower (OnAFollower).
class ReplicationFigures : public ReplicaSessionTest {
 protected:
  void open(std::uint64_t lag_budget, std::int64_t a_lsn,
            std::int64_t b_lsn) {
    ServiceOptions o = options("p", false);
    o.repl_lag_degraded = lag_budget;
    primary_ = std::make_unique<Service>(mesh_, routing_,
                                         core::AnalysisConfig{}, o);
    std::string error;
    ASSERT_TRUE(primary_->open_state(&error)) << error;
    for (const int src : {0, 2, 4, 6, 8}) {
      admit(*primary_, src);
    }
    ASSERT_EQ(primary_->durable_lsn(), 5u);
    ASSERT_TRUE(primary_->handle(pull("a", a_lsn)).get("ok")->as_bool());
    ASSERT_TRUE(primary_->handle(pull("b", b_lsn)).get("ok")->as_bool());
    primary_->sampler().sample_once();
  }

  /// The one sample of \p service's replication_lag series.
  static double history_lag(Service& service) {
    Json history = verb("HISTORY");
    Json series = Json::array();
    series.push_back("replication_lag");
    history.set("series", std::move(series));
    const Json reply = service.handle(history);
    const std::vector<Json>& samples =
        reply.get("series")->items()[0].get("samples")->items();
    EXPECT_EQ(samples.size(), 1u);
    return samples.empty() ? -1.0 : samples[0].items()[1].as_double();
  }

  topo::Mesh mesh_{4, 4};
  std::unique_ptr<Service> primary_;
};

TEST_F(ReplicationFigures, OnAFollower) {
  topo::Mesh mesh(4, 4);
  ServiceOptions f_options = options("f", true);
  f_options.repl_lag_degraded = 5;
  Service follower(mesh, routing_, {}, f_options);
  std::string error;
  ASSERT_TRUE(follower.open_state(&error)) << error;
  follower.note_replica_progress(7, 1, true);

  const Json health = follower.handle(verb("HEALTH"));
  EXPECT_EQ(health.get("replication")->dump(),
            R"({"role":"follower","epoch":1,"durable_lsn":0,"connected":true,)"
            R"("primary_durable_lsn":7,"primary_epoch":1})");
  EXPECT_EQ(health.get("checks")->get("replication_lag")->as_int(), 7);
  EXPECT_EQ(health.get("status")->as_string(), "degraded");
  EXPECT_EQ(health.get("reasons")->dump(),
            R"(["replication_lag_high: 7 records behind the primary )"
            R"x((budget 5)"])x");

  const Json metrics = follower.handle(verb("METRICS"));
  EXPECT_EQ(metric_count(metrics, "wormrt_repl_role"), 1);
  EXPECT_EQ(metric_count(metrics, "wormrt_repl_epoch"), 1);
  EXPECT_EQ(metric_count(metrics, "wormrt_repl_connected"), 1);
  EXPECT_EQ(metric_count(metrics, "wormrt_repl_lag_records", "follower",
                         "self"),
            7);
  EXPECT_EQ(metric_child(metrics, "wormrt_repl_followers"), nullptr);

  // A dropped session: disconnected, and the lag reads against the
  // zeroed primary position.
  follower.note_replica_progress(0, 0, false);
  follower.sampler().sample_once();
  const Json down = follower.handle(verb("HEALTH"));
  EXPECT_EQ(down.get("replication")->dump(),
            R"({"role":"follower","epoch":1,"durable_lsn":0,"connected":false,)"
            R"("primary_durable_lsn":0,"primary_epoch":0})");
  EXPECT_EQ(down.get("checks")->get("replication_lag")->as_int(), 0);
  EXPECT_EQ(down.get("reasons")->dump(),
            R"(["replication_disconnected: the pull session to the )"
            R"(primary is down"])");
  EXPECT_EQ(metric_count(follower.handle(verb("METRICS")),
                         "wormrt_repl_connected"),
            0);

  EXPECT_EQ(history_lag(follower), 0.0);
}

TEST_F(ReplicationFigures, OnAPrimaryWithTwoFollowers) {
  open(1024, 5, 3);
  const Json health = primary_->handle(verb("HEALTH"));
  const Json* repl = health.get("replication");
  ASSERT_NE(repl, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : repl->members()) {
    keys.push_back(key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"role", "epoch", "durable_lsn",
                                            "sync", "followers"}));
  EXPECT_EQ(repl->get("role")->as_string(), "primary");
  EXPECT_EQ(repl->get("epoch")->as_int(), 1);
  EXPECT_EQ(repl->get("durable_lsn")->as_int(), 5);
  EXPECT_FALSE(repl->get("sync")->as_bool());
  const std::vector<Json>& followers = repl->get("followers")->items();
  ASSERT_EQ(followers.size(), 2u);
  for (std::size_t i = 0; i < followers.size(); ++i) {
    std::vector<std::string> fields;
    for (const auto& [key, value] : followers[i].members()) {
      fields.push_back(key);
    }
    EXPECT_EQ(fields, (std::vector<std::string>{"id", "durable_lsn", "lag",
                                                "last_seen_ms"}));
    EXPECT_GE(followers[i].get("last_seen_ms")->as_int(), 0);
  }
  EXPECT_EQ(followers[0].get("id")->as_string(), "a");
  EXPECT_EQ(followers[0].get("durable_lsn")->as_int(), 5);
  EXPECT_EQ(followers[0].get("lag")->as_int(), 0);
  EXPECT_EQ(followers[1].get("id")->as_string(), "b");
  EXPECT_EQ(followers[1].get("durable_lsn")->as_int(), 3);
  EXPECT_EQ(followers[1].get("lag")->as_int(), 2);

  // The checked lag is the slowest follower's, within budget here.
  EXPECT_EQ(health.get("checks")->get("replication_lag")->as_int(), 2);
  EXPECT_EQ(health.get("status")->as_string(), "ok");
  EXPECT_EQ(health.get("reasons")->dump(), "[]");
  EXPECT_EQ(history_lag(*primary_), 2.0);

  const Json metrics = primary_->handle(verb("METRICS"));
  EXPECT_EQ(metric_count(metrics, "wormrt_repl_role"), 0);
  EXPECT_EQ(metric_count(metrics, "wormrt_repl_epoch"), 1);
  EXPECT_EQ(metric_count(metrics, "wormrt_repl_followers"), 2);
  EXPECT_EQ(metric_count(metrics, "wormrt_repl_lag_records", "follower", "a"),
            0);
  EXPECT_EQ(metric_count(metrics, "wormrt_repl_lag_records", "follower", "b"),
            2);
  EXPECT_EQ(metric_child(metrics, "wormrt_repl_connected"), nullptr);
}

TEST_F(ReplicationFigures, PrimaryHealthChecksItsSlowestFollower) {
  // "a" holds every record and "b" none: the primary is 5 records ahead
  // of its slowest follower, over the budget of 2.
  open(2, 5, 0);
  const Json health = primary_->handle(verb("HEALTH"));
  EXPECT_EQ(health.get("status")->as_string(), "degraded") << health.dump();
  EXPECT_EQ(health.get("reasons")->dump(),
            R"(["replication_lag_high: slowest follower is 5 records )"
            R"x(behind (budget 2)"])x");
  EXPECT_EQ(health.get("checks")->get("replication_lag")->as_int(), 5);
  const std::vector<Json>& followers =
      health.get("replication")->get("followers")->items();
  ASSERT_EQ(followers.size(), 2u);
  EXPECT_EQ(followers[1].get("lag")->as_int(), 5);
  EXPECT_EQ(history_lag(*primary_), 5.0);
}

}  // namespace
}  // namespace wormrt::svc
