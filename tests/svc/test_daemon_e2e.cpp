// End-to-end: launch the real wormrtd binary, drive it with the real
// wormrt-cli binary over a Unix-domain socket, and check every decision
// against an in-process AdmissionController replaying the same
// operations.  Binary locations are injected by CMake as
// WORMRTD_BIN / WORMRT_CLI_BIN.

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "core/stream_io.hpp"
#include "metrics_reply.hpp"
#include "route/dor.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "topo/mesh.hpp"
#include "util/rng.hpp"

namespace wormrt {
namespace {

using svc::Json;
using svc::testing::metric_count;
using svc::testing::verb_count;

/// Runs a command, captures stdout, returns the exit status.
int run(const std::string& command, std::string* out) {
  out->clear();
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return -1;
  }
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, pipe)) > 0) {
    out->append(chunk, n);
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string first_line(const std::string& text) {
  const std::size_t nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

class DaemonE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    std::snprintf(socket_, sizeof socket_, "/tmp/wormrtd-e2e-%d.sock",
                  static_cast<int>(::getpid()));
    const std::string command = std::string(WORMRTD_BIN) + " --socket " +
                                socket_ + " --mesh 8 --threads 1";
    daemon_ = ::popen(command.c_str(), "r");
    ASSERT_NE(daemon_, nullptr);
    // The daemon prints READY after listen succeeds; block on it so the
    // cli never races the bind.
    char line[256];
    ASSERT_NE(std::fgets(line, sizeof line, daemon_), nullptr);
    ASSERT_EQ(std::string(line).rfind("READY unix ", 0), 0u) << line;
  }

  void TearDown() override {
    std::string out;
    cli("shutdown", &out);
    if (daemon_ != nullptr) {
      ::pclose(daemon_);  // waits for the daemon to exit
    }
    ::unlink(socket_);
  }

  int cli(const std::string& args, std::string* out) {
    return run(std::string(WORMRT_CLI_BIN) + " --socket " + socket_ + " " +
                   args,
               out);
  }

  Json cli_json(const std::string& args, int* status = nullptr) {
    std::string out;
    const int rc = cli(args, &out);
    if (status != nullptr) {
      *status = rc;
    }
    std::string error;
    Json reply = Json::parse(first_line(out), &error);
    EXPECT_TRUE(error.empty()) << error << " in: " << out;
    return reply;
  }

  char socket_[128];
  FILE* daemon_ = nullptr;
};

TEST_F(DaemonE2E, DecisionsMatchInProcessReplay) {
  topo::Mesh mesh(8, 8);
  const route::XYRouting routing;
  // The daemon defaults to the flit-valid admission domain; the oracle
  // must gate the same way or zero-slack decisions diverge.
  core::AnalysisConfig daemon_defaults;
  daemon_defaults.credit_slack_guard = true;
  core::AdmissionController replay(mesh, routing, daemon_defaults);

  util::Rng rng(42);
  std::vector<core::AdmissionController::Handle> live;
  int admits = 0, rejects = 0, removes = 0;
  for (int step = 0; step < 40; ++step) {
    if (!live.empty() && rng.bernoulli(0.25)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const auto handle = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      int status = 0;
      const Json reply = cli_json(
          "remove --handle " + std::to_string(handle), &status);
      EXPECT_EQ(status, 0);
      EXPECT_TRUE(reply.get("removed")->as_bool());
      EXPECT_TRUE(replay.remove(handle));
      ++removes;
      continue;
    }
    const int src = static_cast<int>(rng.uniform_int(0, 63));
    const int dst = (src + static_cast<int>(rng.uniform_int(1, 63))) % 64;
    const int priority = static_cast<int>(rng.uniform_int(1, 4));
    const Time period = rng.uniform_int(40, 89);
    const Time length = rng.uniform_int(1, 18);
    const Time deadline = rng.uniform_int(40, 339);

    char flags[256];
    std::snprintf(flags, sizeof flags,
                  "request --src %d --dst %d --priority %d --period %lld "
                  "--length %lld --deadline %lld",
                  src, dst, priority, static_cast<long long>(period),
                  static_cast<long long>(length),
                  static_cast<long long>(deadline));
    int status = 0;
    const Json reply = cli_json(flags, &status);
    const auto expect =
        replay.request(src, dst, priority, period, length, deadline);

    EXPECT_EQ(status == 0, expect.admitted);
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
      ++admits;
    } else {
      ++rejects;
    }
  }
  ASSERT_GT(admits, 0);
  ASSERT_GT(removes, 0);

  // Cached bounds served over the wire match the replay's bound cache.
  for (const auto handle : live) {
    const Json reply = cli_json("query --handle " + std::to_string(handle));
    EXPECT_TRUE(reply.get("ok")->as_bool());
    EXPECT_EQ(reply.get("bound")->as_int(), *replay.bound_of(handle));
  }

  // SNAPSHOT returns the identical population.
  const Json snap = cli_json("snapshot");
  EXPECT_EQ(snap.get("size")->as_int(),
            static_cast<std::int64_t>(replay.size()));
  EXPECT_EQ(snap.get("csv")->as_string(),
            core::streams_to_csv(replay.snapshot()));

  // METRICS accounts for everything this test sent.
  const Json metrics = cli_json("raw '{\"verb\":\"METRICS\"}'");
  EXPECT_EQ(verb_count(metrics, "REQUEST"), admits + rejects);
  EXPECT_EQ(metric_count(metrics, "wormrt_admission_decisions_total",
                         "decision", "admitted"),
            admits);
  EXPECT_EQ(metric_count(metrics, "wormrt_admission_decisions_total",
                         "decision", "rejected"),
            rejects);
  EXPECT_EQ(verb_count(metrics, "REMOVE"), removes);
  EXPECT_EQ(metric_count(metrics, "wormrt_population"),
            static_cast<std::int64_t>(replay.size()));
  EXPECT_EQ(metric_count(metrics, "wormrt_admission_latency_us", "", "",
                         "count"),
            admits + rejects);
}

TEST_F(DaemonE2E, CliExitCodesAndRawVerb) {
  std::string out;
  EXPECT_EQ(cli("request --src 0 --dst 5 --priority 2 --period 50 "
                "--length 20 --deadline 250",
                &out),
            0);
  // Unknown handle: protocol-level error, exit 1.
  EXPECT_EQ(cli("query --handle 999", &out), 1);
  // Raw protocol line passthrough.
  EXPECT_EQ(cli("raw '{\"verb\":\"METRICS\"}'", &out), 0);
  std::string error;
  const Json metrics = Json::parse(first_line(out), &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(verb_count(metrics, "REQUEST"), 1);
  // Malformed raw line: error reply, exit 1.
  EXPECT_EQ(cli("raw 'not json'", &out), 1);
  EXPECT_NE(first_line(out).find("bad json"), std::string::npos) << out;
}

TEST_F(DaemonE2E, MetricsCommandServesValidPrometheusText) {
  std::string out;
  ASSERT_EQ(cli("request --src 0 --dst 5 --priority 2 --period 50 "
                "--length 20 --deadline 250",
                &out),
            0);
  ASSERT_EQ(cli("metrics", &out), 0);
  // The cli unescapes the exposition: multi-line Prometheus text, not a
  // JSON line.
  EXPECT_EQ(out.rfind("# ", 0), 0u) << out;
  EXPECT_NE(out.find("# TYPE wormrt_requests_total counter"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("wormrt_requests_total{verb=\"REQUEST\"} 1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("wormrt_admission_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("wormrt_threadpool_workers"), std::string::npos) << out;
  EXPECT_NE(out.find("wormrt_engine_adds_total 1"), std::string::npos) << out;
  // Every non-comment line is "series value".
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_LT(space + 1, line.size()) << line;
  }
}

TEST_F(DaemonE2E, ExplainCommandRendersTheProvenanceTree) {
  int status = 0;
  const Json admitted = cli_json(
      "request --src 0 --dst 5 --priority 2 --period 50 --length 20 "
      "--deadline 250",
      &status);
  ASSERT_EQ(status, 0);
  const std::int64_t handle = admitted.get("handle")->as_int();

  // The rendered tree, unescaped.
  std::string out;
  ASSERT_EQ(cli("explain --handle " + std::to_string(handle), &out), 0);
  EXPECT_NE(out.find("U(stream"), std::string::npos) << out;
  EXPECT_NE(out.find("base latency"), std::string::npos) << out;

  // The same verb over raw JSON decomposes the QUERY bound exactly.
  const Json query = cli_json("query --handle " + std::to_string(handle));
  const Json explain = cli_json(
      "raw '{\"verb\":\"EXPLAIN\",\"handle\":" + std::to_string(handle) +
      "}'");
  ASSERT_TRUE(explain.get("ok")->as_bool());
  EXPECT_EQ(explain.get("bound")->as_int(), query.get("bound")->as_int());
  EXPECT_EQ(explain.get("base_latency")->as_int() +
                explain.get("interference")->as_int(),
            explain.get("bound")->as_int());

  EXPECT_EQ(cli("explain --handle 99999", &out), 1);
}

/// Launches its own daemon with --trace, works it, shuts it down, and
/// schema-checks the Chrome trace_event JSON it wrote.  The file name is
/// fixed: CI uploads build/tests/wormrtd_e2e_trace.json as an artifact.
TEST(DaemonTrace, TraceFlagWritesChromeTraceEventJson) {
  const char* kTraceFile = "wormrtd_e2e_trace.json";
  ::unlink(kTraceFile);
  char socket_path[128];
  std::snprintf(socket_path, sizeof socket_path, "/tmp/wormrtd-trace-%d.sock",
                static_cast<int>(::getpid()));
  const std::string command = std::string(WORMRTD_BIN) + " --socket " +
                              socket_path + " --mesh 8 --threads 1 --trace " +
                              kTraceFile;
  FILE* daemon = ::popen(command.c_str(), "r");
  ASSERT_NE(daemon, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof line, daemon), nullptr);
  ASSERT_EQ(std::string(line).rfind("READY unix ", 0), 0u) << line;

  std::string out;
  for (int i = 0; i < 3; ++i) {
    run(std::string(WORMRT_CLI_BIN) + " --socket " + socket_path +
            " request --src " + std::to_string(i) + " --dst " +
            std::to_string(10 + i) +
            " --priority 2 --period 50 --length 10 --deadline 250",
        &out);
  }
  run(std::string(WORMRT_CLI_BIN) + " --socket " + socket_path + " shutdown",
      &out);
  ::pclose(daemon);  // waits: the trace is written on shutdown
  ::unlink(socket_path);

  FILE* f = std::fopen(kTraceFile, "r");
  ASSERT_NE(f, nullptr) << "daemon did not write " << kTraceFile;
  std::string text;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(f);

  std::string error;
  const Json doc = Json::parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get("displayTimeUnit")->as_string(), "ms");
  const Json* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->items().empty());

  bool saw_handle_line = false, saw_cal_u = false;
  for (const Json& e : events->items()) {
    ASSERT_TRUE(e.is_object());
    EXPECT_TRUE(e.get("name")->is_string());
    EXPECT_EQ(e.get("cat")->as_string(), "wormrt");
    EXPECT_EQ(e.get("ph")->as_string(), "X");
    EXPECT_GE(e.get("ts")->as_int(), 0);
    EXPECT_GE(e.get("dur")->as_int(), 0);
    EXPECT_EQ(e.get("pid")->as_int(), 1);
    EXPECT_GE(e.get("tid")->as_int(), 1);
    saw_handle_line |= e.get("name")->as_string() == "handle_line";
    saw_cal_u |= e.get("name")->as_string() == "cal_u";
  }
  // The daemon's spans cover both layers: the service verb path and the
  // analysis kernel beneath it.
  EXPECT_TRUE(saw_handle_line);
  EXPECT_TRUE(saw_cal_u);
}

TEST_F(DaemonE2E, CliExitCodesCoverRejectionsAndTransportFailures) {
  std::string out;
  // A hopeless deadline is rejected: ok:true but admitted:false -> 1.
  EXPECT_EQ(cli("request --src 0 --dst 63 --priority 1 --period 50 "
                "--length 20 --deadline 1",
                &out),
            1);
  // Nobody listening: transport failure -> 2.
  EXPECT_EQ(run(std::string(WORMRT_CLI_BIN) +
                    " --socket /tmp/wormrt-no-such-daemon.sock metrics",
                &out),
            2);
  // Same with retries: still a transport failure once they run out.
  EXPECT_EQ(run(std::string(WORMRT_CLI_BIN) +
                    " --socket /tmp/wormrt-no-such-daemon.sock --retries 2 "
                    "metrics",
                &out),
            2);
}

/// Spawned wormrtd whose pid we control — popen cannot deliver SIGKILL.
struct Daemon {
  pid_t pid = -1;
  FILE* out = nullptr;  // the daemon's stdout (READY line)

  void wait_ready() {
    char line[256];
    ASSERT_NE(std::fgets(line, sizeof line, out), nullptr);
    ASSERT_EQ(std::string(line).rfind("READY unix ", 0), 0u) << line;
  }

  void kill_hard() {
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    std::fclose(out);
    pid = -1;
    out = nullptr;
  }

  void reap() {
    int status = 0;
    ::waitpid(pid, &status, 0);
    std::fclose(out);
    pid = -1;
    out = nullptr;
  }
};

Daemon spawn_daemon(const std::vector<std::string>& args) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  Daemon d;
  d.pid = pid;
  d.out = ::fdopen(fds[0], "r");
  return d;
}

TEST(KillRecover, SigkilledDaemonRecoversItsAcknowledgedState) {
  const std::string tag = std::to_string(::getpid());
  const std::string socket_path = "/tmp/wormrtd-recover-" + tag + ".sock";
  const std::string state_dir = "/tmp/wormrtd-recover-state-" + tag;
  std::filesystem::remove_all(state_dir);
  ::unlink(socket_path.c_str());
  const std::vector<std::string> daemon_args = {
      WORMRTD_BIN,  "--socket",        socket_path, "--mesh", "8",
      "--threads",  "1",               "--state-dir", state_dir,
      "--compact-every", "8"};

  // The oracle replays every ACKNOWLEDGED mutation in-process; fsync-
  // before-ack means a SIGKILL at a quiescent point (between calls)
  // loses nothing.
  topo::Mesh mesh(8, 8);
  const route::XYRouting routing;
  core::AnalysisConfig daemon_defaults;
  daemon_defaults.credit_slack_guard = true;  // the daemon's default gate
  core::AdmissionController oracle(mesh, routing, daemon_defaults);
  std::vector<core::AdmissionController::Handle> live;
  util::Rng rng(77);

  const auto churn = [&](svc::Client& client, int ops) {
    for (int i = 0; i < ops; ++i) {
      std::string reply_line, error;
      std::string parse_error;
      if (!live.empty() && rng.bernoulli(0.3)) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        const auto handle = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        Json req = Json::object();
        req.set("verb", "REMOVE");
        req.set("handle", handle);
        ASSERT_TRUE(client.call(req.dump(), &reply_line, &error)) << error;
        const Json reply = Json::parse(reply_line, &parse_error);
        ASSERT_TRUE(parse_error.empty()) << parse_error;
        ASSERT_TRUE(reply.get("ok")->as_bool()) << reply_line;
        EXPECT_EQ(reply.get("removed")->as_bool(), oracle.remove(handle));
        continue;
      }
      const int src = static_cast<int>(rng.uniform_int(0, 63));
      const int dst = (src + static_cast<int>(rng.uniform_int(1, 63))) % 64;
      Json req = Json::object();
      req.set("verb", "REQUEST");
      req.set("src", std::int64_t{src});
      req.set("dst", std::int64_t{dst});
      req.set("priority", rng.uniform_int(1, 4));
      req.set("period", rng.uniform_int(40, 90));
      req.set("length", rng.uniform_int(1, 16));
      req.set("deadline", rng.uniform_int(30, 200));
      const auto expect = oracle.request(
          src, dst, static_cast<int>(req.get("priority")->as_int()),
          req.get("period")->as_int(), req.get("length")->as_int(),
          req.get("deadline")->as_int());
      ASSERT_TRUE(client.call(req.dump(), &reply_line, &error)) << error;
      const Json reply = Json::parse(reply_line, &parse_error);
      ASSERT_TRUE(parse_error.empty()) << parse_error;
      ASSERT_TRUE(reply.get("ok")->as_bool()) << reply_line;
      ASSERT_EQ(reply.get("admitted")->as_bool(), expect.admitted)
          << reply_line;
      if (expect.admitted) {
        ASSERT_EQ(reply.get("handle")->as_int(), expect.handle);
        live.push_back(expect.handle);
      }
    }
  };

  const auto verify_recovered = [&](svc::Client& client) {
    std::string reply_line, error, parse_error;
    for (const auto handle : live) {
      Json req = Json::object();
      req.set("verb", "QUERY");
      req.set("handle", handle);
      ASSERT_TRUE(client.call(req.dump(), &reply_line, &error)) << error;
      const Json reply = Json::parse(reply_line, &parse_error);
      ASSERT_TRUE(reply.get("ok")->as_bool()) << reply_line;
      EXPECT_EQ(reply.get("bound")->as_int(), *oracle.bound_of(handle));
    }
    ASSERT_TRUE(client.call("{\"verb\":\"SNAPSHOT\"}", &reply_line, &error))
        << error;
    const Json snap = Json::parse(reply_line, &parse_error);
    ASSERT_TRUE(snap.get("ok")->as_bool()) << reply_line;
    EXPECT_EQ(snap.get("size")->as_int(),
              static_cast<std::int64_t>(oracle.size()));
    EXPECT_EQ(snap.get("csv")->as_string(),
              core::streams_to_csv(oracle.snapshot()));
  };

  Daemon daemon = spawn_daemon(daemon_args);
  daemon.wait_ready();

  // Three kill/recover cycles; churn grows state across all of them.
  for (int cycle = 0; cycle < 3; ++cycle) {
    svc::Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(socket_path, &error)) << error;
    churn(client, 15);
    client.close();
    daemon.kill_hard();  // SIGKILL: no shutdown path runs, no unlink

    // The restart reclaims the stale socket and replays the journal.
    daemon = spawn_daemon(daemon_args);
    daemon.wait_ready();
    svc::Client verifier;
    ASSERT_TRUE(verifier.connect_unix(socket_path, &error)) << error;
    verify_recovered(verifier);
    verifier.close();
  }
  ASSERT_FALSE(live.empty());

  // A clean shutdown also preserves state.
  {
    svc::Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(socket_path, &error)) << error;
    std::string reply_line;
    ASSERT_TRUE(client.call("{\"verb\":\"SHUTDOWN\"}", &reply_line, &error))
        << error;
    client.close();
  }
  daemon.reap();
  daemon = spawn_daemon(daemon_args);
  daemon.wait_ready();
  {
    svc::Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(socket_path, &error)) << error;
    verify_recovered(client);
    std::string reply_line;
    ASSERT_TRUE(client.call("{\"verb\":\"SHUTDOWN\"}", &reply_line, &error))
        << error;
    client.close();
  }
  daemon.reap();
  std::filesystem::remove_all(state_dir);
  ::unlink(socket_path.c_str());
}

TEST(KillRecover, RestartUnderAnotherContractIsRefusedUntouched) {
  // The buffer depth and the credit-slack guard belong to the contract a
  // journaled population was admitted under: a restart under other
  // settings exits 1 naming the fabric before READY and leaves the state
  // dir as it was; the original flags then recover the population.
  const std::string tag = std::to_string(::getpid());
  const std::string socket_path = "/tmp/wormrtd-contract-" + tag + ".sock";
  const std::string state_dir = "/tmp/wormrtd-contract-state-" + tag;
  std::filesystem::remove_all(state_dir);
  ::unlink(socket_path.c_str());
  const std::vector<std::string> daemon_args = {
      WORMRTD_BIN, "--socket",    socket_path, "--mesh",          "8",
      "--threads", "1",           "--state-dir", state_dir, "--compact-every",
      "4"};
  const auto call = [&](const std::string& line) {
    svc::Client client;
    std::string reply_line, error, parse_error;
    EXPECT_TRUE(client.connect_unix(socket_path, &error)) << error;
    EXPECT_TRUE(client.call(line, &reply_line, &error)) << error;
    return Json::parse(reply_line, &parse_error);
  };
  const auto state_bytes = [&] {
    std::string bytes;
    for (const char* file : {"/journal.wal", "/snapshot.bin"}) {
      std::ifstream f(state_dir + file, std::ios::binary);
      bytes.append(std::istreambuf_iterator<char>(f),
                   std::istreambuf_iterator<char>());
      bytes += '|';
    }
    return bytes;
  };

  Daemon daemon = spawn_daemon(daemon_args);
  daemon.wait_ready();
  std::int64_t admitted = 0;
  for (int i = 0; i < 6; ++i) {  // a snapshot after 4, then WAL records
    const Json reply = call(R"({"verb":"REQUEST","src":)" +
                            std::to_string(i) + R"(,"dst":)" +
                            std::to_string(i + 9) +
                            R"(,"priority":1,"period":100,"length":4,)"
                            R"("deadline":100})");
    admitted += reply.get("admitted")->as_bool() ? 1 : 0;
  }
  ASSERT_GT(admitted, 4);
  call(R"({"verb":"SHUTDOWN"})");
  daemon.reap();

  const std::string before = state_bytes();
  std::string base;
  for (const std::string& arg : daemon_args) {
    base += arg + " ";
  }
  for (const char* other : {"--no-credit-slack-guard", "--buffer-depth 4"}) {
    std::string out;
    EXPECT_EQ(run("timeout 20 " + base + other + " 2>&1", &out), 1)
        << other << ": " << out;
    EXPECT_NE(out.find("another fabric"), std::string::npos) << out;
    EXPECT_EQ(out.find("READY"), std::string::npos) << out;
    EXPECT_EQ(state_bytes(), before) << other;
  }

  daemon = spawn_daemon(daemon_args);
  daemon.wait_ready();
  EXPECT_EQ(call(R"({"verb":"SNAPSHOT"})").get("size")->as_int(), admitted);
  call(R"({"verb":"SHUTDOWN"})");
  daemon.reap();
  std::filesystem::remove_all(state_dir);
  ::unlink(socket_path.c_str());
}

TEST(KillRecover, SigkilledDaemonRecoversFaultStateAndDetours) {
  // A LINK_DOWN is acknowledged (fsync-before-ack), the daemon is
  // SIGKILLed, and the restart must rebuild the faulted fabric, the
  // eviction/reroute cascade, and the detour route orders exactly — on
  // a topology object that starts pristine.
  const std::string tag = std::to_string(::getpid());
  const std::string socket_path = "/tmp/wormrtd-fault-" + tag + ".sock";
  const std::string state_dir = "/tmp/wormrtd-fault-state-" + tag;
  std::filesystem::remove_all(state_dir);
  ::unlink(socket_path.c_str());
  const std::vector<std::string> daemon_args = {
      WORMRTD_BIN,  "--socket",        socket_path, "--mesh", "8",
      "--threads",  "1",               "--state-dir", state_dir,
      "--compact-every", "8"};

  topo::Mesh mesh(8, 8);
  const route::XYRouting routing;
  core::AnalysisConfig daemon_defaults;
  daemon_defaults.credit_slack_guard = true;  // the daemon's default gate
  core::AdmissionController oracle(mesh, routing, daemon_defaults);

  const auto call_json = [](svc::Client& client, const Json& req) {
    std::string reply_line, error, parse_error;
    EXPECT_TRUE(client.call(req.dump(), &reply_line, &error)) << error;
    const Json reply = Json::parse(reply_line, &parse_error);
    EXPECT_TRUE(parse_error.empty()) << parse_error << " in " << reply_line;
    return reply;
  };
  const auto request = [&](svc::Client& client, int src, int dst) {
    Json req = Json::object();
    req.set("verb", "REQUEST");
    req.set("src", std::int64_t{src});
    req.set("dst", std::int64_t{dst});
    req.set("priority", std::int64_t{2});
    req.set("period", std::int64_t{200});
    req.set("length", std::int64_t{6});
    req.set("deadline", std::int64_t{200});
    const Json reply = call_json(client, req);
    const auto expect = oracle.request(src, dst, 2, 200, 6, 200);
    EXPECT_EQ(reply.get("admitted")->as_bool(), expect.admitted);
    if (expect.admitted) {
      EXPECT_EQ(reply.get("handle")->as_int(), expect.handle);
      EXPECT_EQ(reply.get("bound")->as_int(), expect.bound);
    }
    return expect;
  };
  const auto link = [&](svc::Client& client, const char* verb) {
    Json req = Json::object();
    req.set("verb", verb);
    req.set("src", std::int64_t{1});
    req.set("dst", std::int64_t{2});
    return call_json(client, req);
  };
  const auto verify_snapshot = [&](svc::Client& client) {
    Json req = Json::object();
    req.set("verb", "SNAPSHOT");
    const Json snap = call_json(client, req);
    ASSERT_TRUE(snap.get("ok")->as_bool());
    EXPECT_EQ(snap.get("csv")->as_string(),
              core::streams_to_csv(oracle.snapshot()));
  };

  Daemon daemon = spawn_daemon(daemon_args);
  daemon.wait_ready();
  std::vector<core::AdmissionController::Handle> live;
  {
    svc::Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(socket_path, &error)) << error;
    // Detourable (0,0)->(2,1), pinned-to-row-0 (0,0)->(3,0), far away.
    for (const auto& s : {std::pair{0, 10}, {0, 3}, {40, 43}}) {
      const auto d = request(client, s.first, s.second);
      ASSERT_TRUE(d.admitted);
      live.push_back(d.handle);
    }

    // Take down the (1,0)->(2,0) spine channel; ack lands on disk.
    const Json down = link(client, "LINK_DOWN");
    ASSERT_TRUE(down.get("ok")->as_bool()) << down.dump();
    const auto m = oracle.link_down(mesh.channel_between(1, 2));
    ASSERT_TRUE(m.changed);
    ASSERT_EQ(m.rerouted.size(), 1u);
    ASSERT_EQ(m.evicted.size(), 1u);
    for (const auto h : m.evicted) {
      live.erase(std::remove(live.begin(), live.end(), h), live.end());
    }
    client.close();
  }
  daemon.kill_hard();  // SIGKILL right after the fault: no shutdown path

  daemon = spawn_daemon(daemon_args);
  daemon.wait_ready();
  {
    svc::Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(socket_path, &error)) << error;
    // Bounds of the survivors (including the rerouted one) match the
    // never-crashed oracle, and the full CSV snapshot is identical.
    for (const auto handle : live) {
      Json q = Json::object();
      q.set("verb", "QUERY");
      q.set("handle", handle);
      const Json reply = call_json(client, q);
      ASSERT_TRUE(reply.get("ok")->as_bool());
      EXPECT_EQ(reply.get("bound")->as_int(), *oracle.bound_of(handle));
    }
    verify_snapshot(client);

    // The fault flag itself was recovered: downing the channel again is
    // a no-op error, and a new admission must detour around it.
    const Json again = link(client, "LINK_DOWN");
    EXPECT_FALSE(again.get("ok")->as_bool());
    EXPECT_NE(again.get("error")->as_string().find("already down"),
              std::string::npos);
    const auto late = request(client, 1, 26);  // (1,0)->(2,3)
    ASSERT_TRUE(late.admitted);
    EXPECT_EQ(late.route_order, route::kRouteOrderReversed);
    live.push_back(late.handle);

    // Repair the channel, then SIGKILL before anything else happens.
    const Json up = link(client, "LINK_UP");
    ASSERT_TRUE(up.get("ok")->as_bool()) << up.dump();
    const auto m = oracle.link_up(mesh.channel_between(1, 2));
    ASSERT_TRUE(m.changed);
    client.close();
  }
  daemon.kill_hard();

  daemon = spawn_daemon(daemon_args);
  daemon.wait_ready();
  {
    svc::Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(socket_path, &error)) << error;
    // The repair survived too: LINK_UP is now the no-op, and the
    // detoured streams kept their reversed-order routes (no silent
    // migration back on repair).
    const Json up = link(client, "LINK_UP");
    EXPECT_FALSE(up.get("ok")->as_bool());
    EXPECT_NE(up.get("error")->as_string().find("already up"),
              std::string::npos);
    verify_snapshot(client);
    std::string reply_line;
    ASSERT_TRUE(client.call("{\"verb\":\"SHUTDOWN\"}", &reply_line, &error))
        << error;
    client.close();
  }
  daemon.reap();
  std::filesystem::remove_all(state_dir);
  ::unlink(socket_path.c_str());
}

TEST(DaemonBatch, CliBatchCommandPipelinesStdinLines) {
  // The `batch` CLI command reads protocol lines from stdin, sends them
  // all in one pipelined write, and prints one response line each — in
  // order.  Drive the real daemon + real cli through a shell pipe.
  char socket_path[128];
  std::snprintf(socket_path, sizeof socket_path, "/tmp/wormrtd-batch-%d.sock",
                static_cast<int>(::getpid()));
  const std::string command = std::string(WORMRTD_BIN) + " --socket " +
                              socket_path + " --mesh 8 --threads 1";
  FILE* daemon = ::popen(command.c_str(), "r");
  ASSERT_NE(daemon, nullptr);
  char ready[256];
  ASSERT_NE(std::fgets(ready, sizeof ready, daemon), nullptr);
  ASSERT_EQ(std::string(ready).rfind("READY unix ", 0), 0u) << ready;

  // Six disjoint single-hop streams (node i straight down to node
  // 8 + i): no shared links, so every request is admitted and the
  // handles come back dense.
  std::string lines;
  for (int i = 0; i < 6; ++i) {
    lines += "{\"verb\":\"REQUEST\",\"src\":" + std::to_string(i) +
             ",\"dst\":" + std::to_string(8 + i) +
             ",\"priority\":2,\"period\":50,\"length\":10,"
             "\"deadline\":250}\\n";
  }
  lines += "{\"verb\":\"METRICS\"}\\n";
  std::string out;
  const int status = run("printf '" + lines + "' | " + WORMRT_CLI_BIN +
                             " --socket " + socket_path + " batch",
                         &out);
  EXPECT_EQ(status, 0) << out;

  // Seven response lines, in request order: handles 0..5, then METRICS
  // counting exactly the six requests.
  std::istringstream responses(out);
  std::string line;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(static_cast<bool>(std::getline(responses, line))) << out;
    std::string error;
    const Json reply = Json::parse(line, &error);
    ASSERT_TRUE(error.empty()) << error << " in: " << line;
    ASSERT_TRUE(reply.is_object()) << line;
    const Json* admitted = reply.get("admitted");
    ASSERT_NE(admitted, nullptr) << line;
    EXPECT_TRUE(admitted->as_bool()) << line;
    const Json* handle = reply.get("handle");
    ASSERT_NE(handle, nullptr) << line;
    EXPECT_EQ(handle->as_int(), i) << line;
  }
  ASSERT_TRUE(static_cast<bool>(std::getline(responses, line))) << out;
  std::string error;
  const Json metrics = Json::parse(line, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(verb_count(metrics, "REQUEST"), 6);

  run(std::string(WORMRT_CLI_BIN) + " --socket " + socket_path + " shutdown",
      &out);
  ::pclose(daemon);
  ::unlink(socket_path);
}

TEST(DaemonFlags, OutOfRangeMeshAndPortExitTwo) {
  // A value an int cannot hold is refused, not narrowed (4294967298
  // narrows to a 2x2 mesh, 4294967296 to port 0, an ephemeral one),
  // before a mesh is built or a socket opened.  `timeout` keeps a daemon
  // that starts anyway from hanging the test.
  const std::string socket =
      "/tmp/wormrtd-flags-" + std::to_string(::getpid()) + ".sock";
  for (const std::string& flags :
       {"--socket " + socket + " --mesh 4294967298",
        "--socket " + socket + " --mesh 4x4294967298",
        "--socket " + socket + " --mesh 46341x46341",  // > INT_MAX nodes
        std::string("--port 4294967296"), std::string("--port 65536"),
        "--socket " + socket + " --port -2"}) {
    std::string out;
    EXPECT_EQ(run("timeout 10 " + std::string(WORMRTD_BIN) + " " + flags +
                      " 2>/dev/null",
                  &out),
              2)
        << flags;
    EXPECT_EQ(out.find("READY"), std::string::npos) << flags;
  }
  ::unlink(socket.c_str());
  // wormrt-cli refuses them too, before connecting: 4295006939 is 39643
  // + 2^32, and `health` exits 3, not 2, when it cannot connect.
  for (const char* port : {"4295006939", "65536", "-2"}) {
    std::string out;
    EXPECT_EQ(run(std::string(WORMRT_CLI_BIN) + " --port " + port +
                      " health 2>/dev/null",
                  &out),
              2)
        << port;
  }
}

TEST(DaemonShutdown, ShutdownIsPromptDespiteIdleConnections) {
  // A daemon with open idle connections must still stop quickly: the
  // eventfd wake-up, not the 30 s idle timer, ends the epoll loops.
  char socket_path[128];
  std::snprintf(socket_path, sizeof socket_path,
                "/tmp/wormrtd-promptstop-%d.sock", static_cast<int>(::getpid()));
  Daemon daemon = spawn_daemon({WORMRTD_BIN, "--socket", socket_path, "--mesh",
                                "8", "--threads", "1"});
  daemon.wait_ready();

  std::vector<std::unique_ptr<svc::Client>> idlers;
  std::string error;
  for (int i = 0; i < 4; ++i) {
    idlers.push_back(std::make_unique<svc::Client>());
    ASSERT_TRUE(idlers.back()->connect_unix(socket_path, &error)) << error;
  }
  svc::Client talker;
  ASSERT_TRUE(talker.connect_unix(socket_path, &error)) << error;
  std::string reply;
  ASSERT_TRUE(talker.call("{\"verb\":\"SHUTDOWN\"}", &reply, &error)) << error;

  const auto t0 = std::chrono::steady_clock::now();
  int status = 0;
  ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 3000) << "shutdown waited on idle connections";
  std::fclose(daemon.out);
  daemon.pid = -1;
  daemon.out = nullptr;

  talker.close();
  for (auto& c : idlers) {
    c->close();
  }
  ::unlink(socket_path);
}

TEST(TcpLatency, SequentialCallsAreNotNagleThrottled) {
  // TCP_NODELAY on both sides: 200 sequential small request/response
  // round trips over loopback must complete in single-digit
  // milliseconds each, never the 40 ms delayed-ACK/Nagle beat.  The
  // budget is deliberately loose (25 ms/call) so only a genuine Nagle
  // regression — not scheduler noise — trips it.
  topo::Mesh mesh(8, 8);
  route::XYRouting routing;
  svc::Service service(mesh, routing);
  svc::ServerConfig config;
  config.tcp_port = 0;
  svc::Server server(service, config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  svc::Client client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port(), &error)) << error;

  const int kCalls = 200;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i) {
    std::string reply;
    ASSERT_TRUE(client.call("{\"verb\":\"HISTORY\"}", &reply, &error))
        << error;
  }
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed_ms, kCalls * 25) << "round trips look Nagle-throttled";

  client.close();
  server.stop();
}

void noop_handler(int) {}

TEST(SignalDuringRecv, CallsSurviveASignalStorm) {
  // Regression for the recv() EINTR path (svc/server.cpp recv_some): a
  // signal delivered while a connection worker or the client blocks in
  // recv() must not abort the call.  SIGUSR1 is installed WITHOUT
  // SA_RESTART so every delivery genuinely interrupts the syscall.
  struct sigaction action = {};
  action.sa_handler = noop_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction previous = {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  topo::Mesh mesh(8, 8);
  route::XYRouting routing;
  svc::Service service(mesh, routing);
  svc::ServerConfig config;
  config.tcp_port = 0;
  config.workers = 2;
  svc::Server server(service, config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  svc::Client client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port(), &error)) << error;

  std::atomic<bool> done{false};
  const pthread_t victim = pthread_self();
  std::thread storm([&] {
    while (!done.load(std::memory_order_acquire)) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  util::Rng rng(2024);
  for (int i = 0; i < 300; ++i) {
    Json request = Json::object();
    request.set("verb", "REQUEST");
    request.set("src", rng.uniform_int(0, 63));
    std::int64_t dst = rng.uniform_int(0, 62);
    if (dst >= request.get("src")->as_int()) {
      ++dst;
    }
    request.set("dst", dst);
    request.set("priority", rng.uniform_int(1, 4));
    request.set("period", rng.uniform_int(40, 100));
    request.set("length", rng.uniform_int(1, 16));
    request.set("deadline", rng.uniform_int(30, 90));
    std::string reply_line;
    ASSERT_TRUE(client.call(request.dump(), &reply_line, &error))
        << "call " << i << ": " << error;
    std::string parse_error;
    const Json reply = Json::parse(reply_line, &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    EXPECT_TRUE(reply.get("ok")->as_bool()) << reply_line;
  }

  done.store(true, std::memory_order_release);
  storm.join();
  client.close();
  server.stop();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);
}

// --- observability verbs over the wire -------------------------------

std::string read_file(const std::string& path) {
  std::string text;
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return text;
  }
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(f);
  return text;
}

std::vector<Json> parse_jsonl(const std::string& text) {
  std::vector<Json> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
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

TEST_F(DaemonE2E, ReportHealthHistoryServeOverTheSocket) {
  std::string out;
  ASSERT_EQ(cli("request --src 0 --dst 5 --priority 2 --period 500 "
                "--length 20 --deadline 2500",
                &out),
            0);
  std::string parse_error;
  const std::int64_t handle =
      Json::parse(first_line(out), &parse_error).get("handle")->as_int();
  ASSERT_TRUE(parse_error.empty()) << parse_error;

  // Conforming report: ok, no violation, healthy daemon, exit 0.
  const Json report = cli_json("report --handle " + std::to_string(handle) +
                               " --latency 1");
  EXPECT_TRUE(report.get("ok")->as_bool());
  EXPECT_FALSE(report.get("violation")->as_bool());
  int status = 0;
  const Json health = cli_json("health", &status);
  EXPECT_EQ(status, 0);
  EXPECT_EQ(health.get("status")->as_string(), "ok");

  // BATCHed REPORT: the array form inside the daemon's BATCH verb, the
  // one-round-trip path a measurement harness uses.
  const Json batched = cli_json(
      "raw "
      "'{\"verb\":\"BATCH\",\"requests\":[{\"verb\":\"REPORT\",\"reports\":"
      "[{\"handle\":" +
      std::to_string(handle) +
      ",\"observed_latency\":2},{\"handle\":9999,\"observed_latency\":2}]},"
      "{\"verb\":\"HEALTH\"}]}'");
  ASSERT_TRUE(batched.get("ok")->as_bool());
  const auto& replies = batched.get("replies")->items();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].get("accepted")->as_int(), 1);
  EXPECT_EQ(replies[0].get("unknown")->as_int(), 1);
  EXPECT_EQ(replies[1].get("status")->as_string(), "ok");

  // HISTORY serves the sampler's rings (the daemon default is 1s ticks
  // plus one immediate startup sample, so samples exist right away).
  const Json history = cli_json("history --series population,requests_total");
  ASSERT_TRUE(history.get("ok")->as_bool());
  ASSERT_EQ(history.get("series")->items().size(), 2u);
  for (const Json& s : history.get("series")->items()) {
    EXPECT_FALSE(s.get("samples")->items().empty());
  }
}

TEST_F(DaemonE2E, CliHealthExitCodeMirrorsDegradedStatus) {
  std::string out;
  ASSERT_EQ(cli("request --src 0 --dst 5 --priority 2 --period 500 "
                "--length 20 --deadline 2500",
                &out),
            0);
  std::string parse_error;
  const std::int64_t handle =
      Json::parse(first_line(out), &parse_error).get("handle")->as_int();

  // A reported latency far above the bound flips the daemon to
  // degraded; the cli's exit code mirrors it for liveness probes.
  EXPECT_EQ(cli("report --handle " + std::to_string(handle) +
                    " --latency 90000",
                &out),
            0);
  int status = 0;
  const Json health = cli_json("health", &status);
  EXPECT_EQ(status, 1);
  EXPECT_EQ(health.get("status")->as_string(), "degraded");
  bool saw_reason = false;
  for (const Json& r : health.get("reasons")->items()) {
    saw_reason |= r.as_string().find("bound_violations") != std::string::npos;
  }
  EXPECT_TRUE(saw_reason);

  // Transport failure is exit 3 for `health` (0/1/2 mean statuses).
  EXPECT_EQ(run(std::string(WORMRT_CLI_BIN) +
                    " --socket /tmp/wormrt-no-such-daemon.sock health",
                &out),
            3);
}

TEST(DaemonObs, AuditLogAgreesWithJournalReplay) {
  const std::string tag = std::to_string(::getpid());
  const std::string socket_path = "/tmp/wormrtd-audit-" + tag + ".sock";
  const std::string state_dir = "/tmp/wormrtd-audit-state-" + tag;
  const std::string audit_path = "/tmp/wormrtd-audit-" + tag + ".jsonl";
  std::filesystem::remove_all(state_dir);
  ::unlink(socket_path.c_str());
  ::unlink(audit_path.c_str());

  Daemon daemon = spawn_daemon({WORMRTD_BIN, "--socket", socket_path,
                                "--mesh", "8", "--threads", "1",
                                "--state-dir", state_dir, "--audit-log",
                                audit_path});
  daemon.wait_ready();

  svc::Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path, &error)) << error;
  util::Rng rng(4242);
  std::vector<std::int64_t> live;
  for (int i = 0; i < 60; ++i) {
    std::string reply_line, parse_error;
    if (!live.empty() && rng.bernoulli(0.35)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      Json req = Json::object();
      req.set("verb", "REMOVE");
      req.set("handle", live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(client.call(req.dump(), &reply_line, &error)) << error;
      continue;
    }
    const int src = static_cast<int>(rng.uniform_int(0, 63));
    const int dst = (src + static_cast<int>(rng.uniform_int(1, 63))) % 64;
    Json req = Json::object();
    req.set("verb", "REQUEST");
    req.set("src", std::int64_t{src});
    req.set("dst", std::int64_t{dst});
    req.set("priority", rng.uniform_int(1, 4));
    req.set("period", rng.uniform_int(200, 600));
    req.set("length", rng.uniform_int(1, 16));
    req.set("deadline", rng.uniform_int(100, 2000));
    ASSERT_TRUE(client.call(req.dump(), &reply_line, &error)) << error;
    const Json reply = Json::parse(reply_line, &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    ASSERT_TRUE(reply.get("ok")->as_bool()) << reply_line;
    if (reply.get("admitted")->as_bool()) {
      live.push_back(reply.get("handle")->as_int());
    }
  }
  client.close();
  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
  daemon.reap();

  // Replay the audit log: admitted requests minus removals must equal
  // the set the journal recovers — the audit trail and the WAL are two
  // views of one history.
  const std::vector<Json> records = parse_jsonl(read_file(audit_path));
  ASSERT_FALSE(records.empty());
  std::vector<std::int64_t> audit_live;
  std::int64_t last_lsn = 0;
  for (const Json& rec : records) {
    const std::string event = rec.get("event")->as_string();
    if (event == "request" && rec.get("admitted")->as_bool()) {
      audit_live.push_back(rec.get("handle")->as_int());
      // Durable admissions carry the covering journal LSN, in order.
      const Json* lsn = rec.get("lsn");
      ASSERT_NE(lsn, nullptr);
      EXPECT_GT(lsn->as_int(), last_lsn);
      last_lsn = lsn->as_int();
      EXPECT_TRUE(rec.get("durable")->as_bool());
    } else if (event == "remove") {
      audit_live.erase(std::remove(audit_live.begin(), audit_live.end(),
                                   rec.get("handle")->as_int()),
                       audit_live.end());
    }
  }
  std::sort(audit_live.begin(), audit_live.end());
  std::sort(live.begin(), live.end());
  EXPECT_EQ(audit_live, live);

  // The journal's view: recover in-process and compare populations.
  topo::Mesh mesh(8, 8);
  route::XYRouting routing;
  core::AnalysisConfig daemon_defaults;
  daemon_defaults.credit_slack_guard = true;
  svc::ServiceOptions options;
  options.state_dir = state_dir;
  svc::Service recovered(mesh, routing, daemon_defaults, options);
  ASSERT_TRUE(recovered.open_state(&error)) << error;
  EXPECT_EQ(recovered.population(), audit_live.size());
  for (const std::int64_t handle : audit_live) {
    Json q = Json::object();
    q.set("verb", "QUERY");
    q.set("handle", handle);
    std::string parse_error;
    const Json reply =
        Json::parse(recovered.handle_line(q.dump()), &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    EXPECT_TRUE(reply.get("ok")->as_bool())
        << "audit-live handle " << handle << " missing after replay";
  }

  std::filesystem::remove_all(state_dir);
  ::unlink(audit_path.c_str());
  ::unlink((audit_path + ".1").c_str());
}

TEST(DaemonObs, SigtermFlushesParseableTraceAndAudit) {
  // Shutdown-race regression: SIGTERM (not the SHUTDOWN verb) must
  // still produce a complete, parseable Chrome trace (tmp+rename) and
  // a flushed audit log — no torn JSON from a racing writer.
  const std::string tag = std::to_string(::getpid());
  const std::string socket_path = "/tmp/wormrtd-sigterm-" + tag + ".sock";
  const std::string trace_path = "/tmp/wormrtd-sigterm-" + tag + ".trace";
  const std::string audit_path = "/tmp/wormrtd-sigterm-" + tag + ".jsonl";
  ::unlink(socket_path.c_str());
  ::unlink(trace_path.c_str());
  ::unlink(audit_path.c_str());

  Daemon daemon = spawn_daemon({WORMRTD_BIN, "--socket", socket_path,
                                "--mesh", "8", "--threads", "1", "--trace",
                                trace_path, "--audit-log", audit_path});
  daemon.wait_ready();

  svc::Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(socket_path, &error)) << error;
  for (int i = 0; i < 8; ++i) {
    Json req = Json::object();
    req.set("verb", "REQUEST");
    req.set("src", std::int64_t{i});
    req.set("dst", std::int64_t{i + 16});
    req.set("priority", std::int64_t{2});
    req.set("period", std::int64_t{300});
    req.set("length", std::int64_t{10});
    req.set("deadline", std::int64_t{1500});
    std::string reply_line;
    ASSERT_TRUE(client.call(req.dump(), &reply_line, &error)) << error;
  }
  client.close();
  ASSERT_EQ(::kill(daemon.pid, SIGTERM), 0);
  daemon.reap();

  // The trace parses whole — an interrupted plain fwrite would leave a
  // truncated file that fails right here.
  std::string parse_error;
  const Json trace = Json::parse(read_file(trace_path), &parse_error);
  ASSERT_TRUE(parse_error.empty()) << parse_error;
  ASSERT_TRUE(trace.get("traceEvents")->is_array());
  EXPECT_FALSE(trace.get("traceEvents")->items().empty());

  // Every audit line parses, and all 8 admissions are present.
  const std::vector<Json> records = parse_jsonl(read_file(audit_path));
  EXPECT_EQ(records.size(), 8u);

  ::unlink(socket_path.c_str());
  ::unlink(trace_path.c_str());
  ::unlink(audit_path.c_str());
}

}  // namespace
}  // namespace wormrt
