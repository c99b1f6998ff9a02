// End-to-end replication: real wormrtd primaries and followers (separate
// processes over Unix-domain sockets), real wormrt-cli failover, real
// SIGKILL.  Covers the full lifecycle — follower streaming, read-only
// serving, mutation refusal, snapshot bootstrap of a mid-life primary,
// fingerprint rejection, kill-the-primary promotion with zero acked
// decision loss, and multi-endpoint cli failover.  Binary locations are
// injected by CMake as WORMRTD_BIN / WORMRT_CLI_BIN.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "svc/json.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"

namespace wormrt {
namespace {

using svc::Json;

/// Runs a shell command, captures stdout, returns the exit status.
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

  void terminate() {
    ::kill(pid, SIGTERM);
    reap();
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

Json call_json(svc::Client& client, const Json& request) {
  std::string reply_line, error, parse_error;
  EXPECT_TRUE(client.call(request.dump(), &reply_line, &error)) << error;
  const Json reply = Json::parse(reply_line, &parse_error);
  EXPECT_TRUE(parse_error.empty()) << parse_error << " in " << reply_line;
  return reply;
}

Json request_op(svc::Client& client, int src, int dst, std::int64_t period,
                std::int64_t length, std::int64_t deadline) {
  Json req = Json::object();
  req.set("verb", "REQUEST");
  req.set("src", std::int64_t{src});
  req.set("dst", std::int64_t{dst});
  req.set("priority", std::int64_t{2});
  req.set("period", period);
  req.set("length", length);
  req.set("deadline", deadline);
  return call_json(client, req);
}

/// Polls the follower until its replicated state can answer a QUERY for
/// \p handle, or the deadline passes (replication is asynchronous).
bool wait_replicated(svc::Client& follower, std::int64_t handle,
                     std::int64_t* bound, int deadline_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    Json q = Json::object();
    q.set("verb", "QUERY");
    q.set("handle", handle);
    const Json reply = call_json(follower, q);
    const Json* ok = reply.get("ok");
    if (ok != nullptr && ok->as_bool()) {
      if (bound != nullptr) {
        *bound = reply.get("bound")->as_int();
      }
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// Kill-the-primary failover: synchronous replication means every acked
/// admission is durable on the follower before the client sees it, so a
/// SIGKILL at ANY point — here mid-churn — loses nothing.  After
/// PROMOTE the survivor serves every acked handle with the identical
/// bound and accepts new mutations with continuous handle numbering.
TEST(ReplicationE2E, KillThePrimarySyncFailoverLosesNoAckedDecision) {
  const std::string tag = std::to_string(::getpid());
  const std::string p_sock = "/tmp/wormrt-repl-p-" + tag + ".sock";
  const std::string f_sock = "/tmp/wormrt-repl-f-" + tag + ".sock";
  const std::string p_dir = "/tmp/wormrt-repl-pstate-" + tag;
  const std::string f_dir = "/tmp/wormrt-repl-fstate-" + tag;
  std::filesystem::remove_all(p_dir);
  std::filesystem::remove_all(f_dir);
  ::unlink(p_sock.c_str());
  ::unlink(f_sock.c_str());

  Daemon primary = spawn_daemon(
      {WORMRTD_BIN, "--socket", p_sock, "--mesh", "8", "--threads", "1",
       "--state-dir", p_dir, "--sync-replication",
       "--sync-replication-timeout-ms", "3000"});
  primary.wait_ready();
  Daemon follower = spawn_daemon(
      {WORMRTD_BIN, "--socket", f_sock, "--mesh", "8", "--threads", "1",
       "--state-dir", f_dir, "--follow", "unix:" + p_sock});
  follower.wait_ready();

  svc::Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(p_sock, &error)) << error;

  // Churn: every acked admission's (handle, bound) is the contract the
  // survivor must honour.
  util::Rng rng(99);
  std::map<std::int64_t, std::int64_t> acked;  // handle -> bound
  for (int i = 0; i < 25; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, 63));
    const int dst = (src + static_cast<int>(rng.uniform_int(1, 63))) % 64;
    const Json reply =
        request_op(client, src, dst, rng.uniform_int(200, 600),
                   rng.uniform_int(1, 12), rng.uniform_int(100, 2000));
    ASSERT_TRUE(reply.get("ok")->as_bool());
    if (reply.get("admitted")->as_bool()) {
      acked[reply.get("handle")->as_int()] = reply.get("bound")->as_int();
    }
    if (!acked.empty() && rng.bernoulli(0.2)) {
      Json rm = Json::object();
      rm.set("verb", "REMOVE");
      rm.set("handle", acked.begin()->first);
      ASSERT_TRUE(call_json(client, rm).get("ok")->as_bool());
      acked.erase(acked.begin());
    }
  }
  ASSERT_FALSE(acked.empty());
  // Bounds move as later churn changes the interference set; the
  // contract is the primary's FINAL answer, so re-query every survivor.
  for (auto& [handle, bound] : acked) {
    Json q = Json::object();
    q.set("verb", "QUERY");
    q.set("handle", handle);
    const Json reply = call_json(client, q);
    ASSERT_TRUE(reply.get("ok")->as_bool());
    bound = reply.get("bound")->as_int();
  }
  client.close();

  // The follower serves reads but refuses every mutation.
  svc::Client reader;
  ASSERT_TRUE(reader.connect_unix(f_sock, &error)) << error;
  const Json refused = request_op(reader, 0, 9, 500, 4, 1000);
  EXPECT_FALSE(refused.get("ok")->as_bool());
  EXPECT_EQ(refused.get("error")->as_string(), "not primary");
  std::int64_t replicated_bound = 0;
  EXPECT_TRUE(
      wait_replicated(reader, acked.rbegin()->first, &replicated_bound));
  EXPECT_EQ(replicated_bound, acked.rbegin()->second);
  reader.close();

  primary.kill_hard();  // no shutdown path, mid-life journal left behind

  // cli failover: the primary endpoint is dead, so --server must rotate
  // to the follower; PROMOTE there flips it to primary.
  const std::string servers = "unix:" + p_sock + ",unix:" + f_sock;
  std::string out;
  EXPECT_EQ(run(std::string(WORMRT_CLI_BIN) + " --server " + servers +
                    " promote",
                &out),
            0)
      << out;
  std::string parse_error;
  const Json promoted = Json::parse(first_line(out), &parse_error);
  ASSERT_TRUE(parse_error.empty()) << parse_error;
  EXPECT_EQ(promoted.get("role")->as_string(), "primary");
  EXPECT_GE(promoted.get("epoch")->as_int(), 2);

  // Zero acked-decision loss: every acked handle answers with the bound
  // the dead primary promised.
  svc::Client survivor;
  ASSERT_TRUE(survivor.connect_unix(f_sock, &error)) << error;
  std::int64_t max_handle = -1;
  for (const auto& [handle, bound] : acked) {
    Json q = Json::object();
    q.set("verb", "QUERY");
    q.set("handle", handle);
    const Json reply = call_json(survivor, q);
    ASSERT_TRUE(reply.get("ok")->as_bool()) << "acked handle " << handle
                                            << " lost in failover";
    EXPECT_EQ(reply.get("bound")->as_int(), bound);
    max_handle = std::max(max_handle, handle);
  }

  // The survivor is writable and handle numbering continues — no reuse
  // of the dead primary's namespace.
  const Json fresh = request_op(survivor, 0, 9, 500, 4, 1000);
  ASSERT_TRUE(fresh.get("ok")->as_bool()) << fresh.dump();
  ASSERT_TRUE(fresh.get("admitted")->as_bool());
  EXPECT_GT(fresh.get("handle")->as_int(), max_handle);
  survivor.close();

  // cli requests through the same --server list land on the survivor.
  EXPECT_EQ(run(std::string(WORMRT_CLI_BIN) + " --server " + servers +
                    " request --src 1 --dst 10 --priority 2 --period 500 "
                    "--length 4 --deadline 1000",
                &out),
            0)
      << out;

  run(std::string(WORMRT_CLI_BIN) + " --socket " + f_sock + " shutdown",
      &out);
  follower.reap();
  std::filesystem::remove_all(p_dir);
  std::filesystem::remove_all(f_dir);
  ::unlink(p_sock.c_str());
  ::unlink(f_sock.c_str());
}

/// Satellite: a follower that joins a MID-LIFE primary (restarted with
/// recovered state, so its replication buffer no longer reaches back to
/// LSN 1) must bootstrap via snapshot transfer and still converge to
/// the full state.
TEST(ReplicationE2E, FollowerBootstrapsMidLifePrimaryViaSnapshot) {
  const std::string tag = std::to_string(::getpid());
  const std::string p_sock = "/tmp/wormrt-boot-p-" + tag + ".sock";
  const std::string f_sock = "/tmp/wormrt-boot-f-" + tag + ".sock";
  const std::string p_dir = "/tmp/wormrt-boot-pstate-" + tag;
  const std::string f_dir = "/tmp/wormrt-boot-fstate-" + tag;
  std::filesystem::remove_all(p_dir);
  std::filesystem::remove_all(f_dir);
  ::unlink(p_sock.c_str());
  ::unlink(f_sock.c_str());
  const std::vector<std::string> primary_args = {
      WORMRTD_BIN, "--socket", p_sock,  "--mesh",        "8", "--threads",
      "1",         "--state-dir", p_dir, "--compact-every", "4"};

  Daemon primary = spawn_daemon(primary_args);
  primary.wait_ready();
  std::map<std::int64_t, std::int64_t> acked;
  {
    svc::Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(p_sock, &error)) << error;
    util::Rng rng(7);
    for (int i = 0; i < 20; ++i) {
      const int src = static_cast<int>(rng.uniform_int(0, 63));
      const int dst = (src + static_cast<int>(rng.uniform_int(1, 63))) % 64;
      const Json reply =
          request_op(client, src, dst, rng.uniform_int(200, 600),
                     rng.uniform_int(1, 12), rng.uniform_int(100, 2000));
      if (reply.get("admitted") != nullptr &&
          reply.get("admitted")->as_bool()) {
        acked[reply.get("handle")->as_int()] = reply.get("bound")->as_int();
      }
    }
    // Later admissions shift earlier bounds; record the final answers.
    for (auto& [handle, bound] : acked) {
      Json q = Json::object();
      q.set("verb", "QUERY");
      q.set("handle", handle);
      const Json reply = call_json(client, q);
      ASSERT_TRUE(reply.get("ok")->as_bool());
      bound = reply.get("bound")->as_int();
    }
    client.close();
  }
  ASSERT_FALSE(acked.empty());

  // Restart: the recovered primary's stream buffer starts at its
  // recovered LSN, so a fresh follower cannot pull from LSN 1 and must
  // take the snapshot path.
  primary.terminate();
  primary = spawn_daemon(primary_args);
  primary.wait_ready();

  Daemon follower = spawn_daemon(
      {WORMRTD_BIN, "--socket", f_sock, "--mesh", "8", "--threads", "1",
       "--state-dir", f_dir, "--follow", "unix:" + p_sock});
  follower.wait_ready();

  svc::Client reader;
  std::string error;
  ASSERT_TRUE(reader.connect_unix(f_sock, &error)) << error;
  ASSERT_TRUE(wait_replicated(reader, acked.rbegin()->first, nullptr));
  for (const auto& [handle, bound] : acked) {
    Json q = Json::object();
    q.set("verb", "QUERY");
    q.set("handle", handle);
    const Json reply = call_json(reader, q);
    ASSERT_TRUE(reply.get("ok")->as_bool())
        << "handle " << handle << " missing after snapshot bootstrap";
    EXPECT_EQ(reply.get("bound")->as_int(), bound);
  }

  // HEALTH on both sides reports the replication topology.
  const Json f_health = call_json(reader, [] {
    Json j = Json::object();
    j.set("verb", "HEALTH");
    return j;
  }());
  const Json* f_repl = f_health.get("replication");
  ASSERT_NE(f_repl, nullptr);
  EXPECT_EQ(f_repl->get("role")->as_string(), "follower");
  EXPECT_TRUE(f_repl->get("connected")->as_bool());
  reader.close();

  svc::Client p_client;
  ASSERT_TRUE(p_client.connect_unix(p_sock, &error)) << error;
  const Json p_health = call_json(p_client, [] {
    Json j = Json::object();
    j.set("verb", "HEALTH");
    return j;
  }());
  const Json* p_repl = p_health.get("replication");
  ASSERT_NE(p_repl, nullptr);
  EXPECT_EQ(p_repl->get("role")->as_string(), "primary");
  EXPECT_EQ(p_repl->get("followers")->items().size(), 1u);
  p_client.close();

  std::string out;
  run(std::string(WORMRT_CLI_BIN) + " --socket " + f_sock + " shutdown",
      &out);
  follower.reap();
  run(std::string(WORMRT_CLI_BIN) + " --socket " + p_sock + " shutdown",
      &out);
  primary.reap();
  std::filesystem::remove_all(p_dir);
  std::filesystem::remove_all(f_dir);
  ::unlink(p_sock.c_str());
  ::unlink(f_sock.c_str());
}

/// Follower state is bound to one fabric contract.  Pointing a follower
/// built for another topology, buffer depth or guard setting at the
/// primary must be a hard error before any replay happens — not a
/// silent divergence.
TEST(ReplicationE2E, FollowerRejectsPrimaryWithDifferentFabric) {
  const std::string tag = std::to_string(::getpid());
  const std::string p_sock = "/tmp/wormrt-fp-p-" + tag + ".sock";
  const std::string f_sock = "/tmp/wormrt-fp-f-" + tag + ".sock";
  const std::string p_dir = "/tmp/wormrt-fp-pstate-" + tag;
  const std::string f_dir = "/tmp/wormrt-fp-fstate-" + tag;
  std::filesystem::remove_all(p_dir);
  std::filesystem::remove_all(f_dir);
  ::unlink(p_sock.c_str());
  ::unlink(f_sock.c_str());

  Daemon primary = spawn_daemon({WORMRTD_BIN, "--socket", p_sock, "--mesh",
                                 "8", "--threads", "1", "--state-dir",
                                 p_dir});
  primary.wait_ready();

  // Against the 8x8 depth-2 guarded primary, the preflight handshake
  // must refuse and the process must exit non-zero without ever going
  // READY.  `timeout` keeps a follower that starts anyway from hanging
  // the test.
  std::string out;
  for (const char* fabric :
       {"--mesh 4", "--mesh 8 --buffer-depth 4",
        "--mesh 8 --no-credit-slack-guard"}) {
    const int status =
        run("timeout 20 " + std::string(WORMRTD_BIN) + " --socket " + f_sock +
                " " + fabric + " --threads 1 --state-dir " + f_dir +
                " --follow unix:" + p_sock + " 2>&1",
            &out);
    EXPECT_EQ(status, 1) << fabric << ": " << out;
    EXPECT_NE(out.find("fingerprint mismatch"), std::string::npos) << out;
    EXPECT_EQ(out.find("READY"), std::string::npos) << out;
  }

  run(std::string(WORMRT_CLI_BIN) + " --socket " + p_sock + " shutdown",
      &out);
  primary.reap();
  std::filesystem::remove_all(p_dir);
  std::filesystem::remove_all(f_dir);
  ::unlink(p_sock.c_str());
  ::unlink(f_sock.c_str());
}

/// Satellite: multi-endpoint cli exit codes.  Every endpoint down is a
/// transport failure (exit 2); a reachable follower answering a read is
/// exit 0 even when the listed primary is dead.
TEST(ReplicationE2E, CliServerListExitCodes) {
  const std::string tag = std::to_string(::getpid());
  const std::string f_sock = "/tmp/wormrt-list-f-" + tag + ".sock";
  const std::string f_dir = "/tmp/wormrt-list-fstate-" + tag;
  const std::string dead = "/tmp/wormrt-list-dead-" + tag + ".sock";
  std::filesystem::remove_all(f_dir);
  ::unlink(f_sock.c_str());

  std::string out;
  // Nobody listening anywhere: transport failure.
  EXPECT_EQ(run(std::string(WORMRT_CLI_BIN) + " --server unix:" + dead +
                    ",unix:" + dead + "2 metrics",
                &out),
            2);

  // A lone daemon: reads through a list whose first endpoint is dead
  // still succeed (connect-failure rotation).
  Daemon daemon = spawn_daemon({WORMRTD_BIN, "--socket", f_sock, "--mesh",
                                "8", "--threads", "1", "--state-dir",
                                f_dir});
  daemon.wait_ready();
  EXPECT_EQ(run(std::string(WORMRT_CLI_BIN) + " --server unix:" + dead +
                    ",unix:" + f_sock + " metrics",
                &out),
            0)
      << out;

  run(std::string(WORMRT_CLI_BIN) + " --socket " + f_sock + " shutdown",
      &out);
  daemon.reap();
  std::filesystem::remove_all(f_dir);
  ::unlink(f_sock.c_str());
}

}  // namespace
}  // namespace wormrt
