// Overload protection and client resilience at the socket layer: the
// request-line cap (a hostile client streaming newline-free garbage is
// shed, not buffered without bound), the concurrent-connection cap, the
// idle-connection reaper, stale-vs-live Unix socket handling, and the
// client's reconnect-with-backoff retry policy.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "metrics_reply.hpp"
#include "svc/json.hpp"

#include "route/dor.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/mesh.hpp"

namespace wormrt::svc {
namespace {

/// Raw TCP connection to 127.0.0.1:port — the tests below need to send
/// bytes the Client class refuses to (unterminated lines) or observe
/// the server's unsolicited shed replies.
int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until newline or EOF; returns everything before the newline.
std::string read_reply(int fd) {
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') {
      break;
    }
    reply.push_back(c);
  }
  return reply;
}

/// True when the peer has closed: a zero-byte read.
bool peer_closed(int fd) {
  char c = 0;
  return ::recv(fd, &c, 1, 0) == 0;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

class ServerLimits : public ::testing::Test {
 protected:
  void start(ServerConfig config) {
    config.tcp_port = 0;
    service_ = std::make_unique<Service>(mesh_, routing_);
    server_ = std::make_unique<Server>(*service_, std::move(config));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->stop();
    }
  }

  std::uint64_t sheds(const std::string& reason) {
    return service_->registry()
        .counter("wormrt_server_sheds_total", {{"reason", reason}})
        .value();
  }

  topo::Mesh mesh_{8, 8};
  route::XYRouting routing_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerLimits, NewlineFreeGarbageIsShedAtTheLineCap) {
  ServerConfig config;
  config.max_line_bytes = 4096;
  config.workers = 2;
  start(config);

  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  // One byte past the cap without ever sending a newline.  The server
  // must answer with one shed reply and close — NOT keep buffering.
  // (Exactly cap+1 so the server drains every byte before shedding: the
  // close is then an orderly FIN, not an RST racing the reply.)
  const std::string garbage(4096 + 1, 'x');
  ASSERT_TRUE(send_all(fd, garbage));
  EXPECT_EQ(read_reply(fd), R"({"ok":false,"error":"line too long"})");
  EXPECT_TRUE(peer_closed(fd));
  ::close(fd);
  EXPECT_EQ(sheds("line_too_long"), 1u);

  // A well-behaved client on a fresh connection is unaffected.
  const int fd2 = raw_connect(server_->port());
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(send_all(fd2, "{\"verb\":\"HISTORY\"}\n"));
  EXPECT_NE(read_reply(fd2).find("\"ok\":true"), std::string::npos);
  ::close(fd2);
}

TEST_F(ServerLimits, ALineJustUnderTheCapStillParses) {
  ServerConfig config;
  config.max_line_bytes = 4096;
  start(config);
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  // Pad a valid request to just under the cap with an ignored field.
  std::string line = "{\"verb\":\"HISTORY\",\"pad\":\"";
  line.append(4096 - line.size() - 3, 'x');
  line += "\"}\n";
  ASSERT_TRUE(send_all(fd, line));
  EXPECT_NE(read_reply(fd).find("\"ok\":true"), std::string::npos);
  ::close(fd);
  EXPECT_EQ(sheds("line_too_long"), 0u);
}

TEST_F(ServerLimits, ConnectionsBeyondTheCapAreShedWithAnHonestReply) {
  ServerConfig config;
  config.max_connections = 1;
  config.workers = 2;
  start(config);

  // First connection occupies the one slot (a completed call guarantees
  // the acceptor has tracked it).
  Client first;
  std::string error;
  ASSERT_TRUE(first.connect_tcp("127.0.0.1", server_->port(), &error))
      << error;
  std::string reply;
  ASSERT_TRUE(first.call("{\"verb\":\"HISTORY\"}", &reply, &error)) << error;

  // The second is shed at accept: one reply, then the boot.
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  EXPECT_EQ(read_reply(fd), R"({"ok":false,"error":"overloaded"})");
  EXPECT_TRUE(peer_closed(fd));
  ::close(fd);
  EXPECT_EQ(sheds("overloaded"), 1u);

  // The slot frees when the first client leaves.
  first.close();
  for (int i = 0; i < 100; ++i) {  // the close needs a moment to land
    const int fd2 = raw_connect(server_->port());
    ASSERT_GE(fd2, 0);
    if (send_all(fd2, "{\"verb\":\"HISTORY\"}\n") &&
        read_reply(fd2).find("\"ok\":true") != std::string::npos) {
      ::close(fd2);
      return;
    }
    ::close(fd2);
    ::usleep(10 * 1000);
  }
  FAIL() << "slot never freed after the first client closed";
}

TEST_F(ServerLimits, IdleConnectionsAreReaped) {
  ServerConfig config;
  config.idle_timeout_ms = 150;
  start(config);
  const int fd = raw_connect(server_->port());
  ASSERT_GE(fd, 0);
  // Say nothing.  The reaper answers for us, then hangs up.
  EXPECT_EQ(read_reply(fd), R"({"ok":false,"error":"idle timeout"})");
  EXPECT_TRUE(peer_closed(fd));
  ::close(fd);
  EXPECT_EQ(sheds("idle_timeout"), 1u);
}

TEST_F(ServerLimits, IdleConnectionsNeverStarveNewClients) {
  // Regression for the thread-per-connection accept stall: with one
  // dispatch worker, a single idle connection used to pin the only
  // worker inside recv() forever, so a second client's request never got
  // an answer (and under a connection flood, accept itself stalled
  // behind the full submit queue).  The event loop owns reads and
  // accepts now; idle connections cost no worker at all.
  ServerConfig config;
  config.workers = 1;
  config.event_threads = 1;
  start(config);

  std::vector<int> idlers;
  for (int i = 0; i < 8; ++i) {
    const int fd = raw_connect(server_->port());
    ASSERT_GE(fd, 0);
    idlers.push_back(fd);  // connected, never speaks
  }

  // A late client must still be answered promptly.  The receive timeout
  // turns a regression into a failed read instead of a hung test.
  const int probe = raw_connect(server_->port());
  ASSERT_GE(probe, 0);
  timeval tv = {};
  tv.tv_sec = 5;
  ASSERT_EQ(::setsockopt(probe, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv), 0);
  ASSERT_TRUE(send_all(probe, "{\"verb\":\"HISTORY\"}\n"));
  EXPECT_NE(read_reply(probe).find("\"ok\":true"), std::string::npos)
      << "HISTORY probe starved behind idle connections";
  ::close(probe);
  for (const int fd : idlers) {
    ::close(fd);
  }
}

TEST_F(ServerLimits, PipelinedRequestsAnswerInOrder) {
  ServerConfig config;
  config.workers = 2;
  config.event_threads = 2;
  start(config);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server_->port(), &error))
      << error;

  // A whole batch in one write; admissions hand out dense handles from
  // 0, so in-order responses mean handle i on line i — any reordering
  // or reply loss breaks the sequence.
  std::vector<std::string> requests;
  for (int i = 0; i < 24; ++i) {
    Json req = Json::object();
    req.set("verb", "REQUEST");
    req.set("src", std::int64_t{i % 8});
    req.set("dst", std::int64_t{56 + i % 8});
    req.set("priority", std::int64_t{4});
    req.set("period", std::int64_t{100000});
    req.set("length", std::int64_t{1});
    req.set("deadline", std::int64_t{100000});
    requests.push_back(req.dump());
  }
  requests.push_back("{\"verb\":\"METRICS\"}");

  std::vector<std::string> responses;
  ASSERT_TRUE(client.call_pipelined(requests, &responses, &error)) << error;
  ASSERT_EQ(responses.size(), requests.size());
  for (int i = 0; i < 24; ++i) {
    std::string parse_error;
    const Json reply = Json::parse(responses[static_cast<std::size_t>(i)],
                                   &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    ASSERT_TRUE(reply.get("ok")->as_bool()) << responses[i];
    ASSERT_TRUE(reply.get("admitted")->as_bool()) << responses[i];
    EXPECT_EQ(reply.get("handle")->as_int(), i)
        << "responses arrived out of request order";
  }
  std::string parse_error;
  const Json metrics = Json::parse(responses.back(), &parse_error);
  ASSERT_TRUE(parse_error.empty()) << parse_error;
  EXPECT_EQ(testing::verb_count(metrics, "REQUEST"), 24);
  client.close();
}

TEST_F(ServerLimits, StopIsPromptWithOpenIdleConnections) {
  ServerConfig config;
  config.idle_timeout_ms = 30000;  // far longer than this test may take
  start(config);

  std::vector<int> idlers;
  for (int i = 0; i < 5; ++i) {
    const int fd = raw_connect(server_->port());
    ASSERT_GE(fd, 0);
    idlers.push_back(fd);
  }
  // One served call guarantees the loops have registered connections.
  Client client;
  std::string error, reply;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server_->port(), &error))
      << error;
  ASSERT_TRUE(client.call("{\"verb\":\"HISTORY\"}", &reply, &error)) << error;

  // stop() must wake every epoll loop via its eventfd instead of
  // waiting out the 30 s idle timer (or for the idlers to speak).
  const auto t0 = std::chrono::steady_clock::now();
  server_->stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 2000) << "stop() waited on idle connections";

  client.close();
  for (const int fd : idlers) {
    ::close(fd);
  }
}

TEST(StaleSocket, LiveServerIsNotStolenStaleFileIsReclaimed) {
  const std::string path =
      "/tmp/wormrt-stale-" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  topo::Mesh mesh(4, 4);
  route::XYRouting routing;
  Service service_a(mesh, routing);
  Service service_b(mesh, routing);

  ServerConfig config;
  config.unix_path = path;
  Server a(service_a, config);
  std::string error;
  ASSERT_TRUE(a.start(&error)) << error;

  // A second server on the same path must refuse to steal it while the
  // first still answers.
  Server b(service_b, config);
  EXPECT_FALSE(b.start(&error));
  EXPECT_NE(error.find("live server"), std::string::npos) << error;
  a.stop();

  // A stale socket file with no listener behind it (a crashed daemon's
  // leftover) is probed, found dead, and reclaimed.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  ::close(fd);  // file stays behind, nobody listens

  Server c(service_b, config);
  EXPECT_TRUE(c.start(&error)) << error;
  Client client;
  EXPECT_TRUE(client.connect_unix(path, &error)) << error;
  c.stop();
  ::unlink(path.c_str());
}

TEST(ClientRetry, IdempotentCallsSurviveAServerRestart) {
  const std::string path =
      "/tmp/wormrt-retry-" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  topo::Mesh mesh(4, 4);
  route::XYRouting routing;
  ServerConfig config;
  config.unix_path = path;

  Service service_a(mesh, routing);
  auto a = std::make_unique<Server>(service_a, config);
  std::string error;
  ASSERT_TRUE(a->start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect_unix(path, &error)) << error;
  std::string reply;
  ASSERT_TRUE(client.call("{\"verb\":\"METRICS\"}", &reply, &error)) << error;

  // Bounce the server: the client's socket now points at a dead peer.
  a.reset();
  Service service_b(mesh, routing);
  Server b(service_b, config);
  ASSERT_TRUE(b.start(&error)) << error;

  // A plain call fails...
  EXPECT_FALSE(client.call("{\"verb\":\"METRICS\"}", &reply, &error));

  // ...the retrying call reconnects to the remembered endpoint.
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_delay_ms = 1;
  int attempts = 0;
  ASSERT_TRUE(client.call_with_retry("{\"verb\":\"METRICS\"}", policy, &reply,
                                     &error, &attempts))
      << error;
  EXPECT_GE(attempts, 2);
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos);

  // A mutation is NOT retried by default (its lost response could mean
  // a lost OR an applied admission)...
  b.stop();
  Server b2(service_b, config);
  ASSERT_TRUE(b2.start(&error));
  const std::string request =
      "{\"verb\":\"REQUEST\",\"src\":0,\"dst\":5,\"priority\":2,"
      "\"period\":50,\"length\":10,\"deadline\":40}";
  EXPECT_FALSE(
      client.call_with_retry(request, policy, &reply, &error, &attempts));
  EXPECT_EQ(attempts, 1);

  // ...unless the caller opts into at-least-once.
  policy.retry_non_idempotent = true;
  ASSERT_TRUE(
      client.call_with_retry(request, policy, &reply, &error, &attempts))
      << error;
  EXPECT_GE(attempts, 2);

  client.close();
  b2.stop();
  ::unlink(path.c_str());
}

TEST(ClientRetry, VerbClassificationIsExplicit) {
  // Reads replay harmlessly, and PROMOTE on a primary only reports the
  // standing role.
  for (const char* verb : {"QUERY", "EXPLAIN", "SNAPSHOT", "METRICS",
                           "HEALTH", "HISTORY", "PROMOTE"}) {
    EXPECT_TRUE(Client::idempotent_verb(verb)) << verb;
  }
  // A resent REPORT double-counts an observation; the rest mutate state
  // or a replication cursor.
  for (const char* verb :
       {"REQUEST", "REMOVE", "SHUTDOWN", "REPORT", "BATCH", "LINK_DOWN",
        "LINK_UP", "REPL_HELLO", "REPL_SNAPSHOT", "REPL_PULL", "STATS", "",
        "bogus"}) {
    EXPECT_FALSE(Client::idempotent_verb(verb)) << verb;
  }
}

TEST(ClientConnect, MalformedEndpointSpecsAreRefused) {
  // Each spec fails before any socket is opened, with one error prefix
  // (wormrtd's --follow preflight exits on it) — an overlong port
  // included, which must not throw out of the parse.
  for (const char* spec : {"", "unix:", ":5000", "127.0.0.1:0",
                           "127.0.0.1:65536", "127.0.0.1:99999999999"}) {
    Client client;
    std::string error;
    EXPECT_FALSE(client.connect_spec(spec, &error)) << spec;
    EXPECT_EQ(error, std::string("bad endpoint: ") + spec);
  }
  Client client;
  std::string error;
  EXPECT_FALSE(client.connect_endpoints("127.0.0.1:99999999999", &error));
  EXPECT_EQ(error,
            "no endpoint reachable, last: bad endpoint: 127.0.0.1:99999999999");
}

}  // namespace
}  // namespace wormrt::svc
