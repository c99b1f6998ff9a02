#pragma once

#include <memory>
#include <string>
#include <vector>

#include "svc/service.hpp"

/// \file server.hpp
/// The wormrtd socket front end: an event-driven epoll server
/// (DESIGN.md §11).  A small set of event-loop threads watches all
/// connections with edge-triggered epoll; sockets are nonblocking, each
/// connection owns an input buffer (incremental newline framing) and an
/// output buffer (in-order replies, flushed as the socket allows), and
/// parsed request lines are handed to a dispatch ThreadPool that runs
/// the Service verbs — so thousands of idle connections cost no threads
/// and a stalled dispatch (e.g. a journal fsync) never blocks accepts
/// or other connections' reads.
///
/// The protocol is pipelined: a client may write any number of
/// newline-framed requests without waiting; responses come back in
/// request order on the same connection (at most one dispatch task per
/// connection is in flight, draining that connection's parsed-line
/// queue FIFO).  Client::call_pipelined sends a whole batch in one
/// write and collects the N responses.
///
/// Overload protection (DESIGN.md §10): request lines are capped at
/// max_line_bytes (a hostile client streaming newline-free garbage gets
/// one error reply and the boot, never unbounded daemon memory),
/// concurrent connections are capped at max_connections (excess clients
/// are shed with `ok:false error:"overloaded"` at accept, which stays
/// responsive under dispatch saturation because accepting and shedding
/// happen on the event loop, never behind the dispatch pool), parsed
/// lines per connection are capped (further input stays in the kernel
/// socket buffer, backpressuring the sender), and idle connections are
/// reaped after idle_timeout_ms by the loop's timer bookkeeping.  Sheds
/// are counted per reason in the service registry
/// (wormrt_server_sheds_total).  stop() wakes every loop through an
/// eventfd, so shutdown is prompt even with open idle connections.

namespace wormrt::svc {

struct ServerConfig {
  /// When non-empty: listen on this Unix-domain socket path (unlinked on
  /// start and on stop).  A pre-existing socket file is connect-probed
  /// first: if a live server answers, start() fails instead of stealing
  /// the address; only a stale (dead) socket is unlinked.
  std::string unix_path;
  /// When >= 0 and unix_path is empty: listen on 127.0.0.1:tcp_port
  /// (0 picks an ephemeral port, reported by port()).
  int tcp_port = -1;
  /// Dispatch workers (>= 1): threads running Service verbs.  The queue
  /// is unbounded but naturally capped at one task per connection.
  int workers = 4;
  /// Event-loop threads (>= 1) sharing the connection population.
  int event_threads = 2;
  /// Per-connection request-line cap in bytes.  A connection whose
  /// buffered partial line exceeds this gets one
  /// `ok:false error:"line too long"` reply and is closed.
  std::size_t max_line_bytes = 1 << 20;
  /// Concurrent-connection cap; clients beyond it get one
  /// `ok:false error:"overloaded"` reply and are closed.  <= 0 = no cap.
  int max_connections = 64;
  /// Close connections that stay silent this long.  <= 0 = never.
  int idle_timeout_ms = 30000;
};

class Server {
 public:
  Server(Service& service, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loops.  False + \p error on
  /// failure.
  bool start(std::string* error);

  /// Actual TCP port (after an ephemeral bind), or -1 for Unix sockets.
  int port() const;

  /// Stops accepting, wakes every event loop via its eventfd, shuts
  /// down live connections, and joins loops + dispatch workers.
  /// Idempotent, and prompt even with open idle connections.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Retry policy for Client::call_with_retry: exponential backoff with
/// decorrelated jitter (each sleep is drawn uniformly from
/// [base_delay_ms, 3 * previous_sleep], clamped to max_delay_ms), and —
/// by default — retries only idempotent verbs: retrying a REQUEST or
/// REMOVE whose response was lost could double-apply the mutation.
struct RetryPolicy {
  /// Additional attempts after the first (0 = no retries).
  int max_retries = 0;
  int base_delay_ms = 10;
  int max_delay_ms = 1000;
  /// Also retry REQUEST/REMOVE/SHUTDOWN (at-least-once instead of
  /// at-most-once semantics for mutations).
  bool retry_non_idempotent = false;
  /// Seed for the jitter stream (deterministic tests).
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

/// Blocking newline-delimited JSON client, used by wormrt-cli, the load
/// generator, and the end-to-end tests.  Optional deadlines cover
/// connect and each call; call_with_retry layers reconnect + backoff on
/// top for resilience against restarts and sheds.  TCP connections set
/// TCP_NODELAY: every request is a complete small write and Nagle would
/// serialize the pipelined stream against the server's ack clock.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Deadline for connect() and for each call()'s send/recv, applied to
  /// subsequent connects.  <= 0 (default) = block forever.
  void set_timeout_ms(int timeout_ms) { timeout_ms_ = timeout_ms; }

  /// Connects to one endpoint spec — "unix:PATH", "HOST:PORT" (IPv4), or
  /// a bare socket path — and remembers it for call_with_retry's
  /// reconnect.  A spec that does not parse fails with "bad endpoint:".
  bool connect_spec(const std::string& spec, std::string* error);
  bool connect_unix(const std::string& path, std::string* error) {
    return connect_spec("unix:" + path, error);
  }
  bool connect_tcp(const std::string& host, int port, std::string* error) {
    return connect_spec(host + ":" + std::to_string(port), error);
  }
  bool connected() const { return fd_ >= 0; }

  /// Failover endpoint list: a comma-separated sequence of endpoint
  /// specs ("unix:PATH", "HOST:PORT", or a bare socket path), tried in
  /// order until one connects.  With a list installed, call_with_retry
  /// additionally rotates to the next endpoint (a) on transport
  /// failure, and (b) when a reply parses as error "not primary" —
  /// rotation on (b) applies to mutations too, because the refusing
  /// node deterministically applied nothing.  This is the client half
  /// of failover: kill the primary, PROMOTE the follower, and clients
  /// holding both endpoints converge on the new primary.
  bool connect_endpoints(const std::string& spec_list, std::string* error);

  /// True when a reply line is a well-formed follower refusal
  /// ({"ok":false,"error":"not primary"}).
  static bool not_primary_reply(const std::string& response_line);

  /// Sends one request line and blocks for the one response line.
  /// Returns false on transport failure (including a deadline expiry
  /// when set_timeout_ms was used).
  bool call(const std::string& request_line, std::string* response_line,
            std::string* error);

  /// Pipelined batch: coalesces all request lines into ONE send, then
  /// collects exactly one response line per request, in request order.
  /// On transport failure \p response_lines holds the responses
  /// received so far (the caller knows how far the server got).
  bool call_pipelined(const std::vector<std::string>& request_lines,
                      std::vector<std::string>* response_lines,
                      std::string* error);

  /// call() with resilience: on transport failure, reconnects to the
  /// last endpoint connected to and retries per \p policy.
  /// Only idempotent verbs (QUERY, EXPLAIN, SNAPSHOT, METRICS, HEALTH,
  /// HISTORY, PROMOTE) are retried unless the policy opts in;
  /// non-retryable failures surface immediately.  Returns the attempt
  /// count via \p attempts when non-null.
  bool call_with_retry(const std::string& request_line,
                       const RetryPolicy& policy, std::string* response_line,
                       std::string* error, int* attempts = nullptr);

  /// True for verbs whose replay cannot change service state.
  static bool idempotent_verb(const std::string& verb);

  void close();

 private:
  bool reconnect(std::string* error);
  bool read_line(std::string* response_line, std::string* error);

  int fd_ = -1;
  int timeout_ms_ = 0;
  std::string buffer_;  // bytes received past the last response line

  /// Last endpoint spec, for call_with_retry's reconnect.
  std::string spec_;

  /// Failover list from connect_endpoints; empty = single-endpoint.
  std::vector<std::string> endpoints_;
  std::size_t active_endpoint_ = 0;
};

}  // namespace wormrt::svc
