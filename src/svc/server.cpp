#include "svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wormrt::svc {

namespace {

/// Parsed-but-undispatched lines per connection.  Past this, the loop
/// stops reading that socket: further input stays in the kernel buffer
/// and backpressures the sender, so a pipelining client cannot grow
/// daemon memory faster than dispatch drains it.
constexpr std::size_t kMaxPendingLines = 128;

/// Lines one dispatch task serves before resubmitting itself to the
/// pool: a deeply pipelined connection shares the dispatch workers
/// fairly with everyone else's METRICS or HEALTH probe.
constexpr int kDispatchBudget = 64;

constexpr int kMaxEpollEvents = 64;

constexpr char kShedOverloaded[] = "{\"ok\":false,\"error\":\"overloaded\"}\n";
constexpr char kShedLineTooLong[] =
    "{\"ok\":false,\"error\":\"line too long\"}\n";
constexpr char kShedIdle[] = "{\"ok\":false,\"error\":\"idle timeout\"}\n";

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// recv() that retries EINTR internally, so a signal delivered to a
/// client blocked on a response never turns into a spurious disconnect.
/// Returns what recv() returns otherwise: 0 on orderly shutdown, -1
/// with errno set on a real transport error.
ssize_t recv_some(int fd, char* buffer, std::size_t capacity) {
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, capacity, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return n;
  }
}

/// connect() with an optional deadline: non-blocking connect + poll,
/// then back to blocking mode.  timeout_ms <= 0 blocks forever.
bool connect_deadline(int fd, const sockaddr* addr, socklen_t len,
                      int timeout_ms, std::string* detail) {
  if (timeout_ms <= 0) {
    if (::connect(fd, addr, len) != 0) {
      *detail = std::strerror(errno);
      return false;
    }
    return true;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  bool ok = ::connect(fd, addr, len) == 0;
  if (!ok && errno == EINPROGRESS) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r == 0) {
      *detail = "connect timed out";
      ::fcntl(fd, F_SETFL, flags);
      return false;
    }
    int soerr = 0;
    socklen_t soerr_len = sizeof soerr;
    if (r < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len) != 0) {
      *detail = std::strerror(errno);
      ::fcntl(fd, F_SETFL, flags);
      return false;
    }
    if (soerr != 0) {
      *detail = std::strerror(soerr);
      ::fcntl(fd, F_SETFL, flags);
      return false;
    }
    ok = true;
  } else if (!ok) {
    *detail = std::strerror(errno);
  }
  ::fcntl(fd, F_SETFL, flags);
  return ok;
}

/// A stream socket connected to \p addr within \p timeout_ms, with
/// TCP_NODELAY on TCP and the same timeout on every later send and
/// receive; -1 with \p error set (when non-null) on failure.  \p target
/// names the endpoint in errors.
int open_client_socket(const sockaddr* addr, socklen_t len, int timeout_ms,
                       const std::string& target, std::string* error) {
  const auto fail = [error](int fd, std::string what) {
    if (fd >= 0) {
      ::close(fd);
    }
    if (error != nullptr) {
      *error = std::move(what);
    }
    return -1;
  };
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
  if (fd < 0) {
    return fail(fd, std::string("socket: ") + std::strerror(errno));
  }
  std::string detail;
  if (!connect_deadline(fd, addr, len, timeout_ms, &detail)) {
    return fail(fd, "connect " + target + ": " + detail);
  }
  if (addr->sa_family == AF_INET) {
    // Each call is one complete small write; without TCP_NODELAY, Nagle
    // would hold a pipelined batch hostage to the server's ack clock.
    set_nodelay(fd);
  }
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) != 0) {
      return fail(fd,
                  std::string("setsockopt timeout: ") + std::strerror(errno));
    }
  }
  return fd;
}

}  // namespace

/// The epoll front end (DESIGN.md §11).  Threading model:
///   - event-loop threads own epoll_wait, accept, socket reads, idle
///     reaping, and connection teardown;
///   - dispatch-pool workers run Service verbs and write replies.
/// Every connection has its own mutex; the loop-wide mutex guards only
/// the fd -> connection map.  Lock order: a thread holding a Conn's
/// mutex may take its Loop's mutex (to retire the fd), never the other
/// way around — the loop copies the shared_ptr out of the map and
/// RELEASES the map lock before touching the connection, so a dispatch
/// worker blocked in fsync while holding a Conn mutex can never stall
/// the loop for longer than one map lookup.
struct Server::Impl {
  struct Loop;

  /// One connection's state.  The fd is closed in the destructor, never
  /// earlier: loop and dispatch both hold shared_ptrs, so the fd number
  /// cannot be reused by a new accept while any thread still references
  /// this object.
  struct Conn {
    ~Conn() {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    int fd = -1;
    Loop* loop = nullptr;
    std::mutex mu;
    std::string inbuf;                 ///< bytes with no newline yet
    std::deque<std::string> pending;   ///< parsed lines awaiting dispatch
    std::string outbuf;                ///< replies not yet on the wire
    std::size_t out_pos = 0;
    bool dispatch_inflight = false;    ///< at most ONE task per conn
    bool read_shutdown = false;        ///< peer sent FIN
    bool want_close = false;           ///< close once outbuf drains
    bool dead = false;                 ///< deregistered, fd shut down
    /// Shed reply to emit once in-flight dispatch drains (keeps replies
    /// in request order even when the shed decision interleaves).
    std::string shed_reply;
    /// Millisecond steady-clock stamp of the last read or reply;
    /// atomic so the reaper can scan without taking every Conn mutex.
    std::atomic<std::int64_t> last_active{0};
    std::size_t highwater = 0;  ///< max buffered bytes over the lifetime
  };
  using ConnPtr = std::shared_ptr<Conn>;

  struct Loop {
    ~Loop() {
      if (epfd >= 0) {
        ::close(epfd);
      }
      if (wake_fd >= 0) {
        ::close(wake_fd);
      }
    }
    int epfd = -1;
    int wake_fd = -1;  ///< eventfd: stop() and retirements wake the wait
    std::thread thread;
    std::mutex mu;     ///< guards conns + retired only
    std::unordered_map<int, ConnPtr> conns;
    std::vector<int> retired;
  };

  Service& service;
  ServerConfig config;
  int listen_fd = -1;
  bool listen_is_tcp = false;
  int tcp_port = -1;
  std::atomic<bool> stopping{false};
  bool started = false;
  std::atomic<int> live_conns{0};
  std::atomic<unsigned> next_loop{0};

  /// Sheds by reason; lives in the service registry so METRICS shows it.
  obs::Counter& shed_overloaded;
  obs::Counter& shed_line_too_long;
  obs::Counter& shed_idle;
  obs::Histogram& epoll_events;
  obs::Histogram& conn_highwater;
  obs::Gauge& open_conns;

  /// Declared before pool so the pool is destroyed FIRST: in-flight
  /// dispatch tasks may still touch Loop fds (epoll_ctl on retire) and
  /// must drain before the epoll/event fds close.
  std::vector<std::unique_ptr<Loop>> loops;
  util::ThreadPool pool;

  Impl(Service& svc, ServerConfig cfg)
      : service(svc),
        config(std::move(cfg)),
        shed_overloaded(svc.registry().counter(
            "wormrt_server_sheds_total", {{"reason", "overloaded"}},
            "Connections dropped by overload protection, by reason.")),
        shed_line_too_long(svc.registry().counter(
            "wormrt_server_sheds_total", {{"reason", "line_too_long"}})),
        shed_idle(svc.registry().counter(
            "wormrt_server_sheds_total", {{"reason", "idle_timeout"}})),
        epoll_events(svc.registry().histogram(
            "wormrt_server_epoll_events", 0.0,
            static_cast<double>(kMaxEpollEvents), 32, {},
            "Ready events per epoll_wait wakeup (loop depth).")),
        conn_highwater(svc.registry().histogram(
            "wormrt_server_conn_buffer_highwater_bytes", 0.0, 65536.0, 32, {},
            "Peak buffered bytes (input + unsent output) per connection, "
            "observed at connection close.")),
        open_conns(svc.registry().gauge(
            "wormrt_server_open_connections", {},
            "Connections currently registered with the event loops.")),
        // The dispatch queue is unbounded, but at most one task per
        // connection is ever queued (dispatch_inflight), so the
        // connection cap bounds it; accepts NEVER block on the pool —
        // that was the old accept-stall bug.
        pool(static_cast<unsigned>(std::max(1, config.workers)), 0) {}

  // ---- connection state machine (Conn::mu held for *_locked) ----

  void track_highwater(Conn& c) {
    const std::size_t depth =
        c.inbuf.size() + (c.outbuf.size() - c.out_pos);
    c.highwater = std::max(c.highwater, depth);
  }

  /// Deregisters from epoll, counts the close, and sends FIN.  The fd
  /// stays open (and its number unreusable) until the last shared_ptr
  /// drops; the loop erases its map entry on the next wakeup.
  void mark_dead_locked(Conn& c) {
    if (c.dead) {
      return;
    }
    c.dead = true;
    ::epoll_ctl(c.loop->epfd, EPOLL_CTL_DEL, c.fd, nullptr);
    ::shutdown(c.fd, SHUT_RDWR);
    conn_highwater.observe(static_cast<double>(c.highwater));
    open_conns.set(static_cast<double>(live_conns.fetch_sub(1) - 1));
    {
      std::lock_guard<std::mutex> lk(c.loop->mu);
      c.loop->retired.push_back(c.fd);
    }
    wake(*c.loop);
  }

  /// Nonblocking drain of outbuf.  EAGAIN just returns — the armed
  /// edge-triggered EPOLLOUT fires when the socket drains and pump()
  /// resumes the flush.  A transport error kills the connection.
  void flush_locked(Conn& c) {
    while (c.out_pos < c.outbuf.size()) {
      const ssize_t n = ::send(c.fd, c.outbuf.data() + c.out_pos,
                               c.outbuf.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (c.out_pos > 65536) {
          c.outbuf.erase(0, c.out_pos);
          c.out_pos = 0;
        }
        return;
      }
      mark_dead_locked(c);
      return;
    }
    c.outbuf.clear();
    c.out_pos = 0;
  }

  /// Emits a deferred shed reply once dispatch has drained (keeping
  /// replies in order), flushes, and closes when everything is on the
  /// wire and nothing more can arrive.
  void finish_or_flush_locked(Conn& c) {
    if (c.dead) {
      return;
    }
    const bool queues_idle = !c.dispatch_inflight && c.pending.empty();
    if (queues_idle && !c.shed_reply.empty()) {
      c.outbuf.append(c.shed_reply);
      c.shed_reply.clear();
      c.want_close = true;
    }
    if (queues_idle && c.read_shutdown) {
      c.want_close = true;
    }
    flush_locked(c);
    if (c.dead) {
      return;
    }
    if (c.want_close && queues_idle && c.shed_reply.empty() &&
        c.out_pos == c.outbuf.size()) {
      mark_dead_locked(c);
    }
  }

  /// Carves complete lines out of inbuf into the pending queue (up to
  /// the cap), then applies the line-length guard to the remainder.
  void parse_lines_locked(Conn& c) {
    if (!c.shed_reply.empty() || c.want_close) {
      return;
    }
    std::size_t start = 0;
    while (c.pending.size() < kMaxPendingLines) {
      const std::size_t nl = c.inbuf.find('\n', start);
      if (nl == std::string::npos) {
        break;
      }
      if (nl > start) {
        c.pending.emplace_back(c.inbuf.substr(start, nl - start));
      }
      start = nl + 1;
    }
    if (start > 0) {
      c.inbuf.erase(0, start);
    }
    if (c.inbuf.size() > config.max_line_bytes) {
      shed_line_too_long.inc();
      c.shed_reply = kShedLineTooLong;
      c.inbuf.clear();
      c.inbuf.shrink_to_fit();
    }
  }

  void schedule_dispatch_locked(const ConnPtr& cp) {
    if (cp->dead || cp->dispatch_inflight || cp->pending.empty()) {
      return;
    }
    cp->dispatch_inflight = true;
    pool.submit([this, cp] { run_dispatch(cp); });
  }

  /// The whole per-connection machine, callable from the loop thread
  /// (on any epoll event) and from a dispatch worker (after draining
  /// the pending queue, to resume a backpressured read): read until
  /// EAGAIN, frame lines, kick dispatch, flush, close if finished.
  void pump(const ConnPtr& cp) {
    std::lock_guard<std::mutex> lk(cp->mu);
    Conn& c = *cp;
    if (c.dead) {
      return;
    }
    char chunk[16384];
    while (!c.read_shutdown && c.shed_reply.empty() && !c.want_close &&
           c.pending.size() < kMaxPendingLines) {
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        c.inbuf.append(chunk, static_cast<std::size_t>(n));
        c.last_active.store(now_ms(), std::memory_order_relaxed);
        parse_lines_locked(c);
        track_highwater(c);
        continue;
      }
      if (n == 0) {
        c.read_shutdown = true;
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      mark_dead_locked(c);
      return;
    }
    schedule_dispatch_locked(cp);
    finish_or_flush_locked(c);
  }

  /// Dispatch task: serves this connection's parsed lines FIFO —
  /// replies therefore come back in request order.  The Conn mutex is
  /// NOT held across Service::handle (it can block on a journal fsync;
  /// the loop thread must stay free to serve other connections).
  void run_dispatch(const ConnPtr& cp) {
    for (int served = 0; served < kDispatchBudget; ++served) {
      std::string line;
      {
        std::lock_guard<std::mutex> lk(cp->mu);
        if (cp->dead) {
          cp->dispatch_inflight = false;
          return;
        }
        if (cp->pending.empty()) {
          cp->dispatch_inflight = false;
          break;  // pump below resumes a backpressured read
        }
        line = std::move(cp->pending.front());
        cp->pending.pop_front();
      }
      const std::string reply = service.handle_line(line);
      {
        std::lock_guard<std::mutex> lk(cp->mu);
        if (cp->dead) {
          cp->dispatch_inflight = false;
          return;
        }
        cp->outbuf.append(reply);
        cp->outbuf.push_back('\n');
        cp->last_active.store(now_ms(), std::memory_order_relaxed);
        track_highwater(*cp);
        flush_locked(*cp);
        if (cp->dead) {
          cp->dispatch_inflight = false;
          return;
        }
      }
    }
    bool resubmit = false;
    {
      std::lock_guard<std::mutex> lk(cp->mu);
      if (cp->dispatch_inflight) {
        // Budget exhausted with lines still queued: yield the worker
        // and come back, so one firehose connection cannot starve a
        // METRICS or HEALTH probe on another.
        resubmit = !cp->dead && !cp->pending.empty();
        cp->dispatch_inflight = resubmit;
      }
    }
    if (resubmit) {
      pool.submit([this, cp] { run_dispatch(cp); });
    } else {
      pump(cp);
    }
  }

  // ---- event loops ----

  void wake(Loop& loop) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(loop.wake_fd, &one, sizeof one);
  }

  void accept_burst() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) {
          continue;
        }
        return;  // EAGAIN
      }
      if (stopping.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      if (config.max_connections > 0 &&
          live_conns.load(std::memory_order_relaxed) >=
              config.max_connections) {
        // Load shed: one honest reply, then the boot.  This runs on the
        // event loop, so it stays responsive however saturated the
        // dispatch pool is.  (The reply is a single small write to a
        // fresh socket buffer — it cannot block.)
        shed_overloaded.inc();
        ::send(fd, kShedOverloaded, sizeof kShedOverloaded - 1, MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      if (listen_is_tcp) {
        set_nodelay(fd);
      }
      auto cp = std::make_shared<Conn>();
      cp->fd = fd;
      cp->last_active.store(now_ms(), std::memory_order_relaxed);
      Loop& loop = *loops[next_loop.fetch_add(1) % loops.size()];
      cp->loop = &loop;
      {
        std::lock_guard<std::mutex> lk(loop.mu);
        loop.conns.emplace(fd, cp);
      }
      epoll_event ev{};
      // Edge-triggered, both directions armed once and for all: the
      // write side only edges on full->writable transitions, so keeping
      // EPOLLOUT armed costs no spurious wakeups and no epoll_ctl MODs.
      ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
      ev.data.fd = fd;
      if (::epoll_ctl(loop.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        std::lock_guard<std::mutex> lk(loop.mu);
        loop.conns.erase(fd);  // ~Conn closes the fd
        continue;
      }
      open_conns.set(static_cast<double>(live_conns.fetch_add(1) + 1));
    }
  }

  void reap_idle(Loop& loop) {
    const std::int64_t now = now_ms();
    std::vector<ConnPtr> candidates;
    {
      std::lock_guard<std::mutex> lk(loop.mu);
      for (const auto& [fd, cp] : loop.conns) {
        if (now - cp->last_active.load(std::memory_order_relaxed) >=
            config.idle_timeout_ms) {
          candidates.push_back(cp);
        }
      }
    }
    for (const ConnPtr& cp : candidates) {
      std::lock_guard<std::mutex> lk(cp->mu);
      Conn& c = *cp;
      if (c.dead || c.dispatch_inflight || !c.pending.empty() ||
          !c.shed_reply.empty() || c.want_close ||
          c.out_pos != c.outbuf.size()) {
        continue;  // busy, not idle
      }
      if (now_ms() - c.last_active.load(std::memory_order_relaxed) <
          config.idle_timeout_ms) {
        continue;
      }
      shed_idle.inc();
      c.shed_reply = kShedIdle;
      finish_or_flush_locked(c);
    }
  }

  void loop_main(Loop& loop, bool owns_listener) {
    std::vector<epoll_event> events(kMaxEpollEvents);
    const int wait_ms =
        config.idle_timeout_ms > 0
            ? std::clamp(config.idle_timeout_ms / 2, 10, 1000)
            : -1;
    while (!stopping.load(std::memory_order_acquire)) {
      const int n =
          ::epoll_wait(loop.epfd, events.data(), kMaxEpollEvents, wait_ms);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;
      }
      if (stopping.load(std::memory_order_acquire)) {
        break;
      }
      if (n > 0) {
        epoll_events.observe(static_cast<double>(n));
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == loop.wake_fd) {
          std::uint64_t buf = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(loop.wake_fd, &buf, sizeof buf);
          continue;
        }
        if (owns_listener && fd == listen_fd) {
          accept_burst();
          continue;
        }
        ConnPtr cp;
        {
          std::lock_guard<std::mutex> lk(loop.mu);
          const auto it = loop.conns.find(fd);
          if (it != loop.conns.end()) {
            cp = it->second;
          }
        }
        if (cp != nullptr) {
          pump(cp);
        }
      }
      {
        std::lock_guard<std::mutex> lk(loop.mu);
        for (const int fd : loop.retired) {
          loop.conns.erase(fd);
        }
        loop.retired.clear();
      }
      if (config.idle_timeout_ms > 0) {
        reap_idle(loop);
      }
    }
    // Shutdown: send FIN on everything we own so in-flight dispatch
    // tasks fail fast on their next write; fds close as the last
    // shared_ptrs drop (at the latest when the pool drains in ~Impl).
    std::vector<ConnPtr> snapshot;
    {
      std::lock_guard<std::mutex> lk(loop.mu);
      snapshot.reserve(loop.conns.size());
      for (const auto& [fd, cp] : loop.conns) {
        snapshot.push_back(cp);
      }
      loop.conns.clear();
      loop.retired.clear();
    }
    for (const ConnPtr& cp : snapshot) {
      std::lock_guard<std::mutex> lk(cp->mu);
      if (!cp->dead) {
        cp->dead = true;
        ::shutdown(cp->fd, SHUT_RDWR);
        open_conns.set(static_cast<double>(live_conns.fetch_sub(1) - 1));
      }
    }
  }
};

Server::Server(Service& service, ServerConfig config)
    : impl_(std::make_unique<Impl>(service, std::move(config))) {}

Server::~Server() { stop(); }

int Server::port() const { return impl_->tcp_port; }

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    if (impl_->listen_fd >= 0) {
      ::close(impl_->listen_fd);
      impl_->listen_fd = -1;
    }
    impl_->loops.clear();
    return false;
  };

  if (!impl_->config.unix_path.empty()) {
    impl_->listen_fd =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (impl_->listen_fd < 0) {
      return fail("socket");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (impl_->config.unix_path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) {
        *error = "unix socket path too long";
      }
      ::close(impl_->listen_fd);
      impl_->listen_fd = -1;
      return false;
    }
    std::strncpy(addr.sun_path, impl_->config.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A socket file may be left behind by a crashed daemon (stale, safe
    // to unlink) or owned by a live one (unlinking would steal its
    // address: old clients keep talking to it while new ones reach us).
    // Disambiguate with a connect probe and refuse the live case.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      if (::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0) {
        ::close(probe);
        if (error != nullptr) {
          *error = "bind " + impl_->config.unix_path +
                   ": a live server already listens there";
        }
        ::close(impl_->listen_fd);
        impl_->listen_fd = -1;
        return false;
      }
      ::close(probe);
    }
    ::unlink(impl_->config.unix_path.c_str());
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      return fail("bind " + impl_->config.unix_path);
    }
    impl_->listen_is_tcp = false;
  } else if (impl_->config.tcp_port >= 0) {
    impl_->listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (impl_->listen_fd < 0) {
      return fail("socket");
    }
    const int one = 1;
    ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(impl_->config.tcp_port));
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      return fail("bind 127.0.0.1:" + std::to_string(impl_->config.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      impl_->tcp_port = ntohs(bound.sin_port);
    }
    impl_->listen_is_tcp = true;
  } else {
    if (error != nullptr) {
      *error = "server config needs a unix path or a tcp port";
    }
    return false;
  }

  if (::listen(impl_->listen_fd, 256) != 0) {
    return fail("listen");
  }

  const int nloops = std::max(1, impl_->config.event_threads);
  for (int i = 0; i < nloops; ++i) {
    auto loop = std::make_unique<Impl::Loop>();
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epfd < 0) {
      return fail("epoll_create1");
    }
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->wake_fd < 0) {
      return fail("eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    if (::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->wake_fd, &ev) != 0) {
      return fail("epoll_ctl wake_fd");
    }
    impl_->loops.push_back(std::move(loop));
  }
  // Loop 0 owns the listener; accepted connections are spread round-
  // robin over all loops.
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = impl_->listen_fd;
    if (::epoll_ctl(impl_->loops[0]->epfd, EPOLL_CTL_ADD, impl_->listen_fd,
                    &ev) != 0) {
      return fail("epoll_ctl listen_fd");
    }
  }
  for (int i = 0; i < nloops; ++i) {
    Impl::Loop* loop = impl_->loops[static_cast<std::size_t>(i)].get();
    loop->thread =
        std::thread([this, loop, i] { impl_->loop_main(*loop, i == 0); });
  }
  impl_->started = true;
  return true;
}

void Server::stop() {
  if (!impl_->started) {
    return;
  }
  impl_->started = false;
  impl_->stopping.store(true, std::memory_order_release);
  // Wake every loop through its eventfd: each sees `stopping`, FINs its
  // connections, and exits — no waiting on idle-connection timeouts or
  // in-flight dispatch.  A connection accepted meanwhile is closed at
  // once (accept_burst checks `stopping`).
  for (const auto& loop : impl_->loops) {
    impl_->wake(*loop);
  }
  for (const auto& loop : impl_->loops) {
    if (loop->thread.joinable()) {
      loop->thread.join();
    }
  }
  // Only now close the listener: loop 0 reads listen_fd until it exits.
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
  // In-flight dispatch tasks drain in ~Impl (the pool is destroyed
  // before the loops' epoll fds close).
  if (!impl_->config.unix_path.empty()) {
    ::unlink(impl_->config.unix_path.c_str());
  }
  // Shutdown barrier for the on-disk observability artifacts: stop the
  // sampler and fsync the audit log so a process exit right after
  // stop() loses nothing (the Service destructor fsyncs again for any
  // dispatch still draining above).
  impl_->service.flush_observability();
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool Client::connect_spec(const std::string& spec, std::string* error) {
  // "HOST:PORT" when only digits follow the last colon and no '/'
  // appears; otherwise a socket path, "unix:"-prefixed or bare.
  const bool prefixed = spec.rfind("unix:", 0) == 0;
  const std::size_t colon = spec.rfind(':');
  const bool tcp = !prefixed && colon != std::string::npos &&
                   colon + 1 < spec.size() &&
                   spec.find('/') == std::string::npos &&
                   spec.find_first_not_of("0123456789", colon + 1) ==
                       std::string::npos;
  const std::string target = prefixed ? spec.substr(5)
                             : tcp    ? spec.substr(0, colon)
                                      : spec;
  // At most five digits, so stoi cannot overflow.
  const int port = tcp && spec.size() - colon <= 6
                       ? std::stoi(spec.substr(colon + 1))
                       : 0;
  if (target.empty() || (tcp && (port < 1 || port > 65535))) {
    if (error != nullptr) {
      *error = "bad endpoint: " + spec;
    }
    return false;
  }
  spec_ = spec;
  close();
  if (!tcp) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (target.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) {
        *error = "unix socket path too long";
      }
      return false;
    }
    std::strncpy(addr.sun_path, target.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = open_client_socket(reinterpret_cast<sockaddr*>(&addr), sizeof addr,
                             timeout_ms_, target, error);
    return fd_ >= 0;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) {
      *error = "bad host address: " + target;
    }
    return false;
  }
  fd_ = open_client_socket(reinterpret_cast<sockaddr*>(&addr), sizeof addr,
                           timeout_ms_, spec_, error);
  return fd_ >= 0;
}

bool Client::reconnect(std::string* error) {
  if (!endpoints_.empty()) {
    return connect_spec(endpoints_[active_endpoint_], error);
  }
  if (spec_.empty()) {
    if (error != nullptr) {
      *error = "not connected";
    }
    return false;
  }
  return connect_spec(spec_, error);
}

bool Client::connect_endpoints(const std::string& spec_list,
                               std::string* error) {
  std::vector<std::string> specs;
  std::istringstream list(spec_list);
  for (std::string spec; std::getline(list, spec, ',');) {
    if (!spec.empty()) {
      specs.push_back(spec);
    }
  }
  if (specs.empty()) {
    if (error != nullptr) {
      *error = "empty endpoint list";
    }
    return false;
  }
  endpoints_ = std::move(specs);
  std::string last_error = "unreachable";
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    active_endpoint_ = i;
    if (connect_spec(endpoints_[i], &last_error)) {
      return true;
    }
  }
  // The list stays installed: call_with_retry can still rotate onto an
  // endpoint that comes up later.
  active_endpoint_ = 0;
  if (error != nullptr) {
    *error = "no endpoint reachable, last: " + last_error;
  }
  return false;
}

bool Client::not_primary_reply(const std::string& response_line) {
  std::string parse_error;
  const Json reply = Json::parse(response_line, &parse_error);
  if (!parse_error.empty() || !reply.is_object()) {
    return false;
  }
  const Json* ok = reply.get("ok");
  const Json* err = reply.get("error");
  return ok != nullptr && ok->is_bool() && !ok->as_bool() &&
         err != nullptr && err->is_string() &&
         err->as_string() == "not primary";
}

bool Client::idempotent_verb(const std::string& verb) {
  const Service::Verb* row = Service::find_verb(verb);
  return row != nullptr && row->idempotent;
}

bool Client::call_with_retry(const std::string& request_line,
                             const RetryPolicy& policy,
                             std::string* response_line, std::string* error,
                             int* attempts) {
  // A lost-response retry of a mutation could double-apply it, so only
  // verbs whose replay is harmless retry unless the policy opts in.
  bool retryable = policy.retry_non_idempotent;
  if (!retryable) {
    std::string parse_error;
    const Json request = Json::parse(request_line, &parse_error);
    if (parse_error.empty() && request.is_object()) {
      const Json* verb = request.get("verb");
      retryable = verb != nullptr && verb->is_string() &&
                  idempotent_verb(verb->as_string());
    }
  }

  util::Rng jitter(policy.jitter_seed, /*stream=*/0);
  std::int64_t sleep_ms = std::max(1, policy.base_delay_ms);
  int tries = 0;
  int rotations = 0;
  std::string err;
  for (;;) {
    ++tries;
    if (attempts != nullptr) {
      *attempts = tries;
    }
    const bool up = connected() || reconnect(&err);
    if (up && call(request_line, response_line, &err)) {
      if (!endpoints_.empty() && not_primary_reply(*response_line) &&
          rotations < static_cast<int>(endpoints_.size())) {
        // Follower refusal: deterministic and applied nothing, so
        // rotating is safe for mutations too — and needs no backoff
        // (the next endpoint is a different node).  Bounded by one lap
        // around the list so an all-follower cluster terminates with
        // the refusal reply in hand.
        ++rotations;
        close();
        active_endpoint_ = (active_endpoint_ + 1) % endpoints_.size();
        continue;
      }
      return true;
    }
    if (error != nullptr) {
      *error = err;
    }
    if (!retryable || tries > policy.max_retries) {
      return false;
    }
    // Decorrelated jitter: each sleep is drawn from [base, 3 * previous
    // sleep], capped — uncoordinated clients spread out instead of
    // retrying in lockstep.
    sleep_ms = std::min<std::int64_t>(
        policy.max_delay_ms,
        jitter.uniform_int(std::max(1, policy.base_delay_ms),
                           std::max<std::int64_t>(std::max(1, policy.base_delay_ms),
                                                  sleep_ms * 3)));
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    close();  // a fresh connection for the next attempt
    if (!endpoints_.empty()) {  // the next attempt lands on the next node
      active_endpoint_ = (active_endpoint_ + 1) % endpoints_.size();
    }
  }
}

bool Client::read_line(std::string* response_line, std::string* error) {
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      *response_line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    const ssize_t n = recv_some(fd_, chunk, sizeof chunk);
    if (n <= 0) {
      if (error != nullptr) {
        if (n == 0) {
          *error = "connection closed by server";
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
          *error = "call timed out after " + std::to_string(timeout_ms_) +
                   " ms";
        } else {
          *error = std::string("recv: ") + std::strerror(errno);
        }
      }
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Client::call(const std::string& request_line, std::string* response_line,
                  std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) {
      *error = "not connected";
    }
    return false;
  }
  if (!send_all(fd_, request_line + "\n")) {
    if (error != nullptr) {
      *error = std::string("send: ") + std::strerror(errno);
    }
    return false;
  }
  return read_line(response_line, error);
}

bool Client::call_pipelined(const std::vector<std::string>& request_lines,
                            std::vector<std::string>* response_lines,
                            std::string* error) {
  response_lines->clear();
  if (fd_ < 0) {
    if (error != nullptr) {
      *error = "not connected";
    }
    return false;
  }
  if (request_lines.empty()) {
    return true;
  }
  // One coalesced write for the whole batch — with TCP_NODELAY this is
  // exactly one packet train, not N ack-clocked round trips.
  std::string wire;
  std::size_t total = 0;
  for (const std::string& line : request_lines) {
    total += line.size() + 1;
  }
  wire.reserve(total);
  for (const std::string& line : request_lines) {
    wire.append(line);
    wire.push_back('\n');
  }
  if (!send_all(fd_, wire)) {
    if (error != nullptr) {
      *error = std::string("send: ") + std::strerror(errno);
    }
    return false;
  }
  response_lines->reserve(request_lines.size());
  for (std::size_t i = 0; i < request_lines.size(); ++i) {
    std::string line;
    if (!read_line(&line, error)) {
      return false;  // responses so far are in *response_lines
    }
    response_lines->push_back(std::move(line));
  }
  return true;
}

}  // namespace wormrt::svc
