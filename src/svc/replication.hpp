#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/journal.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"

/// \file replication.hpp
/// Primary/follower replication for wormrtd (DESIGN.md §15): the PR-5
/// write-ahead journal is already a bitwise-complete replication log, so
/// a follower that replays it through the recovery path reconstructs the
/// primary's engine state exactly.  This module adds the two sides of
/// the shipping pipeline on top of the existing socket protocol:
///
///   Replicator      primary-side record buffer + follower registry.
///                   Service publishes every staged journal record here
///                   (under its own mutex, so buffer order == LSN order)
///                   and the REPL_* verbs serve followers from it.
///   ReplicaSession  follower-side pull loop: a thread that connects to
///                   the primary with the ordinary svc::Client, performs
///                   the HELLO handshake (fingerprint + epoch check),
///                   bootstraps from a snapshot when it is behind the
///                   buffer, then long-polls REPL_PULL and applies each
///                   shipped record through Service::apply_replicated —
///                   journal first, engine second, through the same
///                   apply step recovery replays with.
///
/// Wire protocol (newline-delimited JSON, like every other verb):
///   REPL_HELLO  {follower_id, fingerprint, epoch, durable_lsn}
///       -> {ok, epoch, fence_lsn, durable_lsn, snapshot_needed}
///       Fingerprint mismatch is a hard error — shipping records across
///       fabrics would replay garbage.  snapshot_needed is set when the
///       follower's durable LSN is below the primary's buffer floor or
///       its state diverges (older epoch with records past the fence).
///   REPL_SNAPSHOT {}
///       -> {ok, lsn, epoch, next_handle, faulted:[[src,dst],..],
///           entries:[[handle,src,dst,prio,period,len,deadline,order],..]}
///       The primary's full durable population as of `lsn` — the
///       follower installs it with the journal's tmp+fsync->rename
///       discipline (Journal::install_snapshot) and rebuilds its engine.
///   REPL_PULL   {follower_id, from_lsn, durable_lsn, wait_ms}
///       -> {ok, epoch, durable_lsn, records:[[type,lsn,handle,src,dst,
///           prio,period,len,deadline,order],..]} | {snapshot_needed}
///       Long-poll: blocks up to wait_ms for new durable records.  The
///       request's durable_lsn IS the acknowledgement — it feeds the
///       primary's lag gauges and releases --sync-replication waiters.
///
/// Only durable records are ever shipped: the buffer is served up to the
/// journal's durable watermark, and records that land in a failed commit
/// range are dropped (Service rolls its staged mutations back through
/// the same path).  A follower therefore never applies a mutation the
/// primary could still disavow — the crash-window argument of DESIGN.md
/// §15 reduces to "acked but not yet pulled", which --sync-replication
/// closes by withholding the client ack until a follower reported the
/// record durable.

namespace wormrt::svc {

class Service;

/// Classification of one buffered LSN against the journal's commit
/// state, used by Replicator::serve to ship exactly the durable prefix.
enum class LsnState {
  kPending,  ///< not yet covered by a commit — stop serving here
  kDurable,  ///< fsync'd — ship it
  kFailed,   ///< covered by a failed commit — drop it, never ship
};

/// Primary-side replication state: the in-memory tail of the journal
/// (records staged since the buffer floor), the follower registry with
/// per-follower durable LSNs, and the condition variables that implement
/// REPL_PULL long-polling and --sync-replication waits.  Thread-safe;
/// owns no I/O.
class Replicator {
 public:
  /// \p floor_lsn: records <= this are only available via snapshot
  /// (typically the journal's durable LSN when the primary opened).
  /// \p max_buffer: oldest records are trimmed past this many, raising
  /// the floor — a follower that fell further behind re-bootstraps.
  explicit Replicator(std::uint64_t floor_lsn,
                      std::size_t max_buffer = 4096);

  /// Appends one staged record (call in LSN order, i.e. under the same
  /// lock that staged it into the journal).
  void publish(const JournalRecord& record);

  /// Drops buffered records with LSN > \p durable — the rollback twin of
  /// Service::settle_staged_locked after a failed commit.
  void drop_above(std::uint64_t durable);

  /// Serves records with LSN >= \p from_lsn whose \p classify verdict is
  /// kDurable, stopping at the first kPending and silently dropping
  /// kFailed ones.  Returns false with *snapshot_needed = true when
  /// \p from_lsn falls at or below the buffer floor (the records are
  /// gone — the follower must bootstrap from a snapshot).
  bool serve(std::uint64_t from_lsn,
             const std::function<LsnState(std::uint64_t)>& classify,
             std::vector<JournalRecord>* out, bool* snapshot_needed);

  /// Blocks up to \p wait_ms for a publish/durability signal (REPL_PULL
  /// long-poll tick).  Spurious wakeups are fine — the caller re-serves.
  void wait_tick(int wait_ms);

  /// Wakes long-pollers.  Service calls this after a commit resolves
  /// durably, so ship latency tracks fsync latency, not the poll tick.
  void notify();

  /// Records a follower's acknowledged durable LSN (from its REPL_PULL
  /// request) and wakes --sync-replication waiters.
  void note_follower(const std::string& follower_id,
                     std::uint64_t durable_lsn, std::int64_t now_ms);

  /// Blocks until some follower has acknowledged durability of
  /// \p lsn, or \p timeout_ms elapsed.  False on timeout (the caller
  /// counts it and degrades to async — semi-synchronous semantics).
  bool wait_follower_durable(std::uint64_t lsn, int timeout_ms);

  /// Highest LSN any follower has acknowledged durable (0 when none).
  std::uint64_t max_follower_durable() const;

  struct FollowerInfo {
    std::string id;
    std::uint64_t durable_lsn = 0;
    std::int64_t last_seen_ms = 0;
  };
  std::vector<FollowerInfo> followers() const;

  /// Fencing metadata for REPL_HELLO replies: the epoch the current
  /// primary incarnation superseded and the highest old-epoch LSN it
  /// carried over (its durable LSN at promotion).  Zero until this
  /// primary was promoted from a follower in this process lifetime — a
  /// deposed rejoiner then gets fence_lsn 0 and re-bootstraps, which is
  /// pessimistic but never merges a stale tail.
  void set_fence(std::uint64_t deposed_epoch, std::uint64_t fence_lsn);
  std::uint64_t fence_lsn() const;

  std::uint64_t floor_lsn() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable record_cv_;    ///< publish -> long-pollers
  std::condition_variable follower_cv_;  ///< note_follower -> sync waits
  std::deque<JournalRecord> buffer_;     ///< ascending LSN
  std::uint64_t floor_lsn_ = 0;
  std::size_t max_buffer_;
  std::map<std::string, FollowerInfo> followers_;
  std::uint64_t fence_lsn_ = 0;
  std::uint64_t deposed_epoch_ = 0;
};

/// One replication wire row: \p head — [type, lsn] for a REPL_PULL
/// record, nothing for a REPL_SNAPSHOT entry — followed by the eight
/// JournalEntry columns handle, src, dst, priority, period, length,
/// deadline, route_order.  The primary's only row writer; the apply_*
/// functions below are the only readers.
Json encode_row(std::initializer_list<std::int64_t> head,
                const JournalEntry& entry);

/// Applies one REPL_SNAPSHOT reply to a follower Service (journal
/// install + engine rebuild).  Shared by ReplicaSession and the fuzz
/// oracle's in-process replication harness, so both exercise the same
/// code path.  False + \p error on malformed replies or install failure.
bool apply_snapshot_reply(Service& service, const Json& reply,
                          std::string* error);

/// Applies every record of one REPL_PULL reply through
/// Service::apply_replicated.  \p applied (optional) counts records
/// applied.  False + \p error on the first failure.
bool apply_pull_reply(Service& service, const Json& reply,
                      std::uint64_t* applied, std::string* error);

/// Follower-side pull loop configuration.
struct ReplicaConfig {
  /// Primary endpoint: "unix:PATH", "HOST:PORT", or a bare socket path.
  std::string endpoint;
  /// Identity reported in HELLO/PULL (shows up in the primary's
  /// per-follower lag gauges).  Empty = "pid-<pid>".
  std::string follower_id;
  /// Fabric fingerprint to assert in the handshake (hard mismatch).
  std::uint64_t fingerprint = 0;
  /// REPL_PULL long-poll window.
  int pull_wait_ms = 1000;
  /// Client I/O deadline; must comfortably exceed pull_wait_ms.
  int timeout_ms = 10000;
  /// Backoff between reconnect attempts.
  int reconnect_delay_ms = 200;
};

/// The follower's replication thread: connect -> HELLO -> (bootstrap)
/// -> pull/apply until stop().  Reconnects with backoff on transport
/// errors; re-bootstraps when the primary reports snapshot_needed.
/// Progress (primary durable LSN, epoch, connected) is pushed into the
/// Service for its lag gauges and HEALTH checks.
class ReplicaSession {
 public:
  ReplicaSession(Service& service, ReplicaConfig config);
  ~ReplicaSession();

  ReplicaSession(const ReplicaSession&) = delete;
  ReplicaSession& operator=(const ReplicaSession&) = delete;

  /// Spawns the pull thread.  Idempotent.
  void start();

  /// Signals the thread and joins it (PROMOTE calls this through the
  /// Service's promote hook before flipping the role).  Idempotent, and
  /// safe against a concurrent start() or stop() from another thread.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void run();
  bool connect_primary(Client* client, std::string* error);
  bool call_verb(Client* client, const Json& request, Json* reply,
                 std::string* error);

  Service& service_;
  ReplicaConfig config_;
  std::mutex thread_mu_;  // guards thread_: main starts, PROMOTE stops
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
};

/// Parses "unix:PATH" | "HOST:PORT" | bare-path endpoint specs (shared
/// with the client's --server list).  Returns false on empty specs.
bool parse_endpoint(const std::string& spec, bool* is_unix,
                    std::string* path_or_host, int* port);

}  // namespace wormrt::svc
