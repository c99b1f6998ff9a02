#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
/// Primary/follower replication for wormrtd (DESIGN.md §15): the
/// write-ahead journal is already a bitwise-complete replication log,
/// so a follower that replays it through the recovery path reconstructs
/// the primary's engine state exactly.  The journal's in-memory tail
/// (journal.hpp) holds the records to ship; this module adds the rest
/// of the pipeline on top of the existing socket protocol:
///
///   Replicator      primary-side follower registry: each follower's
///                   acknowledged durable LSN, the --sync-replication
///                   wait on it, and the fence for REPL_HELLO.
///   hello, bootstrap, pull_once
///                   the follower's side of the REPL_* verbs, the one
///                   place each request is built and its reply applied —
///                   a pull through Service::apply_replicated: journal
///                   first (one fsync), engine second, through the apply
///                   step recovery replays with.  ReplicaSession and the
///                   fuzz replication oracle run all three, wormrtd's
///                   --follow preflight runs hello.
///   ReplicaSession  follower-side pull loop: a thread that connects to
///                   the primary with the ordinary svc::Client, sends
///                   hello (fingerprint + epoch check), bootstraps from a
///                   snapshot when told, then long-polls with pull_once.
///
/// Wire protocol (newline-delimited JSON, like every other verb):
///   REPL_HELLO  {follower_id, fingerprint, epoch, durable_lsn}
///       -> {ok, epoch, fence_lsn, durable_lsn, snapshot_needed}
///       Fingerprint mismatch is a hard error — shipping records across
///       fabrics would replay garbage.  snapshot_needed is set when the
///       follower's durable LSN is below the tail's floor or its state
///       diverges (older epoch with records past the fence).
///   REPL_SNAPSHOT {}
///       -> {ok, lsn, epoch, next_handle, faulted:[[src,dst],..],
///           entries:[[handle,src,dst,prio,period,len,deadline,order],..]}
///       The primary's full durable population as of `lsn` — the
///       follower installs it with the journal's tmp+fsync->rename
///       discipline (Journal::install_snapshot) and rebuilds its engine.
///   REPL_PULL   {follower_id, from_lsn, durable_lsn, wait_ms}
///       -> {ok, epoch, durable_lsn, records:[[type,lsn,handle,src,dst,
///           prio,period,len,deadline,order],..]} | {snapshot_needed}
///       Long-poll: blocks up to wait_ms for a commit to make new
///       records durable.  The request's durable_lsn IS the
///       acknowledgement — it feeds the primary's lag gauges and
///       releases --sync-replication waiters.
///
/// Only durable records are ever shipped: a failed commit moves its
/// records out of the tail at once (the Service rolls them back).  A
/// follower therefore never applies a mutation the primary could still
/// disavow — the crash-window argument of DESIGN.md §15 reduces to
/// "acked but not yet pulled", which --sync-replication closes by
/// withholding the client ack until a follower reported the record
/// durable.

namespace wormrt::svc {

class Service;

/// Primary-side replication state: the follower registry with
/// per-follower durable LSNs, the --sync-replication wait on it, and the
/// fencing metadata for REPL_HELLO.  The records themselves are the
/// journal's tail (Journal::read_durable).  Thread-safe; owns no I/O.
class Replicator {
 public:
  /// \p fence_lsn: see fence_lsn().
  explicit Replicator(std::uint64_t fence_lsn = 0) : fence_lsn_(fence_lsn) {}

  /// Records a follower's acknowledged durable LSN (from its REPL_PULL
  /// request) and wakes --sync-replication waiters.
  void note_follower(const std::string& follower_id,
                     std::uint64_t durable_lsn, std::int64_t now_ms);

  /// Blocks until some follower has acknowledged durability of
  /// \p lsn, or \p timeout_ms elapsed.  False on timeout (the caller
  /// counts it and degrades to async — semi-synchronous semantics).
  bool wait_follower_durable(std::uint64_t lsn, int timeout_ms);

  struct FollowerInfo {
    std::string id;
    std::uint64_t durable_lsn = 0;
    std::int64_t last_seen_ms = 0;
  };
  std::vector<FollowerInfo> followers() const;

  /// Fencing metadata for REPL_HELLO replies: the highest old-epoch LSN
  /// the current primary incarnation carried over (its durable LSN at
  /// promotion).  Zero unless this primary was promoted from a follower
  /// in this process lifetime — a deposed rejoiner then gets fence_lsn 0
  /// and re-bootstraps, which is pessimistic but never merges a stale
  /// tail.
  std::uint64_t fence_lsn() const { return fence_lsn_; }

 private:
  const std::uint64_t fence_lsn_;
  mutable std::mutex mu_;
  std::condition_variable follower_cv_;  ///< note_follower -> sync waits
  std::map<std::string, FollowerInfo> followers_;
};

/// One replication wire row: \p head — [type, lsn] for a REPL_PULL
/// record, nothing for a REPL_SNAPSHOT entry — followed by the eight
/// JournalEntry columns handle, src, dst, priority, period, length,
/// deadline, route_order.  The primary's only row writer; the apply_*
/// functions below are the only readers.
Json encode_row(std::initializer_list<std::int64_t> head,
                const JournalEntry& entry);

/// The REPL_SNAPSHOT reply carrying \p image, the primary's durable state
/// as of \p lsn under \p epoch — the only writer of the wire image.
Json encode_snapshot_reply(std::uint64_t lsn, std::uint64_t epoch,
                           const StateImage& image);

/// Applies one REPL_SNAPSHOT reply to a follower Service (journal
/// install + engine rebuild): the wire image's only reader, shared by
/// ReplicaSession and the fuzz oracle's in-process replication harness.
/// False + \p error on malformed replies or install failure.
bool apply_snapshot_reply(Service& service, const Json& reply,
                          std::string* error);

/// Decodes every row of one REPL_PULL reply, then applies them as one
/// batch through Service::apply_replicated — a malformed row applies
/// nothing.  \p applied (optional) counts records applied.  False +
/// \p error on failure.
bool apply_pull_reply(Service& service, const Json& reply,
                      std::uint64_t* applied, std::string* error);

/// The primary as one request -> reply round trip: a Client call
/// (primary_at) for ReplicaSession and wormrtd's preflight,
/// Service::handle for the fuzz oracle.  False + error on no reply.
using PrimaryCall =
    std::function<bool(const Json& request, Json* reply, std::string* error)>;

/// The primary behind \p client.
PrimaryCall primary_at(Client& client);

/// What REPL_HELLO tells a follower.
struct HelloReply {
  std::uint64_t epoch = 1;  ///< the primary's fencing epoch
  std::uint64_t fence_lsn = 0;
  std::uint64_t durable_lsn = 0;
  bool snapshot_needed = false;
};

/// Sends REPL_HELLO for a follower under the contract \p fingerprint
/// whose journal holds (\p epoch, \p durable_lsn).  False + \p error when
/// the call failed or the primary refused, with the primary's reason
/// (e.g. "fingerprint mismatch: ...").
bool hello(const PrimaryCall& primary, const std::string& follower_id,
           std::uint64_t fingerprint, std::uint64_t epoch,
           std::uint64_t durable_lsn, HelloReply* reply, std::string* error);

/// Sends REPL_SNAPSHOT and installs the image (apply_snapshot_reply).
bool bootstrap(const PrimaryCall& primary, Service& follower,
               std::string* error);

/// One follower step: one REPL_PULL for the records past \p follower's
/// durable LSN (which is also its ack), long-polling up to \p wait_ms;
/// bootstraps when the reply says snapshot_needed, else applies the
/// records (apply_pull_reply), then notes the primary's position
/// (Service::note_replica_progress).  The follower's durable LSN rises
/// unless the primary had nothing new.
bool pull_once(const PrimaryCall& primary, Service& follower,
               const std::string& follower_id, int wait_ms,
               std::string* error);

/// Follower-side pull loop configuration.  The handshake asserts the
/// contract fingerprint of the follower Service's own fabric.
struct ReplicaConfig {
  /// Primary endpoint spec (Client::connect_spec).
  std::string endpoint;
  /// Identity reported in HELLO/PULL (shows up in the primary's
  /// per-follower lag gauges).  Empty = "pid-<pid>".
  std::string follower_id;
};

/// The follower's replication thread: connect -> hello -> (bootstrap)
/// -> pull_once until stop().  Reconnects with backoff on transport
/// errors and refusals.  Progress (primary durable LSN, epoch, connected)
/// is pushed into the Service for its lag gauges and HEALTH checks.
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

  Service& service_;
  ReplicaConfig config_;
  std::mutex thread_mu_;  // guards thread_: main starts, PROMOTE stops
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
};

}  // namespace wormrt::svc
