#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/admission.hpp"
#include "obs/conformance.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "svc/audit.hpp"
#include "svc/journal.hpp"
#include "svc/json.hpp"

/// \file service.hpp
/// The wormrtd verb layer: maps protocol requests (newline-delimited
/// JSON objects, see DESIGN.md §7) onto the incremental
/// AdmissionController and keeps per-verb metrics.  Thread-safe: the
/// server hands lines to this class from multiple connection workers;
/// one mutex serialises controller mutations (the engine parallelises
/// internally across the dirty set via AnalysisConfig::num_threads).
///
/// The verbs are one table, Service::kVerbs in service.cpp: each row
/// names a verb's handler, how it holds the service lock (which also
/// decides whether BATCH may carry it), whether a follower refuses it,
/// and whether a client may resend it.  DESIGN.md §7.2 lists the wire
/// fields.  Every response carries "ok"; failures add "error".
///
/// Durability (DESIGN.md §11): REQUEST and REMOVE run as a batch of one
/// through BATCH's commit path.  Each mutation is applied to the engine
/// and staged into the journal under mu_ (so LSN order == apply order),
/// then the lock is RELEASED while the caller waits for the covering
/// group commit.  The ack goes out only after the fsync; on a failed
/// commit every staged-but-undurable mutation is rolled back, in reverse
/// staging order, before any new mutation is decided — readers
/// (QUERY/SNAPSHOT) may observe a staged-not-yet-durable admission, but
/// no client ever receives an ack for one.
///
/// Metrics live in a per-Service obs::Registry (not the process-global
/// one, so two Services in one test binary never share counts); see
/// DESIGN.md §9 for the metric names.  Thread-pool and engine counters
/// are mirrored into the registry at scrape time.

namespace wormrt::svc {

class Replicator;

/// Durability and robustness knobs, beyond the analysis config.
struct ServiceOptions {
  /// Directory for the write-ahead journal + snapshot; empty = the
  /// admission state is in-memory only (the pre-journal behaviour).
  std::string state_dir;
  /// Compact the journal into a snapshot after this many appends.
  std::uint64_t compact_every = 256;
  /// fsync the journal on every append — the crash-durability
  /// guarantee.  See JournalConfig::fsync_data for when tests turn it
  /// off.
  bool journal_fsync = true;
  /// Fault injection for the journal's I/O paths (tests, fuzzer).
  util::FaultInjector* journal_faults = nullptr;
  /// History sampler tick; 0 (default) disables the sampler thread —
  /// tests drive Sampler::sample_once() deterministically instead.
  int sample_interval_ms = 0;
  /// JSONL audit log of admissions/removals/link mutations; empty =
  /// off.  Opened by open_state() (which therefore must be called even
  /// without a state dir when auditing is wanted).
  std::string audit_path;
  /// Size-rotate the audit log past this many bytes (to audit_path.1).
  std::uint64_t audit_max_bytes = 64ull << 20;
  /// Start as a replication follower: mutations are refused with
  /// "not primary" and state arrives via apply_replicated() until a
  /// PROMOTE flips the role.  Requires a state dir (the replica apply
  /// path journals every shipped record before touching the engine).
  bool follower = false;
  /// Fencing floor for the follower's journal open — the new primary's
  /// epoch and fence LSN from the pre-open REPL_HELLO.  A deposed
  /// primary's unreplicated tail is refused at replay (journal.hpp).
  std::uint64_t repl_min_epoch = 0;
  std::uint64_t repl_fence_lsn = 0;
  /// Primary: withhold every mutation ack until at least one follower
  /// reported the record durable (REPL_PULL's durable_lsn).  On timeout
  /// the ack degrades to async — counted in
  /// wormrt_repl_sync_timeouts_total and surfaced by HEALTH.
  bool sync_replication = false;
  int sync_replication_timeout_ms = 5000;
  /// Durable records the journal's tail keeps to serve followers
  /// (JournalConfig::tail_records); a follower further behind than this
  /// re-bootstraps from a snapshot.
  std::size_t repl_buffer_records = 4096;
  /// HEALTH degrades when replication lag (records) exceeds this.
  std::uint64_t repl_lag_degraded = 1024;
};

class Service {
  struct PendingAck;

 public:
  /// Topology and routing are borrowed and must outlive the service.
  /// The topology is mutable: the LINK_DOWN / LINK_UP verbs drive its
  /// channel fault flags (the channel set itself never changes).
  Service(topo::Topology& topo, const route::RoutingAlgorithm& routing,
          core::AnalysisConfig config = {}, ServiceOptions options = {});

  // Out-of-line: unique_ptr<Replicator> needs the complete type.
  ~Service();

  /// Opens the state dir (when ServiceOptions::state_dir is set) and
  /// replays snapshot + journal into the controller — the recovered
  /// engine state is bitwise-identical to the crashed daemon's
  /// acknowledged state (see DESIGN.md §10).  Must be called before
  /// serving; a false return (+ \p error) means the state dir is
  /// unusable and the daemon must not start.  No-op without a state
  /// dir.
  bool open_state(std::string* error);

  /// What open_state() found (zeros when no state dir / nothing there).
  struct RecoveryInfo {
    std::uint64_t snapshot_entries = 0;
    std::uint64_t journal_records = 0;
    std::uint64_t skipped_records = 0;
    std::uint64_t discarded_bytes = 0;
    /// LINK_DOWN/LINK_UP records replayed + snapshot fault rows applied.
    std::uint64_t topology_mutations = 0;
  };
  const RecoveryInfo& recovery_info() const { return recovery_; }

  /// Parses one protocol line, dispatches, returns the serialized
  /// response (exactly one line, no trailing newline).
  std::string handle_line(const std::string& line);

  /// Dispatches one parsed request object.
  Json handle(const Json& request);

  /// True once a SHUTDOWN verb has been served (the daemon main loop and
  /// the server poll this).
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Prometheus text exposition of this service's registry, with the
  /// thread-pool and engine mirrors refreshed — what METRICS returns.
  std::string prometheus_text() const;

  std::size_t population() const;

  /// This service's metric registry (tests scrape it directly).
  obs::Registry& registry() { return registry_; }

  /// The conformance monitor (tests and the flitsim feed report into
  /// it; the REPORT verb is the socket path).
  obs::ConformanceMonitor& conformance() { return conformance_; }

  /// The history sampler.  Runs only when
  /// ServiceOptions::sample_interval_ms > 0; tests call sample_once().
  obs::Sampler& sampler() { return sampler_; }

  /// The audit log, or nullptr when ServiceOptions::audit_path is
  /// empty / open_state() has not run.
  AuditLog* audit() { return audit_.get(); }

  /// fsyncs the audit log and stops the sampler thread — the shutdown
  /// barrier Server::stop() and the daemon's signal path run so the
  /// on-disk artifacts are complete before exit.  Idempotent.
  void flush_observability();

  /// The live controller — the recovery tests and the fuzzer's crash
  /// oracle compare engine state (bounds, handles) across a restart.
  const core::AdmissionController& controller() const { return ctrl_; }

  /// Replication role.  Starts from ServiceOptions::follower; PROMOTE
  /// flips a follower to primary for the rest of the process life.
  bool is_follower() const {
    return follower_.load(std::memory_order_acquire);
  }

  /// The journal's durable watermark (0 without a state dir) and
  /// fencing epoch (1 without) — the follower session's pull cursor and
  /// the HELLO handshake read these.
  std::uint64_t durable_lsn() const;
  std::uint64_t epoch() const;

  /// Applies one pull of replicated records on a follower: journal
  /// first (Journal::append_replica — every record under the primary's
  /// LSN, one commit), then the engine through replay_locked — the
  /// replay recovery runs — with one audit record each.  False +
  /// \p error on failure, with nothing applied when the commit failed or
  /// a record fails the check recovery runs (an ADD this topology cannot
  /// carry, a link record naming a channel it lacks) — the session must
  /// stop rather than skip a record.
  bool apply_replicated(std::span<const JournalRecord> records,
                        std::string* error);
  /// A pull of one record.
  bool apply_replicated(const JournalRecord& record, std::string* error) {
    return apply_replicated(std::span<const JournalRecord>(&record, 1), error);
  }

  /// Installs a replication bootstrap snapshot on a follower: journal
  /// install (tmp+fsync->rename, WAL truncated) first, then the engine
  /// takes the image through replay_locked, as recovery installs
  /// snapshot.bin.  An image with a row or fault pair recovery would
  /// refuse is refused before either, leaving the follower as it was.
  bool bootstrap_replicated(std::uint64_t last_lsn,
                            std::uint64_t snapshot_epoch,
                            const StateImage& image, std::string* error);

  /// Follower-side progress from the replica session, for the lag
  /// gauges and HEALTH: the primary's durable LSN + epoch as of the
  /// last successful pull, and whether the session is connected.
  void note_replica_progress(std::uint64_t primary_durable,
                             std::uint64_t primary_epoch, bool connected);

  /// Called by PROMOTE (without mu_) before the role flips — wormrtd
  /// installs a hook that stops and joins the ReplicaSession so no
  /// replicated apply races the promotion.
  void set_promote_hook(std::function<void()> hook);

  /// How a verb's handler holds mu_.
  enum class Lock : std::uint8_t {
    kHeld,    ///< dispatch holds mu_ around the handler
    kStaged,  ///< under mu_, staging journal work into a PendingAck that
              ///< the commit path resolves (a single verb is a batch of one)
    kOwn,     ///< the handler takes mu_ itself: it waits or long-polls
  };

  /// One row of the verb table, the only place a verb is classified.
  struct Verb {
    std::string_view name;
    Json (Service::*handler)(const Json& request, PendingAck* ack);
    Lock lock;
    bool primary_only;  ///< a follower refuses it with "not primary"
    bool idempotent;    ///< Client::call_with_retry may resend it
    bool counted;       ///< counted in wormrt_requests_total{verb}
  };

  /// The verb table row named \p name, or nullptr.
  static const Verb* find_verb(std::string_view name);

 private:
  /// The verb table (service.cpp).  Counted rows come first, in the
  /// order their wormrt_requests_total children are registered.
  static const Verb kVerbs[];
  /// Row of the counted verb \p name, found at compile time.
  static consteval std::size_t served_row(std::string_view name);

  /// References into registry_, resolved once at construction so the
  /// request hot path never walks the registry map.
  struct Metrics {
    explicit Metrics(obs::Registry& reg);
    /// wormrt_requests_total{verb}, indexed like kVerbs (null for a verb
    /// that is not counted).
    std::vector<obs::Counter*> served;
    obs::Counter& link_evicted;   ///< wormrt_link_streams_total{...}
    obs::Counter& link_rerouted;
    obs::Counter& admitted;   ///< wormrt_admission_decisions_total{...}
    obs::Counter& rejected;
    obs::Counter& errors;     ///< wormrt_errors_total
    obs::Histogram& latency_us;  ///< wormrt_admission_latency_us
    obs::Gauge& population;   ///< wormrt_population (refresh_mirrors)
  };

  /// The journal work a kStaged handler leaves for the commit path.
  struct PendingAck {
    std::uint64_t lsn = 0;  ///< the staged record's LSN; 0 = none
    bool is_add = false;    ///< for the admitted-counter and error label
    /// Audit record drafted under mu_ (null = none); written, with the
    /// durability outcome stamped in, after the covering commit
    /// resolves, outside the lock.
    Json audit;
  };

  /// The verb row of \p request, or nullptr with \p error set to the
  /// reply (not an object, no verb, unknown verb).
  const Verb* verb_of(const Json& request, Json* error);
  /// The one commit path: dispatches \p items in order under one hold of
  /// mu_, then waits once, with mu_ released, for the covering group
  /// commit and fails every sub-reply whose
  /// record did not become durable.  BATCH's sub-requests, and a single
  /// REQUEST or REMOVE as a batch of one.
  std::vector<Json> commit(std::span<const Json> items);

  // Verb handlers, one per kVerbs row.
  Json do_request_locked(const Json& request, PendingAck* ack);
  Json do_remove_locked(const Json& request, PendingAck* ack);
  Json do_query_locked(const Json& request, PendingAck*);
  Json do_explain_locked(const Json& request, PendingAck*);
  Json do_snapshot_locked(const Json&, PendingAck*);
  Json do_metrics_locked(const Json&, PendingAck*);
  Json do_report_locked(const Json& request, PendingAck*);
  Json do_health_locked(const Json&, PendingAck*);
  Json do_history_locked(const Json& request, PendingAck*);
  Json do_shutdown_locked(const Json&, PendingAck*);
  Json do_batch(const Json& request, PendingAck*);
  Json do_link_down(const Json& r, PendingAck*) { return do_link(r, true); }
  Json do_link_up(const Json& r, PendingAck*) { return do_link(r, false); }
  /// Replication verbs (primary + journal only).  REPL_PULL long-polls
  /// WITHOUT mu_ — it blocks a dispatch worker, never the service.
  Json do_repl_hello(const Json& request, PendingAck*);
  Json do_repl_snapshot(const Json&, PendingAck*);
  Json do_repl_pull(const Json& request, PendingAck*);
  Json do_promote(const Json&, PendingAck*);
  /// LINK_DOWN / LINK_UP: the whole verb runs under mu_ — the link
  /// record is staged AND made durable (wait under the lock) before the
  /// eviction/reroute cascade touches the engine, so a crash at any
  /// point replays to the same state; a durability failure rolls back
  /// nothing because nothing was applied.  Rare + heavyweight, so the
  /// serialised fsync is fine.
  Json do_link(const Json& request, bool down);
  /// Waits for a follower to confirm durability of \p lsn when
  /// --sync-replication is on (no-op otherwise); a timeout degrades to
  /// async and is counted.  Call without mu_.
  void sync_replication_wait(std::uint64_t lsn);
  Json error_reply(const std::string& what);

  /// One REPORT observation against the engine's current bound (mu_
  /// held).  False when \p handle is unknown.
  bool report_one_locked(std::int64_t handle, double observed, Json* out);

  /// Rolls back the mutations of the journal's failed commits, newest
  /// first, in one engine batch (mu_ held).  Called by failing waiters
  /// AND by every mutator before it decides, so no admission is ever
  /// judged against doomed state.
  void roll_back_failed_locked();

  /// One occupied channel as the heatmap gauges see it.
  struct ChannelLoad {
    topo::ChannelId channel;
    std::size_t streams;
    double utilization;  ///< sum of length/period over its streams
  };

  /// The replication figures the daemon reports, derived in one pass
  /// (mu_ held) for the wormrt_repl_* gauges, HEALTH and HISTORY; only
  /// the sync-timeout count is read from its counter (sync_timeouts).
  struct ReplicationStatus {
    bool follower = false;
    std::uint64_t epoch = 1;  ///< the local journal's
    std::uint64_t durable_lsn = 0;
    /// A follower's session, and its primary's last reported position.
    bool connected = false;
    std::uint64_t primary_durable_lsn = 0;
    std::uint64_t primary_epoch = 0;
    /// A journaled primary: its followers (REPL_PULL registers them).
    bool serving = false;
    struct Follower {
      std::string id;
      std::uint64_t durable_lsn, lag;
      std::int64_t last_seen_ms;
    };
    std::vector<Follower> followers;
    /// What HEALTH checks: a follower's records behind its primary, a
    /// primary's slowest follower's lag.
    std::uint64_t lag = 0;
  };
  ReplicationStatus replication_status_locked() const;

  /// wormrt_repl_sync_timeouts_total (registered on first use).
  obs::Counter& sync_timeouts() const;
  /// wormrt_server_sheds_total over its reasons (the Server counts them).
  double sheds_total() const;

  /// Mirrors ThreadPool::shared().stats(), the engine's work counters,
  /// the population and the replication status into registry_ (call
  /// with mu_ held, before any exposition).  Also refreshes the
  /// per-channel occupancy/utilization gauges from the engine's channel
  /// index and purges conformance records of departed streams.  Returns
  /// what HEALTH reads too: the occupied channels' loads, in channel
  /// order, and the replication status.
  struct Mirrors {
    std::vector<ChannelLoad> loads;
    ReplicationStatus replication;
  };
  Mirrors refresh_mirrors() const;

  /// Registers the sampler's series + probes (constructor only).
  void setup_sampler();

  /// HEALTH aggregation (mu_ held): fills \p reasons and returns
  /// "ok" | "degraded" | "critical".
  std::string health_status_locked(const ReplicationStatus& replication,
                                   std::vector<std::string>* reasons,
                                   Json* checks) const;

  /// Provenance as a wire object {bound, base_latency, terms, text, ...}.
  static Json provenance_json(const core::BoundProvenance& p);

  /// Compacts the journal into a snapshot once appends_since_snapshot
  /// crosses options_.compact_every (call with mu_ held, after a
  /// successful mutation).  A failed compaction is counted and retried
  /// at the next threshold crossing; the journal stays authoritative.
  void maybe_compact();

  /// Re-establishes a journaled stream under its recorded handle and
  /// route order — replay and, at the engine \p position it had, the
  /// rollback of a failed REMOVE (mu_ held, inside an engine batch).
  void restore_locked(const JournalEntry& e, std::int64_t position = -1);

  /// The only code that turns durable state into engine + fault state
  /// (recovery, follower bootstrap and follower pull; mu_ held).  With
  /// an \p image it first empties the population, clears every fault
  /// flag, faults the image's channels, restores the rows in engine
  /// order under their recorded handles and route orders, and raises
  /// next_handle to the image's.  Then each record in order: ADD
  /// restores the stream, REMOVE removes it, LINK_DOWN/LINK_UP resolve
  /// the endpoints and redo the cascade.  The rows and each run of
  /// ADD/REMOVE records share one engine batch, so every surviving
  /// bound of a run is computed once; the batch ends before a link
  /// record, whose cascade reads settled bounds and batches itself.
  /// Everything must have passed the row check (check_image /
  /// check_record in service.cpp).
  void replay_locked(const StateImage* image,
                     std::span<const JournalRecord> records);

  /// The engine population (in engine order, with forced handles and
  /// route orders), next handle and faulted channel set — the one view
  /// compaction, REPL_SNAPSHOT, and PROMOTE serialize (mu_ held).
  StateImage capture_state_locked() const;

  topo::Topology& topo_;
  ServiceOptions options_;
  mutable std::mutex mu_;
  core::AdmissionController ctrl_;
  std::unique_ptr<Journal> journal_;
  RecoveryInfo recovery_;
  /// Declared before metrics_: the cached references point into it.
  mutable obs::Registry registry_;
  Metrics metrics_;
  /// mutable: refresh_mirrors() (logically const) purges records of
  /// departed streams at scrape time.
  mutable obs::ConformanceMonitor conformance_;
  std::unique_ptr<AuditLog> audit_;
  /// Channels whose gauges were ever set, so a channel that empties is
  /// re-zeroed instead of freezing at its last value (refresh_mirrors).
  mutable std::vector<std::uint8_t> channel_gauge_live_;
  std::atomic<bool> shutdown_{false};
  /// Replication role + primary-side follower registry (replication.hpp).
  std::atomic<bool> follower_{false};
  std::unique_ptr<Replicator> repl_;
  /// Serialises PROMOTE; the hook stops the replica session first.
  std::mutex promote_mu_;
  std::function<void()> promote_hook_;
  /// Follower-side progress snapshot (written by the replica session,
  /// read by HEALTH / metrics / the sampler), all monotone enough for
  /// relaxed atomics.
  std::atomic<std::uint64_t> replica_primary_durable_{0};
  std::atomic<std::uint64_t> replica_primary_epoch_{0};
  std::atomic<bool> replica_connected_{false};
  /// Declared last: its thread probes the members above, so it must be
  /// the first thing destroyed.
  obs::Sampler sampler_;
};

}  // namespace wormrt::svc
