#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/fault_injector.hpp"

/// \file journal.hpp
/// The wormrtd write-ahead journal: crash durability for the admission
/// state (DESIGN.md §10).
///
/// Every admission mutation — an admitted REQUEST or a successful
/// REMOVE — is appended as one length-prefixed, CRC-32-checksummed
/// record and fsync'd BEFORE the client sees the acknowledgement, so
/// the acknowledged history is always recoverable.  Periodically the
/// full population is compacted into a snapshot file (written to a
/// temp file, fsync'd, atomically renamed) and the journal is
/// truncated; a monotonic LSN stitches the two together, making a
/// crash at any point of the compaction sequence recoverable (journal
/// records already covered by the snapshot are skipped by LSN at
/// replay).
///
/// On-disk layout under the state dir:
///   journal.wal    framed mutation records (see below)
///   snapshot.bin   one framed full-population record, atomically
///                  replaced on compaction
///
/// Record framing (all integers little-endian):
///   u32 payload_len | u32 crc32(payload) | payload
/// Journal payload:   u8 type (0=HEADER, 1=ADD, 2=REMOVE, 3=LINK_DOWN,
///                            4=LINK_UP) | u64 lsn
///                    | HEADER (lsn 0, always the first record of a fresh
///                      or freshly-truncated journal): 8-byte magic
///                      "WRTJHDR3" | u64 contract fingerprint
///                      | u64 fencing epoch
///                    | ADD: i64 handle,src,dst,priority,period,length,
///                      deadline,route_order
///                    | REMOVE: i64 handle
///                    | LINK_DOWN / LINK_UP: i64 src,dst (the directed
///                      channel's endpoints; the eviction/reroute cascade
///                      is deterministic, so one record replays it all)
/// Snapshot payload:  8-byte magic "WRTSNAP4" | u64 contract fingerprint
///                    | u64 fencing epoch
///                    | u64 last_lsn | i64 next_handle
///                    | u64 fault_count | fault_count x (i64 src,dst)
///                    | u64 count | count x (i64 handle,src,dst,priority,
///                      period,length,deadline,route_order)
///
/// The contract fingerprint (core::contract_fingerprint: the topology and
/// the analysis settings) stamps both files; open() refuses another one.
/// The journal reads only the format it writes: a CRC-valid frame it does
/// not write (another magic, record type or record size) is another
/// format, not a torn tail, and fails open() and recover() by name with
/// the files left as they are.
///
/// The fencing epoch (DESIGN.md §15) identifies the primary incarnation
/// that wrote the state: every promotion of a follower bumps the epoch
/// and makes the bump durable (set_epoch + write_snapshot re-stamps both
/// files).  When a deposed primary later rejoins as a follower, it opens
/// its journal with the new primary's epoch and fence LSN
/// (JournalConfig::min_epoch / fence_lsn): state stamped with an older
/// epoch that contains records past the fence — mutations the old
/// primary acknowledged locally but never replicated — is refused with a
/// hard error instead of being silently merged into the new timeline.
///
/// A torn, truncated, or bit-rotted journal tail fails the length or
/// CRC check; recovery discards everything from the first bad record on
/// — by the write-ahead contract those bytes were never acknowledged.
/// Opening the journal for appending truncates the file back to the
/// last valid record so new records never land beyond a tear.
///
/// Group commit (DESIGN.md §11.3): mutators stage() records (each gets
/// its LSN at once, so LSN order is staging order) and wait_durable()
/// them.  The first waiter with no leader active takes the whole staged
/// batch, commits it with ONE write + fsync and wakes every waiter; none
/// returns success before the fsync covering its record, so one fsync
/// covers N acknowledgements without weakening fsync-before-ack.
/// append() is a batch of one; a follower commits a whole pull the same
/// way (append_replica).
///
/// The tail (DESIGN.md §11.3): every staged record, full entry included,
/// stays in memory in LSN order.  A failed commit hands its records back
/// for rollback (take_failed()); up to JournalConfig::tail_records
/// durable ones stay to ship to followers (read_durable()).

namespace wormrt::svc {

/// One admitted stream: a snapshot row, and the parameter block of an
/// ADD record.  REMOVE records use only `handle`; LINK_DOWN/LINK_UP use
/// only `src`/`dst` (the channel's endpoints).
struct JournalEntry {
  std::int64_t handle = -1;
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::int64_t priority = 0;
  std::int64_t period = 0;
  std::int64_t length = 0;
  std::int64_t deadline = 0;
  /// Which deterministic route order built the stream's path (see
  /// route/fault_aware.hpp) — persisted so replay reconstructs the exact
  /// path without consulting fault state.
  std::int64_t route_order = 0;

  bool operator==(const JournalEntry&) const = default;
};

/// A row's eight columns in the order snapshot rows, ADD records and
/// replication wire rows carry them.
inline constexpr std::int64_t JournalEntry::*kEntryColumns[] = {
    &JournalEntry::handle,   &JournalEntry::src,    &JournalEntry::dst,
    &JournalEntry::priority, &JournalEntry::period, &JournalEntry::length,
    &JournalEntry::deadline, &JournalEntry::route_order};

struct JournalRecord {
  enum class Type : std::uint8_t {
    kAdd = 1,
    kRemove = 2,
    kLinkDown = 3,
    kLinkUp = 4,
  };
  Type type = Type::kAdd;
  std::uint64_t lsn = 0;
  JournalEntry entry;
  /// A staged REMOVE's engine position, kept in memory like its
  /// parameter block: a failed commit re-inserts the stream there.
  std::int64_t position = -1;
};

struct JournalConfig {
  /// State directory (created if missing).
  std::string dir;
  /// fsync the journal after every append (the durability guarantee).
  /// Off only where the test harness simulates crashes by dropping the
  /// in-memory objects, not the process — file contents survive that
  /// without fsync, and skipping 10k syscalls keeps the fuzzer fast.
  bool fsync_data = true;
  /// Fault-injection hook for the write/fsync paths; nullptr = real I/O.
  util::FaultInjector* faults = nullptr;
  /// Fingerprint of the fabric contract this journal serves
  /// (core::contract_fingerprint).  Non-zero: stamped into the journal
  /// header and every snapshot, and open() hard-fails when the state dir
  /// carries a different one — replaying another contract's records
  /// would silently produce bounds nobody promised.  0 writes a
  /// header-less WAL and checks nothing (topology-less unit tests).
  std::uint64_t fingerprint = 0;
  /// Fencing floor: when non-zero, the state dir must not contain
  /// records from an epoch older than this past `fence_lsn` — a deposed
  /// primary's unreplicated tail.  open() hard-fails on such state
  /// instead of merging it.  0 disables fencing (standalone primaries).
  std::uint64_t min_epoch = 0;
  /// The highest LSN of the old epoch that made it into the new
  /// timeline (the promoted follower's durable LSN at promotion).
  /// Old-epoch records with LSN <= fence_lsn replay normally.
  std::uint64_t fence_lsn = 0;
  /// Durable records the tail keeps for followers (at least 1).
  std::size_t tail_records = 4096;
};

/// The durable admission state as one value: what a snapshot file holds,
/// what compaction, PROMOTE and REPL_SNAPSHOT capture, and what recovery
/// and a follower's bootstrap install.
struct StateImage {
  /// The handle the next admission draws; it also covers handles freed
  /// by removals above the surviving maximum.
  std::int64_t next_handle = 0;
  /// The population in engine order, under recorded handles and route
  /// orders.
  std::vector<JournalEntry> rows;
  /// Faulted channels as (src,dst) endpoint pairs in channel-id order —
  /// applied to the topology before the rows.
  std::vector<std::pair<std::int64_t, std::int64_t>> faulted;
};

/// Everything recovery learned from the state dir, in replay order.
struct RecoveredState {
  bool had_snapshot = false;
  /// Journal LSNs <= this are already folded into `snapshot`.
  std::uint64_t snapshot_lsn = 0;
  /// Fencing epoch stamped in the snapshot / journal header (the max of
  /// the two when both are present).  State without either reads as
  /// epoch 1 — the first primary incarnation.
  std::uint64_t epoch = 1;
  /// The snapshotted state (replay first; empty without a snapshot).
  StateImage snapshot;
  /// Post-snapshot mutations in append order (replay second).
  std::vector<JournalRecord> records;
  /// Stale records skipped by LSN (a crash between snapshot rename and
  /// journal truncation leaves these behind; they are harmless).
  std::uint64_t skipped_records = 0;
  /// Bytes of torn/corrupt journal tail that were discarded.
  std::uint64_t discarded_bytes = 0;
};

class Journal {
 public:
  /// Metrics (journal fsync latency, appends, compactions, replay
  /// counts) land in \p registry when non-null.
  explicit Journal(JournalConfig config, obs::Registry* registry = nullptr);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// wormrt_journal_fsync_us in \p registry (registered on first use):
  /// the journal's fsyncs observe it; HEALTH and the sampler read its p99.
  static obs::Histogram& fsync_histogram(obs::Registry& registry);

  /// Reads snapshot + journal into \p state, repairs a torn journal
  /// tail, and opens the journal for appending.  False + \p error on an
  /// unrecoverable problem (unreadable dir, corrupt snapshot, a format
  /// this build does not write, another contract fingerprint).
  bool open(RecoveredState* state, std::string* error);

  /// Durably appends one mutation (assigns its LSN, writes, fsyncs).
  /// False + \p error on failure; a clean write failure (e.g. ENOSPC)
  /// leaves the journal usable with the partial record truncated away,
  /// while a torn write (simulated crash) poisons the journal — every
  /// later append fails fast.  Equivalent to stage() + wait_durable(),
  /// with a failed record dropped instead of handed back.
  bool append(JournalRecord::Type type, const JournalEntry& entry,
              std::string* error);

  /// Stages one mutation record into the group-commit batch and assigns
  /// its LSN (returned via \p lsn).  The record is NOT yet durable — the
  /// caller must wait_durable(lsn) before acknowledging anything.  LSN
  /// order is staging order; callers serialise staging with the same
  /// lock that orders their state mutations so replay order equals
  /// apply order.  False + \p error when the journal is closed, poisoned,
  /// or holds failed records not yet taken (nothing is staged then).
  /// \p position is kept in memory only (JournalRecord::position).
  bool stage(JournalRecord::Type type, const JournalEntry& entry,
             std::uint64_t* lsn, std::string* error,
             std::int64_t position = -1);

  /// Blocks until every record with LSN <= \p lsn is durable (one
  /// waiter becomes the commit leader and writes + fsyncs the whole
  /// staged batch).  True when the covering fsync completed; false +
  /// \p error when the batch containing \p lsn failed — the caller must
  /// roll the staged mutation back, exactly as for a failed append().
  bool wait_durable(std::uint64_t lsn, std::string* error);

  /// Drives every staged record to durable or failed (becoming leader
  /// if needed); true when none failed.
  bool flush_staged(std::string* error);

  /// The failed records not yet taken, newest first — the order in which
  /// the caller rolls their mutations back.
  std::vector<JournalRecord> take_failed();

  /// Appends the durable records with LSN >= \p from_lsn to \p out,
  /// oldest first, waiting up to \p wait_ms for a commit when there is
  /// none — what REPL_PULL ships.  False when \p from_lsn is at or below
  /// floor_lsn(): the follower must bootstrap from a snapshot.
  bool read_durable(std::uint64_t from_lsn, int wait_ms,
                    std::vector<JournalRecord>* out);

  /// LSNs <= this ship only inside a snapshot: the durable LSN at
  /// open(), install_snapshot() or set_epoch(), raised by each trim.
  std::uint64_t floor_lsn() const;

  /// Highest LSN known durable (fsync'd, or written when fsync_data is
  /// off).  Staged-but-unacknowledged records are above this watermark.
  std::uint64_t durable_lsn() const;

  /// Highest LSN ever covered by a failed batch; records in
  /// (durable-at-failure, failed_through] were never written durably
  /// and their staged mutations must be rolled back.  0 when no batch
  /// failed (or a follower's retry or bootstrap superseded it).
  std::uint64_t failed_through() const;

  /// The fencing epoch this journal stamps into headers and snapshots.
  /// After open(): max(recovered epoch, JournalConfig::min_epoch).
  std::uint64_t epoch() const;

  /// Raises the fencing epoch (promotion), and the floor to the durable
  /// LSN.  Takes effect on the next header / snapshot stamp; callers
  /// make it durable by following up with write_snapshot().  Lowering
  /// the epoch is ignored.
  void set_epoch(std::uint64_t epoch);

  /// Durably appends a follower's pull under the PRIMARY's LSNs: stages
  /// every record, all or nothing, and commits them with one fsync.  The
  /// LSNs must ascend above every staged or durable one; gaps are allowed
  /// (the primary skips LSNs of failed batches), and a retry may reuse
  /// the LSNs of its own failed pull.  False + \p error on failure, with
  /// append()'s poisoning semantics.
  bool append_replica(std::span<const JournalRecord> records,
                      std::string* error);
  /// A pull of one record.
  bool append_replica(const JournalRecord& record, std::string* error) {
    return append_replica(std::span<const JournalRecord>(&record, 1), error);
  }

  /// Installs a replication bootstrap snapshot: the primary's \p image
  /// as of its LSN \p last_lsn under \p epoch.  Same tmp+fsync+rename
  /// discipline as write_snapshot, then the LSN cursor and the floor
  /// move to last_lsn.  Existing journal records are truncated away —
  /// the snapshot supersedes them.
  bool install_snapshot(std::uint64_t last_lsn, std::uint64_t epoch,
                        const StateImage& image, std::string* error);

  /// Compacts the full population into the snapshot file and truncates
  /// the journal.  The caller passes the authoritative controller state
  /// as \p image.  False + \p error on failure; the previous snapshot
  /// and journal stay intact in that case.
  bool write_snapshot(const StateImage& image, std::string* error);

  /// Appends staged since the last successful write_snapshot (or open).
  std::uint64_t appends_since_snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return appends_since_snapshot_;
  }

  /// Reads the state dir without touching it (no tail repair, nothing
  /// opened for writing, no contract check): a read-only inspection.
  static bool recover(const std::string& dir, RecoveredState* state,
                      std::string* error);

  static std::string journal_path(const std::string& dir);
  static std::string snapshot_path(const std::string& dir);

 private:
  bool write_blob(int fd, const std::string& blob, bool* torn,
                  std::string* error);
  bool sync_fd(int fd, std::string* error);
  bool sync_dir(std::string* error);
  bool stageable_locked(std::string* error);  ///< see stage(); mu_ held
  void stage_record_locked(const JournalRecord& record);  ///< mu_ held
  /// wait_durable(), dropping the failed records: no rollback wants them.
  bool wait_or_drop(std::uint64_t lsn, std::string* error);
  /// Commits the staged batch as leader: called with mu_ held and
  /// leader_active_ set; drops the lock for the I/O, reacquires it to
  /// publish the outcome, settle the tail and wake waiters.
  void lead_commit(std::unique_lock<std::mutex>& lk);
  /// Shared body of write_snapshot / install_snapshot: writes the
  /// snapshot blob (claiming LSNs <= \p last_lsn), truncates the
  /// journal, re-stamps the header.  Called with mu_ held, no leader
  /// active, nothing pending.
  bool snapshot_locked(std::uint64_t last_lsn, const StateImage& image,
                       std::string* error);

  JournalConfig config_;
  int fd_ = -1;
  bool poisoned_ = false;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t epoch_ = 1;
  std::uint64_t appends_since_snapshot_ = 0;

  /// Group-commit state, all under mu_.  `pending_` holds the framed
  /// bytes of records staged but not yet handed to a leader; they cover
  /// exactly the LSNs in (max(durable, last failure), next_lsn_ - 1].
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string pending_;
  std::uint64_t pending_count_ = 0;
  std::uint64_t durable_lsn_ = 0;
  /// Ascending LSN: <= tail_records durable records, then unresolved ones.
  std::deque<JournalRecord> tail_;
  std::uint64_t floor_lsn_ = 0;
  /// A failed commit's records, newest first, until take_failed().
  std::vector<JournalRecord> failed_;
  bool leader_active_ = false;
  std::string fail_error_;
  /// Failed LSN ranges (lo, hi], newest last.  Checked BEFORE the
  /// durable watermark: a later successful batch advances durable_lsn_
  /// past a failed range, and a failed record must never turn into a
  /// success.  Bounded: oldest ranges (whose waiters have long since
  /// returned) are dropped past a small cap.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> failed_ranges_;

  struct Metrics {
    explicit Metrics(obs::Registry& reg);
    obs::Counter& appends;
    obs::Counter& append_failures;
    obs::Counter& bytes_written;
    obs::Counter& snapshots;
    obs::Counter& replayed_snapshot;
    obs::Counter& replayed_records;
    obs::Counter& skipped_records;
    obs::Counter& discarded_bytes;
    obs::Histogram& fsync_us;
    obs::Counter& group_commits;
    obs::Histogram& group_commit_batch;  ///< records per leader commit
  };
  Metrics* metrics_ = nullptr;  // owned; null when no registry was given
};

}  // namespace wormrt::svc
