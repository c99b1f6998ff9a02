#include "svc/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>

#include "core/admission.hpp"
#include "util/crc32.hpp"

namespace wormrt::svc {

namespace {

constexpr char kJournalFile[] = "journal.wal";
constexpr char kSnapshotFile[] = "snapshot.bin";
constexpr char kSnapshotTmp[] = "snapshot.tmp";
// The one format this build writes and reads (8 bytes each, without the
// NUL); a magic changes with the layout or a stamped value's meaning.
constexpr char kSnapshotMagic[] = "WRTSNAP4";
constexpr char kHeaderMagic[] = "WRTJHDR3";

constexpr std::size_t kRowBytes = std::size(kEntryColumns) * 8;
// Payload size by record type: type(1) + lsn(8), then for the header
// (type 0, only the first frame) magic, fingerprint and epoch; for ADD a
// row; for REMOVE a handle; for LINK_DOWN / LINK_UP a channel's src, dst.
constexpr std::size_t kPayload[] = {9 + 24, 9 + kRowBytes, 9 + 8, 9 + 16,
                                    9 + 16};
constexpr std::size_t kHeaderPayload = kPayload[0];
// Snapshot head: magic, fingerprint, epoch, last_lsn, next_handle,
// fault count (8 each); the row count follows the fault pairs.
constexpr std::size_t kSnapshotHead = 6 * 8;
// Any frame claiming a larger payload than the biggest snapshot we could
// plausibly write is garbage bytes, not a record.
constexpr std::uint32_t kMaxPayload = 64u << 20;
// Failed-range history cap: a range only matters while a waiter for one
// of its LSNs is still blocked, and waiters return at the failure's
// notify — old ranges are dead weight, not correctness.
constexpr std::size_t kMaxFailedRanges = 256;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::int64_t get_i64(const char* p) {
  return static_cast<std::int64_t>(get_u64(p));
}

/// A row's columns (kEntryColumns), as snapshot rows and ADD records
/// carry them.
void put_entry(std::string& out, const JournalEntry& e) {
  for (const auto column : kEntryColumns) {
    put_i64(out, e.*column);
  }
}

/// The row whose columns start at \p p.
JournalEntry get_entry(const char* p) {
  JournalEntry e;
  for (const auto column : kEntryColumns) {
    e.*column = get_i64(p);
    p += 8;
  }
  return e;
}

/// The magic at \p p as text, an unprintable byte as '?'.
std::string magic_at(const char* p) {
  std::string out(p, 8);
  std::replace_if(out.begin(), out.end(),
                  [](char c) { return c < ' ' || c > '~'; }, '?');
  return out;
}

/// False + \p error when \p dir's \p file is stamped \p found, not
/// \p fingerprint (0 checks nothing): its channel ids may name other
/// links, and its bounds were issued under other analysis settings.
bool same_contract(const std::string& dir, const char* file,
                   std::uint64_t found, std::uint64_t fingerprint,
                   std::string* error) {
  if (fingerprint == 0 || found == fingerprint) {
    return true;
  }
  *error = dir + ": " + file +
           " was written for a different fabric contract (fingerprint " +
           std::to_string(found) + ", this fabric's is " +
           std::to_string(fingerprint) + "; it covers " +
           core::kContractSettings +
           "); refusing to replay state from another fabric";
  return false;
}

std::string frame(const std::string& payload) {
  std::string out;
  out.reserve(8 + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, util::crc32(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

std::string encode_record(JournalRecord::Type type, std::uint64_t lsn,
                          const JournalEntry& e) {
  std::string payload;
  payload.reserve(kPayload[1]);
  payload.push_back(static_cast<char>(type));
  put_u64(payload, lsn);
  switch (type) {
    case JournalRecord::Type::kAdd:
      put_entry(payload, e);
      break;
    case JournalRecord::Type::kRemove:
      put_i64(payload, e.handle);
      break;
    case JournalRecord::Type::kLinkDown:
    case JournalRecord::Type::kLinkUp:
      put_i64(payload, e.src);
      put_i64(payload, e.dst);
      break;
  }
  return payload;
}

/// The header record: type 0, LSN 0, magic + topology fingerprint +
/// fencing epoch.  Always the first frame of a fresh (or freshly
/// truncated) journal.
std::string encode_header(std::uint64_t fingerprint, std::uint64_t epoch) {
  std::string payload;
  payload.reserve(kHeaderPayload);
  payload.push_back(static_cast<char>(0));
  put_u64(payload, 0);
  payload.append(kHeaderMagic, 8);
  put_u64(payload, fingerprint);
  put_u64(payload, epoch);
  return payload;
}

bool read_file(const std::string& path, std::string* out, bool* exists,
               std::string* error) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      *exists = false;
      return true;
    }
    *error = path + ": open: " + std::strerror(errno);
    return false;
  }
  *exists = true;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = path + ": read: " + std::strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) {
      break;
    }
    out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

/// Checks the frame at `data+off` and returns its payload span, or
/// nullptr when the remainder of the buffer is not a valid frame (short,
/// implausible length, or CRC mismatch).
const char* check_frame(const std::string& data, std::size_t off,
                        std::size_t* payload_len) {
  if (data.size() - off < 8) {
    return nullptr;
  }
  const std::uint32_t len = get_u32(data.data() + off);
  if (len == 0 || len > kMaxPayload || data.size() - off - 8 < len) {
    return nullptr;
  }
  const std::uint32_t crc = get_u32(data.data() + off + 4);
  const char* payload = data.data() + off + 8;
  if (util::crc32(payload, len) != crc) {
    return nullptr;
  }
  *payload_len = len;
  return payload;
}

bool parse_snapshot(const std::string& dir, std::uint64_t fingerprint,
                    const std::string& data, RecoveredState* state,
                    std::string* error) {
  std::size_t len = 0;
  const char* p = check_frame(data, 0, &len);
  // The snapshot is written to a temp file and renamed into place, so a
  // crash never leaves it half-written — a bad frame is real corruption,
  // not a torn tail, and recovery must not silently drop the population.
  if (p == nullptr || len < 8) {
    *error = "snapshot.bin is corrupt (bad frame or magic)";
    return false;
  }
  if (std::memcmp(p, kSnapshotMagic, 8) != 0) {
    *error = std::string(kSnapshotFile) + " is format " + magic_at(p) +
             ", not " + kSnapshotMagic +
             "; refusing to read a format this build does not write";
    return false;
  }
  const auto corrupt = [error] {
    *error = "snapshot.bin is corrupt (count disagrees with payload size)";
    return false;
  };
  // The head and a row count must fit; counts are checked divided, not
  // multiplied, so a huge one cannot wrap past the check.
  if (len < kSnapshotHead + 8 ||
      get_u64(p + 40) > (len - kSnapshotHead - 8) / 16) {
    return corrupt();
  }
  if (!same_contract(dir, kSnapshotFile, get_u64(p + 8), fingerprint,
                     error)) {
    return false;
  }
  const std::uint64_t fault_count = get_u64(p + 40);
  state->epoch = std::max(state->epoch, get_u64(p + 16));
  const std::uint64_t last_lsn = get_u64(p + 24);
  const std::int64_t next_handle = get_i64(p + 32);
  const char* q = p + kSnapshotHead;
  const char* const end = p + len;
  state->snapshot.faulted.reserve(fault_count);
  for (std::uint64_t i = 0; i < fault_count; ++i, q += 16) {
    state->snapshot.faulted.emplace_back(get_i64(q), get_i64(q + 8));
  }
  const std::uint64_t count = get_u64(q);
  q += 8;
  const auto rows_bytes = static_cast<std::uint64_t>(end - q);
  if (rows_bytes % kRowBytes != 0 || rows_bytes / kRowBytes != count) {
    return corrupt();
  }
  state->had_snapshot = true;
  state->snapshot_lsn = last_lsn;
  state->snapshot.next_handle = next_handle;
  state->snapshot.rows.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i, q += kRowBytes) {
    state->snapshot.rows.push_back(get_entry(q));
  }
  return true;
}

/// Walks \p dir's journal, appending valid post-snapshot records to
/// state->records, and sets \p valid_bytes past the last valid frame;
/// a short or CRC-failing rest is a torn tail.  A CRC-valid frame this
/// build does not write is another format: false + \p error naming it,
/// so nothing acknowledged is cut away as a tail.
bool parse_journal(const std::string& dir, std::uint64_t fingerprint,
                   const std::string& data, RecoveredState* state,
                   std::size_t* valid_bytes, std::string* error) {
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t len = 0;
    const char* p = check_frame(data, off, &len);
    if (p == nullptr) {
      break;
    }
    const auto type = static_cast<std::uint8_t>(p[0]);
    const bool header = type == 0;  // valid only as the very first frame
    if (type >= std::size(kPayload) || len != kPayload[type] ||
        (header && (off != 0 || std::memcmp(p + 9, kHeaderMagic, 8) != 0))) {
      const std::string found =
          !header ? "a " + std::to_string(len) + "-byte record of type " +
                        std::to_string(type)
          : off != 0 ? std::string("a second header")
                     : "a " + std::to_string(len) + "-byte header" +
                           (len >= 17 ? " " + magic_at(p + 9) : "");
      *error = dir + "/" + kJournalFile + ": the frame at byte " +
               std::to_string(off) + " is " + found +
               "; refusing to read a format this build does not write";
      return false;
    }
    if (header) {
      if (!same_contract(dir, kJournalFile, get_u64(p + 17), fingerprint,
                         error)) {
        return false;
      }
      state->epoch = std::max(state->epoch, get_u64(p + 25));
      off += 8 + len;
      continue;
    }
    JournalRecord rec;
    rec.type = static_cast<JournalRecord::Type>(type);
    rec.lsn = get_u64(p + 1);
    if (rec.type == JournalRecord::Type::kAdd) {
      rec.entry = get_entry(p + 9);
    } else if (rec.type == JournalRecord::Type::kRemove) {
      rec.entry.handle = get_i64(p + 9);
    } else {
      rec.entry.src = get_i64(p + 9);
      rec.entry.dst = get_i64(p + 17);
    }
    off += 8 + len;
    if (state->had_snapshot && rec.lsn <= state->snapshot_lsn) {
      // Leftover of a crash between snapshot rename and journal
      // truncation: the snapshot already folds this mutation in.
      ++state->skipped_records;
      continue;
    }
    state->records.push_back(rec);
  }
  state->discarded_bytes += data.size() - off;
  *valid_bytes = off;
  return true;
}

/// Reads \p dir's snapshot and journal, refusing state stamped with
/// another \p fingerprint (0 checks nothing).
bool read_state(const std::string& dir, std::uint64_t fingerprint,
                RecoveredState* state, std::size_t* journal_valid_bytes,
                std::string* error) {
  *state = RecoveredState{};
  std::string data;
  bool exists = false;
  if (!read_file(dir + "/" + kSnapshotFile, &data, &exists, error)) {
    return false;
  }
  if (exists && !parse_snapshot(dir, fingerprint, data, state, error)) {
    return false;
  }
  if (!read_file(dir + "/" + kJournalFile, &data, &exists, error)) {
    return false;
  }
  *journal_valid_bytes = 0;
  return !exists || parse_journal(dir, fingerprint, data, state,
                                  journal_valid_bytes, error);
}

}  // namespace

std::string Journal::journal_path(const std::string& dir) {
  return dir + "/" + kJournalFile;
}

std::string Journal::snapshot_path(const std::string& dir) {
  return dir + "/" + kSnapshotFile;
}

Journal::Metrics::Metrics(obs::Registry& reg)
    : appends(reg.counter("wormrt_journal_appends_total", {},
                          "Mutation records durably appended to the WAL.")),
      append_failures(reg.counter(
          "wormrt_journal_append_failures_total", {},
          "Journal appends that failed (write error, torn write, or "
          "fsync error); the paired admission is rolled back.")),
      bytes_written(reg.counter("wormrt_journal_bytes_written_total", {},
                                "Bytes written to the WAL (framing "
                                "included).")),
      snapshots(reg.counter("wormrt_journal_snapshots_total", {},
                            "Snapshot compactions completed.")),
      replayed_snapshot(reg.counter(
          "wormrt_journal_replayed_snapshot_entries_total", {},
          "Streams restored from the snapshot at recovery.")),
      replayed_records(reg.counter(
          "wormrt_journal_replayed_records_total", {},
          "Post-snapshot WAL records replayed at recovery.")),
      skipped_records(reg.counter(
          "wormrt_journal_skipped_records_total", {},
          "Stale WAL records skipped by LSN at recovery (already folded "
          "into the snapshot).")),
      discarded_bytes(reg.counter(
          "wormrt_journal_discarded_tail_bytes_total", {},
          "Torn/corrupt WAL tail bytes discarded at recovery.")),
      fsync_us(fsync_histogram(reg)),
      group_commits(reg.counter("wormrt_journal_group_commits_total", {},
                                "Leader commits (one write + fsync each).")),
      group_commit_batch(reg.histogram(
          "wormrt_journal_group_commit_batch_size", 0.0, 128.0, 32, {},
          "Records made durable per leader commit.")) {}

obs::Histogram& Journal::fsync_histogram(obs::Registry& registry) {
  // 50µs buckets: the old 1ms buckets could not resolve the group-commit
  // win against the serial baseline (DESIGN.md §14).
  return registry.histogram("wormrt_journal_fsync_us", 0.0, 50000.0, 1000, {},
                            "WAL fsync latency in microseconds.");
}

Journal::Journal(JournalConfig config, obs::Registry* registry)
    : config_(std::move(config)) {
  if (registry != nullptr) {
    metrics_ = new Metrics(*registry);
  }
}

Journal::~Journal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  delete metrics_;
}

bool Journal::sync_fd(int fd, std::string* error) {
  if (config_.faults != nullptr) {
    const int err = config_.faults->on_fsync();
    if (err != 0) {
      *error = std::string("fsync (injected): ") + std::strerror(err);
      return false;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (::fsync(fd) != 0) {
    *error = std::string("fsync: ") + std::strerror(errno);
    return false;
  }
  if (metrics_ != nullptr) {
    metrics_->fsync_us.observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  return true;
}

bool Journal::sync_dir(std::string* error) {
  const int dfd = ::open(config_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    *error = config_.dir + ": open dir: " + std::strerror(errno);
    return false;
  }
  const bool ok = ::fsync(dfd) == 0;
  if (!ok) {
    *error = config_.dir + ": fsync dir: " + std::strerror(errno);
  }
  ::close(dfd);
  return ok;
}

bool Journal::write_blob(int fd, const std::string& blob, bool* torn,
                         std::string* error) {
  *torn = false;
  std::size_t budget = blob.size();
  int inject_errno = 0;
  if (config_.faults != nullptr) {
    const util::FaultInjector::WriteOutcome out =
        config_.faults->on_write(blob.size());
    budget = out.allowed;
    inject_errno = out.error;
    *torn = out.torn;
  }
  std::size_t written = 0;
  while (written < budget) {
    const ssize_t n =
        ::write(fd, blob.data() + written, budget - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  if (budget < blob.size()) {
    *error = std::string("write (injected): ") +
             std::strerror(inject_errno != 0 ? inject_errno : EIO);
    return false;
  }
  return true;
}

bool Journal::open(RecoveredState* state, std::string* error) {
  if (::mkdir(config_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    *error = config_.dir + ": mkdir: " + std::strerror(errno);
    return false;
  }
  std::size_t valid_bytes = 0;
  if (!read_state(config_.dir, config_.fingerprint, state, &valid_bytes,
                  error)) {
    return false;
  }

  // Epoch fencing: a deposed primary's state dir carries the old epoch;
  // anything it wrote past the fence LSN was acknowledged locally but
  // never made the new timeline.  Replaying those records would silently
  // merge two histories — hard error, the operator must discard or
  // re-bootstrap this state dir.
  if (config_.min_epoch != 0 && state->epoch < config_.min_epoch) {
    std::uint64_t past_fence = 0;
    for (const JournalRecord& rec : state->records) {
      if (rec.lsn > config_.fence_lsn) {
        ++past_fence;
      }
    }
    if (state->had_snapshot && state->snapshot_lsn > config_.fence_lsn) {
      *error = config_.dir + ": snapshot.bin from deposed epoch " +
               std::to_string(state->epoch) + " covers LSN " +
               std::to_string(state->snapshot_lsn) + " past fence LSN " +
               std::to_string(config_.fence_lsn) + " (current epoch is " +
               std::to_string(config_.min_epoch) +
               "); refusing to replay a deposed primary's unreplicated "
               "state";
      return false;
    }
    if (past_fence > 0) {
      *error = config_.dir + ": journal.wal carries " +
               std::to_string(past_fence) + " record(s) past fence LSN " +
               std::to_string(config_.fence_lsn) + " from deposed epoch " +
               std::to_string(state->epoch) + " (current epoch is " +
               std::to_string(config_.min_epoch) +
               "); refusing to replay a deposed primary's unreplicated "
               "state";
      return false;
    }
  }
  epoch_ = std::max(std::max<std::uint64_t>(state->epoch, 1),
                    config_.min_epoch);

  const std::string path = journal_path(config_.dir);
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd_ < 0) {
    *error = path + ": open: " + std::strerror(errno);
    return false;
  }
  // Cut off the torn/corrupt tail so fresh records never land beyond a
  // tear.  Those bytes were never acknowledged (fsync-before-ack), so
  // discarding them loses nothing a client was promised.
  if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0) {
    *error = path + ": ftruncate: " + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }

  // A fresh (or fully repaired-to-empty) journal gets the fingerprint
  // header as its first frame, so a later recovery can verify identity
  // even before the first snapshot exists.
  if (valid_bytes == 0 && config_.fingerprint != 0) {
    const std::string blob = frame(encode_header(config_.fingerprint, epoch_));
    bool torn = false;
    if (!write_blob(fd_, blob, &torn, error) ||
        (config_.fsync_data && !sync_fd(fd_, error))) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
  }

  std::uint64_t max_lsn = state->snapshot_lsn;
  for (const JournalRecord& rec : state->records) {
    max_lsn = std::max(max_lsn, rec.lsn);
  }
  next_lsn_ = max_lsn + 1;
  durable_lsn_ = max_lsn;  // everything on disk is, by definition, durable
  floor_lsn_ = max_lsn;    // and ships only inside a snapshot
  pending_.clear();
  pending_count_ = 0;
  tail_.clear();
  failed_.clear();
  failed_ranges_.clear();
  appends_since_snapshot_ = state->records.size();

  if (metrics_ != nullptr) {
    metrics_->replayed_snapshot.inc(state->snapshot.rows.size());
    metrics_->replayed_records.inc(state->records.size());
    metrics_->skipped_records.inc(state->skipped_records);
    metrics_->discarded_bytes.inc(state->discarded_bytes);
  }
  return true;
}

bool Journal::append(JournalRecord::Type type, const JournalEntry& entry,
                     std::string* error) {
  std::uint64_t lsn = 0;
  return stage(type, entry, &lsn, error) && wait_or_drop(lsn, error);
}

bool Journal::wait_or_drop(std::uint64_t lsn, std::string* error) {
  if (wait_durable(lsn, error)) {
    return true;
  }
  static_cast<void>(take_failed());
  return false;
}

bool Journal::stageable_locked(std::string* error) {
  if (fd_ < 0) {
    *error = "journal is not open";
    return false;
  }
  if (poisoned_ || !failed_.empty()) {
    if (metrics_ != nullptr) {
      metrics_->append_failures.inc();
    }
    *error = poisoned_
                 ? "journal poisoned by an earlier torn write or fsync failure"
                 : fail_error_;
    return false;
  }
  return true;
}

void Journal::stage_record_locked(const JournalRecord& record) {
  pending_ += frame(encode_record(record.type, record.lsn, record.entry));
  ++pending_count_;
  ++appends_since_snapshot_;
  tail_.push_back(record);
}

bool Journal::stage(JournalRecord::Type type, const JournalEntry& entry,
                    std::uint64_t* lsn, std::string* error,
                    std::int64_t position) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!stageable_locked(error)) {
    return false;
  }
  *lsn = next_lsn_++;
  stage_record_locked({type, *lsn, entry, position});
  return true;
}

std::vector<JournalRecord> Journal::take_failed() {
  std::lock_guard<std::mutex> lk(mu_);
  return std::exchange(failed_, {});
}

bool Journal::read_durable(std::uint64_t from_lsn, int wait_ms,
                           std::vector<JournalRecord>* out) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto first = [&] {
    return std::lower_bound(
        tail_.begin(), tail_.end(), from_lsn,
        [](const JournalRecord& r, std::uint64_t lsn) { return r.lsn < lsn; });
  };
  const auto shippable = [&](auto it) {
    return it != tail_.end() && it->lsn <= durable_lsn_;
  };
  cv_.wait_for(lk, std::chrono::milliseconds(std::max(wait_ms, 0)), [&] {
    return from_lsn <= floor_lsn_ || shippable(first());
  });
  if (from_lsn <= floor_lsn_) {
    return false;
  }
  for (auto it = first(); shippable(it); ++it) {
    out->push_back(*it);
  }
  return true;
}

std::uint64_t Journal::floor_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return floor_lsn_;
}

void Journal::lead_commit(std::unique_lock<std::mutex>& lk) {
  // Take the whole staged batch; records staged while the I/O below is
  // in flight accumulate into a fresh pending_ for the next leader.
  std::string batch = std::move(pending_);
  pending_.clear();
  const std::uint64_t batch_count = pending_count_;
  pending_count_ = 0;
  const std::uint64_t batch_last = next_lsn_ - 1;
  const bool fsync_data = config_.fsync_data;

  lk.unlock();
  struct stat st {};
  std::string err;
  bool ok = true;
  bool poison = false;
  if (::fstat(fd_, &st) != 0) {
    err = std::string("fstat: ") + std::strerror(errno);
    ok = false;
  } else {
    const off_t size_before = st.st_size;
    bool torn = false;
    if (!write_blob(fd_, batch, &torn, &err)) {
      ok = false;
      if (torn || ::ftruncate(fd_, size_before) != 0) {
        // A torn write models a crash mid-batch: the partial bytes stay
        // on disk for recovery's CRC check to discard, and this journal
        // is done — the "process" is dead.  An unrepairable clean
        // failure poisons too (the tail is now unknown).
        poison = true;
      }
    } else if (fsync_data && !sync_fd(fd_, &err)) {
      // Durability of the batch is unknown; pull it back (the process
      // is still alive, so the truncate is observed) and stop trusting
      // the device.
      static_cast<void>(::ftruncate(fd_, size_before));
      ok = false;
      poison = true;
    }
  }
  lk.lock();

  leader_active_ = false;
  if (ok) {
    durable_lsn_ = batch_last;
    // Trim to tail_records durable records (those staged during the I/O
    // are not durable and stay): each trimmed record raises the floor.
    const std::size_t keep = std::max<std::size_t>(config_.tail_records, 1);
    for (std::size_t n = tail_.size() - pending_count_; n > keep; --n) {
      floor_lsn_ = tail_.front().lsn;
      tail_.pop_front();
    }
    if (metrics_ != nullptr) {
      metrics_->appends.inc(batch_count);
      metrics_->bytes_written.inc(batch.size());
      metrics_->group_commits.inc();
      metrics_->group_commit_batch.observe(static_cast<double>(batch_count));
    }
  } else {
    // The batch failed, and anything staged while we were writing never
    // reached the file either: fail every LSN assigned so far, so each
    // waiter rolls its mutation back.
    poisoned_ = poisoned_ || poison;
    fail_error_ = err;
    const std::uint64_t failed_count =
        batch_count + pending_count_;
    pending_.clear();
    pending_count_ = 0;
    failed_ranges_.emplace_back(durable_lsn_, next_lsn_ - 1);
    if (failed_ranges_.size() > kMaxFailedRanges) {
      failed_ranges_.erase(failed_ranges_.begin());
    }
    // Out of the tail at once, so they never ship; nothing stages until
    // take_failed() hands them back, so failed_ was empty.
    while (!tail_.empty() && tail_.back().lsn > durable_lsn_) {
      failed_.push_back(std::move(tail_.back()));
      tail_.pop_back();
    }
    if (metrics_ != nullptr) {
      metrics_->append_failures.inc(failed_count);
    }
  }
  cv_.notify_all();
}

bool Journal::wait_durable(std::uint64_t lsn, std::string* error) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Failure first: a later successful batch moves durable_lsn_ past a
    // failed range, and a failed record must never read as durable.
    for (const auto& [lo, hi] : failed_ranges_) {
      if (lsn > lo && lsn <= hi) {
        *error = fail_error_;
        return false;
      }
    }
    if (lsn <= durable_lsn_) {
      return true;
    }
    if (!leader_active_) {
      if (pending_count_ == 0) {
        // Defensive: our record is neither durable, failed, nor staged —
        // cannot happen while every stager waits on its own LSN.
        *error = "journal record " + std::to_string(lsn) + " was lost";
        return false;
      }
      leader_active_ = true;
      lead_commit(lk);
      continue;
    }
    cv_.wait(lk);
  }
}

std::uint64_t Journal::durable_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return durable_lsn_;
}

std::uint64_t Journal::failed_through() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failed_ranges_.empty() ? 0 : failed_ranges_.back().second;
}

bool Journal::flush_staged(std::string* error) {
  std::uint64_t target = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pending_count_ == 0 && !leader_active_) {
      return true;
    }
    target = next_lsn_ - 1;
  }
  return wait_durable(target, error);
}

bool Journal::write_snapshot(const StateImage& image, std::string* error) {
  // The snapshot's LSN watermark covers every LSN assigned so far, so
  // staged records must be durable before the snapshot claims them.
  // (Callers serialise mutations against snapshotting, so nothing new
  // is staged while we run; the flush also makes this thread the leader
  // for whatever is in flight.)
  if (!flush_staged(error)) {
    return false;
  }
  std::unique_lock<std::mutex> lk(mu_);
  while (leader_active_) {
    cv_.wait(lk);
  }
  if (fd_ < 0) {
    *error = "journal is not open";
    return false;
  }
  if (poisoned_) {
    *error = "journal poisoned by an earlier torn write or fsync failure";
    return false;
  }
  if (!failed_.empty()) {
    // The caller's state still holds mutations a failed commit is about
    // to roll back; the snapshot must not make them durable.
    *error = fail_error_;
    return false;
  }
  // Every record assigned so far is folded in.
  return snapshot_locked(next_lsn_ - 1, image, error);
}

bool Journal::snapshot_locked(std::uint64_t last_lsn, const StateImage& image,
                              std::string* error) {
  std::string payload;
  payload.reserve(56 + image.faulted.size() * 16 + image.rows.size() * 8 * 8);
  payload.append(kSnapshotMagic, 8);
  put_u64(payload, config_.fingerprint);
  put_u64(payload, epoch_);
  put_u64(payload, last_lsn);
  put_i64(payload, image.next_handle);
  put_u64(payload, image.faulted.size());
  for (const auto& [src, dst] : image.faulted) {
    put_i64(payload, src);
    put_i64(payload, dst);
  }
  put_u64(payload, image.rows.size());
  for (const JournalEntry& e : image.rows) {
    put_entry(payload, e);
  }

  const std::string tmp = config_.dir + "/" + kSnapshotTmp;
  const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tfd < 0) {
    *error = tmp + ": open: " + std::strerror(errno);
    return false;
  }
  bool torn = false;
  if (!write_blob(tfd, frame(payload), &torn, error) ||
      (config_.fsync_data && !sync_fd(tfd, error))) {
    ::close(tfd);
    ::unlink(tmp.c_str());  // the real snapshot is untouched
    if (torn) {
      poisoned_ = true;
    }
    return false;
  }
  ::close(tfd);

  // The atomic switch: once the rename is durable, the snapshot covers
  // LSNs <= next_lsn_-1 and the journal content is redundant (records
  // are skipped by LSN even if the truncate below never happens).
  if (::rename(tmp.c_str(), snapshot_path(config_.dir).c_str()) != 0) {
    *error = std::string("rename snapshot: ") + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  if (config_.fsync_data && !sync_dir(error)) {
    return false;
  }
  if (::ftruncate(fd_, 0) != 0) {
    *error = std::string("truncate journal: ") + std::strerror(errno);
    return false;
  }
  // Re-stamp the truncated journal with the fingerprint header so the
  // state dir carries the fabric identity in both files at all times.
  // Best-effort failure handling: a torn header poisons the journal
  // (the tail is unknown), a clean failure truncates back to empty —
  // either way the snapshot just written stays authoritative.
  if (config_.fingerprint != 0) {
    bool torn = false;
    if (!write_blob(fd_, frame(encode_header(config_.fingerprint, epoch_)),
                    &torn, error) ||
        (config_.fsync_data && !sync_fd(fd_, error))) {
      if (torn || ::ftruncate(fd_, 0) != 0) {
        poisoned_ = true;
      }
      return false;
    }
  }

  appends_since_snapshot_ = 0;
  if (metrics_ != nullptr) {
    metrics_->snapshots.inc();
  }
  return true;
}

std::uint64_t Journal::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

void Journal::set_epoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  if (epoch <= epoch_) {
    return;
  }
  epoch_ = epoch;
  floor_lsn_ = durable_lsn_;
  while (!tail_.empty() && tail_.front().lsn <= floor_lsn_) {
    tail_.pop_front();
  }
}

bool Journal::append_replica(std::span<const JournalRecord> records,
                             std::string* error) {
  if (records.empty()) {
    return true;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!stageable_locked(error)) {
      return false;
    }
    std::uint64_t last =
        std::max(durable_lsn_, tail_.empty() ? 0 : tail_.back().lsn);
    for (const JournalRecord& record : records) {
      if (record.lsn <= last) {
        *error = "replica LSN " + std::to_string(record.lsn) +
                 " is not above LSN " + std::to_string(last);
        return false;
      }
      last = record.lsn;
    }
    // A retry of this journal's own failed pull (it restarts just above
    // the durable LSN) supersedes that failure.
    while (!failed_ranges_.empty() &&
           failed_ranges_.back().second >= records.front().lsn) {
      failed_ranges_.pop_back();
    }
    for (const JournalRecord& record : records) {
      stage_record_locked(record);
    }
    next_lsn_ = last + 1;
  }
  return wait_or_drop(records.back().lsn, error);
}

bool Journal::install_snapshot(std::uint64_t last_lsn, std::uint64_t epoch,
                               const StateImage& image, std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ < 0) {
    *error = "journal is not open";
    return false;
  }
  if (poisoned_) {
    *error = "journal poisoned by an earlier torn write or fsync failure";
    return false;
  }
  if (pending_count_ != 0 || leader_active_) {
    *error = "install_snapshot raced a local mutation (a follower journal "
             "must have no local writers)";
    return false;
  }
  epoch_ = std::max(epoch_, epoch);
  if (!snapshot_locked(last_lsn, image, error)) {
    return false;
  }
  // The bootstrap state supersedes whatever LSN history was here: the
  // cursor continues from the primary's sequence.
  next_lsn_ = last_lsn + 1;
  durable_lsn_ = last_lsn;
  floor_lsn_ = last_lsn;
  tail_.clear();
  failed_ranges_.clear();
  return true;
}

bool Journal::recover(const std::string& dir, RecoveredState* state,
                      std::string* error) {
  std::size_t valid_bytes = 0;
  return read_state(dir, 0, state, &valid_bytes, error);
}

}  // namespace wormrt::svc
