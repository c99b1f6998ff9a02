// The write-ahead journal: record framing, CRC-guarded replay, snapshot
// compaction with LSN stitching, every corruption mode recovery must
// absorb (torn tail, bad CRC, truncated length, trailing zeros), the
// fault-injected failure paths (short write, ENOSPC, fsync error), and
// the Service-level recovery round trip.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

#include "core/admission.hpp"
#include "metrics_reply.hpp"
#include "route/dor.hpp"
#include "svc/journal.hpp"
#include "svc/json.hpp"
#include "svc/replication.hpp"
#include "svc/service.hpp"
#include "topo/mesh.hpp"
#include "util/crc32.hpp"
#include "util/fault_injector.hpp"

namespace wormrt::svc {
namespace {

// On-disk record sizes (u32 len + u32 crc + payload).
constexpr std::size_t kAddRecordBytes = 8 + 73;
constexpr std::size_t kRemoveRecordBytes = 8 + 17;

JournalEntry entry(std::int64_t handle, std::int64_t src = 0,
                   std::int64_t dst = 1) {
  JournalEntry e;
  e.handle = handle;
  e.src = src;
  e.dst = dst;
  e.priority = 2;
  e.period = 50;
  e.length = 10;
  e.deadline = 40;
  return e;
}

long size_of(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? -1 : static_cast<long>(n);
}

void truncate_to(const std::string& path, long size) {
  ASSERT_EQ(::truncate(path.c_str(), size), 0) << path;
}

void flip_byte_at(const std::string& path, long offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(offset);
  char b = 0;
  f.read(&b, 1);
  f.seekp(offset);
  b = static_cast<char>(b ^ 0xFF);
  f.write(&b, 1);
}

void append_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::app | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("wormrt-journal-test-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  JournalConfig config() const {
    JournalConfig c;
    c.dir = dir_;
    return c;
  }

  std::string wal() const { return Journal::journal_path(dir_); }
  std::string snap() const { return Journal::snapshot_path(dir_); }

  /// Opens a journal in dir_ and appends ADD(1), ADD(2), REMOVE(1).
  void seed_three_records(Journal& journal) {
    RecoveredState state;
    std::string error;
    ASSERT_TRUE(journal.open(&state, &error)) << error;
    ASSERT_TRUE(
        journal.append(JournalRecord::Type::kAdd, entry(1, 0, 5), &error))
        << error;
    ASSERT_TRUE(
        journal.append(JournalRecord::Type::kAdd, entry(2, 3, 7), &error))
        << error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kRemove, entry(1), &error))
        << error;
  }

  std::string dir_;
};

TEST_F(JournalTest, FreshDirOpensEmptyAndRecordsReplayInOrder) {
  {
    Journal journal(config());
    RecoveredState state;
    std::string error;
    ASSERT_TRUE(journal.open(&state, &error)) << error;
    EXPECT_FALSE(state.had_snapshot);
    EXPECT_TRUE(state.snapshot.rows.empty());
    EXPECT_TRUE(state.records.empty());
    seed_three_records(journal);  // re-open of an open dir is also fine
  }
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 3u);
  EXPECT_EQ(state.records[0].type, JournalRecord::Type::kAdd);
  EXPECT_EQ(state.records[0].lsn, 1u);
  EXPECT_EQ(state.records[0].entry, entry(1, 0, 5));
  EXPECT_EQ(state.records[1].lsn, 2u);
  EXPECT_EQ(state.records[1].entry, entry(2, 3, 7));
  EXPECT_EQ(state.records[2].type, JournalRecord::Type::kRemove);
  EXPECT_EQ(state.records[2].lsn, 3u);
  EXPECT_EQ(state.records[2].entry.handle, 1);
  EXPECT_EQ(state.discarded_bytes, 0u);
  EXPECT_EQ(state.skipped_records, 0u);
}

TEST_F(JournalTest, ReopenContinuesTheLsnSequence) {
  {
    Journal journal(config());
    seed_three_records(journal);
  }
  Journal journal(config());
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  EXPECT_EQ(state.records.size(), 3u);
  ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(3), &error))
      << error;
  RecoveredState again;
  ASSERT_TRUE(Journal::recover(dir_, &again, &error)) << error;
  ASSERT_EQ(again.records.size(), 4u);
  EXPECT_EQ(again.records[3].lsn, 4u);
}

TEST_F(JournalTest, SnapshotCompactsAndTruncatesTheJournal) {
  Journal journal(config());
  seed_three_records(journal);
  EXPECT_EQ(journal.appends_since_snapshot(), 3u);

  const std::vector<JournalEntry> population = {entry(2, 3, 7)};
  std::string error;
  ASSERT_TRUE(journal.write_snapshot({3, population, {}}, &error)) << error;
  EXPECT_EQ(journal.appends_since_snapshot(), 0u);
  EXPECT_EQ(size_of(wal()), 0);

  ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(3), &error))
      << error;

  RecoveredState state;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  EXPECT_TRUE(state.had_snapshot);
  EXPECT_EQ(state.snapshot_lsn, 3u);
  EXPECT_EQ(state.snapshot.next_handle, 3);
  ASSERT_EQ(state.snapshot.rows.size(), 1u);
  EXPECT_EQ(state.snapshot.rows[0], entry(2, 3, 7));
  ASSERT_EQ(state.records.size(), 1u);
  EXPECT_EQ(state.records[0].lsn, 4u);  // LSNs keep counting across it
}

TEST_F(JournalTest, StaleRecordsLeftByACrashedCompactionAreSkipped) {
  Journal journal(config());
  seed_three_records(journal);

  // A crash between the snapshot rename and the journal truncation
  // leaves the old records behind the new snapshot: reconstruct that
  // state by saving the journal bytes across write_snapshot.
  const std::string old_records = read_bytes(wal());
  std::string error;
  ASSERT_TRUE(journal.write_snapshot({3, {entry(2, 3, 7)}, {}}, &error)) << error;
  append_bytes(wal(), old_records);

  RecoveredState state;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  EXPECT_TRUE(state.had_snapshot);
  EXPECT_EQ(state.skipped_records, 3u);  // all three predate the snapshot
  EXPECT_TRUE(state.records.empty());
  ASSERT_EQ(state.snapshot.rows.size(), 1u);
  EXPECT_EQ(state.snapshot.rows[0], entry(2, 3, 7));
}

TEST_F(JournalTest, TornTailIsDiscardedAndRepairedOnOpen) {
  {
    Journal journal(config());
    seed_three_records(journal);
  }
  const long full = size_of(wal());
  truncate_to(wal(), full - 10);  // tear the REMOVE record mid-payload

  RecoveredState state;
  std::string error;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 2u);
  EXPECT_EQ(state.discarded_bytes, kRemoveRecordBytes - 10);

  // open() truncates the tear away and appends land cleanly after it.
  Journal journal(config());
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  EXPECT_EQ(size_of(wal()), full - static_cast<long>(kRemoveRecordBytes));
  ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(9), &error))
      << error;
  RecoveredState again;
  ASSERT_TRUE(Journal::recover(dir_, &again, &error)) << error;
  ASSERT_EQ(again.records.size(), 3u);
  EXPECT_EQ(again.records[2].entry.handle, 9);
  EXPECT_EQ(again.discarded_bytes, 0u);
}

TEST_F(JournalTest, BadCrcStopsReplayAtTheCorruptRecord) {
  {
    Journal journal(config());
    seed_three_records(journal);
  }
  // Flip a payload byte of the second record: it and everything after
  // it is discarded (replay cannot trust the stream past a bad frame).
  flip_byte_at(wal(), static_cast<long>(kAddRecordBytes + 20));
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 1u);
  EXPECT_EQ(state.records[0].entry.handle, 1);
  EXPECT_EQ(state.discarded_bytes, kAddRecordBytes + kRemoveRecordBytes);
}

TEST_F(JournalTest, TrailingZerosFromPreallocationAreDiscarded) {
  {
    Journal journal(config());
    seed_three_records(journal);
  }
  append_bytes(wal(), std::string(17, '\0'));
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  EXPECT_EQ(state.records.size(), 3u);
  EXPECT_EQ(state.discarded_bytes, 17u);
}

TEST_F(JournalTest, TruncatedOrAbsurdLengthFieldsAreDiscarded) {
  {
    Journal journal(config());
    seed_three_records(journal);
  }
  // Three garbage bytes: not even a complete length field.
  append_bytes(wal(), "\xff\xff\xff");
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  EXPECT_EQ(state.records.size(), 3u);
  EXPECT_EQ(state.discarded_bytes, 3u);

  // A full header whose length claims ~2 GiB: rejected without any
  // attempt to allocate or read that much.
  truncate_to(wal(), static_cast<long>(2 * kAddRecordBytes + kRemoveRecordBytes));
  std::string huge(8, '\0');
  huge[0] = '\xff';
  huge[1] = '\xff';
  huge[2] = '\xff';
  huge[3] = '\x7f';
  const long before = size_of(wal());
  append_bytes(wal(), huge);
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  EXPECT_EQ(state.discarded_bytes, 8u);
  EXPECT_EQ(size_of(wal()), before + 8);
}

TEST_F(JournalTest, CorruptSnapshotIsAHardError) {
  Journal journal(config());
  seed_three_records(journal);
  std::string error;
  ASSERT_TRUE(journal.write_snapshot({3, {entry(2, 3, 7)}, {}}, &error)) << error;

  flip_byte_at(snap(), size_of(snap()) / 2);
  RecoveredState state;
  EXPECT_FALSE(Journal::recover(dir_, &state, &error));
  EXPECT_NE(error.find("snapshot"), std::string::npos) << error;

  // A journal cannot open over a corrupt snapshot either: silently
  // serving a partial population would violate the durability contract.
  Journal reopened(config());
  EXPECT_FALSE(reopened.open(&state, &error));
}

TEST_F(JournalTest, TornWriteInjectionPoisonsTheJournal) {
  util::FaultInjector faults;
  JournalConfig cfg = config();
  cfg.faults = &faults;
  Journal journal(cfg);
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(1), &error))
      << error;

  faults.arm_torn_write(10);
  EXPECT_FALSE(journal.append(JournalRecord::Type::kAdd, entry(2), &error));
  EXPECT_EQ(faults.faults_injected(), 1u);
  // The partial record stays on disk (the "process" died mid-write)...
  EXPECT_EQ(size_of(wal()), static_cast<long>(kAddRecordBytes) + 10);
  // ...and the journal is poisoned: later appends fail fast.
  EXPECT_FALSE(journal.append(JournalRecord::Type::kAdd, entry(3), &error));
  EXPECT_NE(error.find("poisoned"), std::string::npos) << error;

  // Recovery sees one whole record and discards the 10-byte tear.
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 1u);
  EXPECT_EQ(state.discarded_bytes, 10u);
}

TEST_F(JournalTest, CleanWriteErrorLeavesTheJournalUsable) {
  util::FaultInjector faults;
  JournalConfig cfg = config();
  cfg.faults = &faults;
  Journal journal(cfg);
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(1), &error))
      << error;

  faults.arm_write_error(28 /* ENOSPC */);
  EXPECT_FALSE(journal.append(JournalRecord::Type::kAdd, entry(2), &error));
  EXPECT_NE(error.find("No space"), std::string::npos) << error;

  // ENOSPC failed the append cleanly: nothing partial on disk, and the
  // journal keeps working once space is back.
  EXPECT_EQ(size_of(wal()), static_cast<long>(kAddRecordBytes));
  ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(2), &error))
      << error;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 2u);
  EXPECT_EQ(state.records[1].entry.handle, 2);
  EXPECT_EQ(state.discarded_bytes, 0u);
}

TEST_F(JournalTest, FsyncFailurePullsTheRecordBackAndPoisons) {
  util::FaultInjector faults;
  JournalConfig cfg = config();
  cfg.faults = &faults;
  Journal journal(cfg);
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(1), &error))
      << error;

  faults.arm_fsync_error(5 /* EIO */);
  EXPECT_FALSE(journal.append(JournalRecord::Type::kAdd, entry(2), &error));
  // Durability unknown -> the record is withdrawn and the device is no
  // longer trusted.
  EXPECT_EQ(size_of(wal()), static_cast<long>(kAddRecordBytes));
  EXPECT_FALSE(journal.append(JournalRecord::Type::kAdd, entry(3), &error));

  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 1u);
}

TEST_F(JournalTest, FailedRecordsWaitForRollbackBeforeAnythingStages) {
  util::FaultInjector faults;
  JournalConfig cfg = config();
  cfg.faults = &faults;
  Journal journal(cfg);
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  std::uint64_t lsn1 = 0, lsn2 = 0;
  ASSERT_TRUE(journal.stage(JournalRecord::Type::kAdd, entry(1), &lsn1,
                            &error));
  ASSERT_TRUE(journal.stage(JournalRecord::Type::kRemove, entry(1), &lsn2,
                            &error));
  faults.arm_write_error(ENOSPC);
  EXPECT_FALSE(journal.wait_durable(lsn2, &error));

  // Until the caller takes the failed records back, its state still
  // holds their mutations: nothing may stage on top of them, and no
  // snapshot may make them durable.
  std::uint64_t lsn = 0;
  EXPECT_FALSE(journal.stage(JournalRecord::Type::kAdd, entry(2), &lsn,
                             &error));
  EXPECT_NE(error.find("No space"), std::string::npos) << error;
  EXPECT_FALSE(journal.write_snapshot({2, {entry(1)}, {}}, &error));
  EXPECT_NE(error.find("No space"), std::string::npos) << error;

  // Handed back newest first, the REMOVE with its full entry.
  const std::vector<JournalRecord> failed = journal.take_failed();
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].lsn, lsn2);
  EXPECT_EQ(failed[0].type, JournalRecord::Type::kRemove);
  EXPECT_EQ(failed[0].entry, entry(1));
  EXPECT_EQ(failed[1].lsn, lsn1);
  EXPECT_TRUE(journal.take_failed().empty());

  ASSERT_TRUE(journal.stage(JournalRecord::Type::kAdd, entry(2), &lsn,
                            &error))
      << error;
  ASSERT_TRUE(journal.wait_durable(lsn, &error)) << error;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 1u);
  EXPECT_EQ(state.records[0].entry, entry(2));
}

// ------------------------------------------------------------- service level

Json request_line(int src, int dst, int priority, Time period, Time length,
                  Time deadline) {
  Json j = Json::object();
  j.set("verb", "REQUEST");
  j.set("src", std::int64_t{src});
  j.set("dst", std::int64_t{dst});
  j.set("priority", std::int64_t{priority});
  j.set("period", period);
  j.set("length", length);
  j.set("deadline", deadline);
  return j;
}

TEST_F(JournalTest, ServiceRecoversBitwiseIdenticalAdmissionState) {
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  core::AdmissionController oracle(mesh, routing);

  ServiceOptions options;
  options.state_dir = dir_;
  options.compact_every = 4;  // cross the compaction threshold mid-churn
  {
    Service service(mesh, routing, {}, options);
    std::string error;
    ASSERT_TRUE(service.open_state(&error)) << error;
    std::vector<std::int64_t> handles;
    for (int i = 0; i < 10; ++i) {
      const int src = i % 16;
      const int dst = (i + 5) % 16;
      const auto expect = oracle.request(src, dst, 1 + i % 3, 60, 8, 50);
      const Json reply =
          service.handle(request_line(src, dst, 1 + i % 3, 60, 8, 50));
      ASSERT_TRUE(reply.get("ok")->as_bool());
      ASSERT_EQ(reply.get("admitted")->as_bool(), expect.admitted);
      if (expect.admitted) {
        handles.push_back(expect.handle);
      }
    }
    ASSERT_GE(handles.size(), 2u);
    // Tear one stream down so the journal holds REMOVEs too.
    Json remove = Json::object();
    remove.set("verb", "REMOVE");
    remove.set("handle", handles.front());
    ASSERT_TRUE(service.handle(remove).get("removed")->as_bool());
    ASSERT_TRUE(oracle.remove(handles.front()));
  }  // crash

  Service recovered(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(recovered.open_state(&error)) << error;
  EXPECT_GT(recovered.recovery_info().snapshot_entries +
                recovered.recovery_info().journal_records,
            0u);

  const core::IncrementalAnalyzer& want = oracle.engine();
  const core::IncrementalAnalyzer& got = recovered.controller().engine();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(recovered.controller().next_handle(), oracle.next_handle());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto id = static_cast<StreamId>(i);
    EXPECT_EQ(got.handle_of(id), want.handle_of(id));
    EXPECT_EQ(got.bound_at(id), want.bound_at(id));
  }

  // Journal activity is visible through the service metrics.
  const std::string metrics = recovered.prometheus_text();
  EXPECT_NE(metrics.find("wormrt_journal_appends_total"), std::string::npos);
  EXPECT_NE(metrics.find("wormrt_journal_replayed_records_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("wormrt_journal_fsync_us"), std::string::npos);
}

TEST_F(JournalTest, ServiceFailsAdmissionWhenTheJournalCannotAck) {
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  util::FaultInjector faults;
  ServiceOptions options;
  options.state_dir = dir_;
  options.journal_faults = &faults;

  Service service(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(service.open_state(&error)) << error;
  ASSERT_TRUE(service.handle(request_line(0, 5, 2, 60, 8, 50))
                  .get("admitted")
                  ->as_bool());

  // The append for this admission tears: the client must get an error,
  // not an acknowledgement the journal cannot honour...
  faults.arm_torn_write(12);
  const Json reply = service.handle(request_line(1, 6, 2, 60, 8, 50));
  ASSERT_FALSE(reply.get("ok")->as_bool());
  EXPECT_NE(reply.get("error")->as_string().find("not durable"),
            std::string::npos);
  // ...and the in-memory state must not contain the unacknowledged
  // stream either (the admission was rolled back).
  EXPECT_EQ(service.population(), 1u);

  // Recovery agrees: only the acknowledged admission comes back.
  ServiceOptions recovery_options;
  recovery_options.state_dir = dir_;
  Service recovered(mesh, routing, {}, recovery_options);
  ASSERT_TRUE(recovered.open_state(&error)) << error;
  EXPECT_EQ(recovered.population(), 1u);
}

// -------------------------------------------------------------- group commit

TEST_F(JournalTest, GroupCommitBatchedAppendsMatchSerialAppendsOnDisk) {
  // The same mutation sequence, appended one-fsync-per-record vs staged
  // as one batch with a single leader commit, must produce IDENTICAL
  // journal bytes — replay cannot tell the modes apart.
  const std::string serial_dir = dir_ + "-serial";
  std::filesystem::remove_all(serial_dir);
  {
    Journal serial(JournalConfig{serial_dir, true, nullptr});
    RecoveredState state;
    std::string error;
    ASSERT_TRUE(serial.open(&state, &error)) << error;
    ASSERT_TRUE(serial.append(JournalRecord::Type::kAdd, entry(1, 0, 5),
                              &error));
    ASSERT_TRUE(serial.append(JournalRecord::Type::kAdd, entry(2, 3, 7),
                              &error));
    ASSERT_TRUE(serial.append(JournalRecord::Type::kRemove, entry(1),
                              &error));
  }
  {
    Journal batched(config());
    RecoveredState state;
    std::string error;
    ASSERT_TRUE(batched.open(&state, &error)) << error;
    std::uint64_t lsn1 = 0, lsn2 = 0, lsn3 = 0;
    ASSERT_TRUE(batched.stage(JournalRecord::Type::kAdd, entry(1, 0, 5),
                              &lsn1, &error));
    ASSERT_TRUE(batched.stage(JournalRecord::Type::kAdd, entry(2, 3, 7),
                              &lsn2, &error));
    ASSERT_TRUE(batched.stage(JournalRecord::Type::kRemove, entry(1), &lsn3,
                              &error));
    EXPECT_EQ(lsn1, 1u);
    EXPECT_EQ(lsn2, 2u);
    EXPECT_EQ(lsn3, 3u);
    // Nothing is durable until someone waits (and thereby leads).
    EXPECT_EQ(batched.durable_lsn(), 0u);
    ASSERT_TRUE(batched.wait_durable(lsn3, &error)) << error;
    EXPECT_EQ(batched.durable_lsn(), 3u);
    // Waiting on the already-covered earlier LSNs is instant and true.
    EXPECT_TRUE(batched.wait_durable(lsn1, &error));
  }
  EXPECT_EQ(read_bytes(Journal::journal_path(serial_dir)),
            read_bytes(wal()));

  RecoveredState serial_state, batched_state;
  std::string error;
  ASSERT_TRUE(Journal::recover(serial_dir, &serial_state, &error)) << error;
  ASSERT_TRUE(Journal::recover(dir_, &batched_state, &error)) << error;
  ASSERT_EQ(batched_state.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batched_state.records[i].lsn, serial_state.records[i].lsn);
    EXPECT_EQ(batched_state.records[i].type, serial_state.records[i].type);
    EXPECT_EQ(batched_state.records[i].entry, serial_state.records[i].entry);
  }
  std::filesystem::remove_all(serial_dir);
}

TEST_F(JournalTest, GroupCommitConcurrentAppendsAckOnlyAfterCoveringFsync) {
  obs::Registry registry;
  Journal journal(config(), &registry);
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> acked{0};
  std::atomic<bool> invariant_ok{true};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string err;
        std::uint64_t lsn = 0;
        if (!journal.stage(JournalRecord::Type::kAdd,
                           entry(t * kPerThread + i, t, 8 + i % 4), &lsn,
                           &err) ||
            !journal.wait_durable(lsn, &err)) {
          invariant_ok.store(false);
          return;
        }
        // The ack contract: once wait_durable returns true, the record
        // is under the durable watermark — the covering fsync already
        // happened, whatever thread led it.
        if (journal.durable_lsn() < lsn) {
          invariant_ok.store(false);
        }
        acked.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_TRUE(invariant_ok.load());
  EXPECT_EQ(acked.load(), kThreads * kPerThread);

  // LSNs on disk are dense and monotone: 1..N with no gaps, whatever
  // interleaving the batches had.
  RecoveredState recovered;
  ASSERT_TRUE(Journal::recover(dir_, &recovered, &error)) << error;
  ASSERT_EQ(recovered.records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < recovered.records.size(); ++i) {
    EXPECT_EQ(recovered.records[i].lsn, i + 1);
  }

  // Group commit actually grouped: fewer leader commits than records
  // (with 8 writers racing, some batches must exceed one record), and
  // the batch-size histogram saw every record.
  const double commits =
      registry.counter("wormrt_journal_group_commits_total", {}).value();
  const double appends =
      registry.counter("wormrt_journal_appends_total", {}).value();
  EXPECT_EQ(appends, static_cast<double>(kThreads * kPerThread));
  EXPECT_GE(commits, 1.0);
  EXPECT_LE(commits, appends);
}

TEST_F(JournalTest, GroupCommitLeaderFsyncFailureFailsEveryBatchedRecord) {
  util::FaultInjector faults;
  JournalConfig cfg = config();
  cfg.faults = &faults;
  Journal journal(cfg);
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(1), &error))
      << error;

  // Three records staged into one batch, then the leader's fsync fails:
  // every waiter in the batch must see the failure — none of the three
  // may ever read as durable, even though a single fsync covered them.
  std::uint64_t lsn2 = 0, lsn3 = 0, lsn4 = 0;
  ASSERT_TRUE(journal.stage(JournalRecord::Type::kAdd, entry(2), &lsn2,
                            &error));
  ASSERT_TRUE(journal.stage(JournalRecord::Type::kAdd, entry(3), &lsn3,
                            &error));
  ASSERT_TRUE(journal.stage(JournalRecord::Type::kRemove, entry(2), &lsn4,
                            &error));
  faults.arm_fsync_error(5 /* EIO */);
  std::string err2, err3, err4;
  EXPECT_FALSE(journal.wait_durable(lsn2, &err2));
  EXPECT_FALSE(journal.wait_durable(lsn3, &err3));
  EXPECT_FALSE(journal.wait_durable(lsn4, &err4));
  EXPECT_NE(err3.find("fsync"), std::string::npos) << err3;
  EXPECT_EQ(journal.durable_lsn(), 1u);
  EXPECT_GE(journal.failed_through(), lsn4);

  // Unknown durability poisons the journal, exactly as a serial fsync
  // failure does.
  EXPECT_FALSE(journal.append(JournalRecord::Type::kAdd, entry(5), &error));
  EXPECT_NE(error.find("poisoned"), std::string::npos) << error;

  // The withdrawn batch never reaches replay.
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 1u);
  EXPECT_EQ(state.records[0].entry.handle, 1);
}

TEST_F(JournalTest, ServiceRollsBackEveryConcurrentAdmissionOnFsyncFailure) {
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  util::FaultInjector faults;
  ServiceOptions options;
  options.state_dir = dir_;
  options.journal_faults = &faults;

  Service service(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(service.open_state(&error)) << error;
  ASSERT_TRUE(service.handle(request_line(0, 5, 2, 60, 8, 50))
                  .get("admitted")
                  ->as_bool());

  // The NEXT fsync fails — whichever admission's leader runs it.  All
  // concurrent admissions either land in that doomed batch or hit the
  // poisoned journal afterwards: every one must come back "not durable"
  // and be rolled back, leaving only the pre-failure acknowledged state.
  faults.arm_fsync_error(5 /* EIO */);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<Json> replies(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      replies[static_cast<std::size_t>(t)] =
          service.handle(request_line(t, 8 + t, 2, 60, 8, 50));
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (const Json& reply : replies) {
    ASSERT_FALSE(reply.get("ok")->as_bool());
    EXPECT_NE(reply.get("error")->as_string().find("not durable"),
              std::string::npos);
  }
  EXPECT_EQ(service.population(), 1u);

  // Recovery sees exactly the acknowledged history.
  ServiceOptions recovery_options;
  recovery_options.state_dir = dir_;
  Service recovered(mesh, routing, {}, recovery_options);
  ASSERT_TRUE(recovered.open_state(&error)) << error;
  EXPECT_EQ(recovered.population(), 1u);
}

// ------------------------------------------------- commit-failure replies

Json handle_verb(const char* verb, std::int64_t handle) {
  Json j = Json::object();
  j.set("verb", verb);
  j.set("handle", handle);
  return j;
}

/// \p got holds the same engine as \p want: population, next handle,
/// and per position the handle, bound, endpoints and route order.
void expect_same_engine(const core::AdmissionController& got,
                        const core::AdmissionController& want) {
  const core::IncrementalAnalyzer& g = got.engine();
  const core::IncrementalAnalyzer& w = want.engine();
  ASSERT_EQ(g.size(), w.size());
  EXPECT_EQ(got.next_handle(), want.next_handle());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto id = static_cast<StreamId>(i);
    EXPECT_EQ(g.handle_of(id), w.handle_of(id)) << "position " << i;
    EXPECT_EQ(g.bound_at(id), w.bound_at(id)) << "position " << i;
    EXPECT_EQ(g.streams()[id].src, w.streams()[id].src);
    EXPECT_EQ(g.streams()[id].dst, w.streams()[id].dst);
    EXPECT_EQ(g.streams()[id].route_order, w.streams()[id].route_order);
  }
}

/// Runs \p body once per commit fault.  Each run opens a journaled Service
/// on a 4x4 mesh in a fresh \p dir, admits two acknowledged streams
/// (handles 0 and 1), arms the fault — an fsync EIO, a torn write, or a
/// clean ENOSPC write error, each of which fails the next covering
/// commit — and calls body(service, mesh, journal_error).  Right after the body the live engine must equal a
/// controller that saw only the acknowledged requests, in the same
/// order.  A clean write error leaves the journal writable, so one more
/// REQUEST must then be acknowledged with the controller's decision.  A
/// Service reopened on \p dir afterwards must equal the controller too.
template <typename Body>
void for_each_commit_failure(const std::string& dir, Body body) {
  const route::XYRouting routing;
  struct Fault {
    const char* name;
    std::string error;
    void (*arm)(util::FaultInjector&);
    bool writable;  // the journal takes records again afterwards
  };
  const Fault kinds[] = {
      {"fsync EIO", std::string("fsync (injected): ") + std::strerror(EIO),
       [](util::FaultInjector& f) { f.arm_fsync_error(EIO); }, false},
      {"torn write", std::string("write (injected): ") + std::strerror(EIO),
       [](util::FaultInjector& f) { f.arm_torn_write(12); }, false},
      {"clean ENOSPC",
       std::string("write (injected): ") + std::strerror(ENOSPC),
       [](util::FaultInjector& f) { f.arm_write_error(ENOSPC); }, true},
  };
  for (const Fault& kind : kinds) {
    SCOPED_TRACE(kind.name);
    std::filesystem::remove_all(dir);
    topo::Mesh oracle_mesh(4, 4);
    core::AdmissionController acknowledged(oracle_mesh, routing);
    {
      topo::Mesh mesh(4, 4);
      util::FaultInjector faults;
      ServiceOptions options;
      options.state_dir = dir;
      options.journal_faults = &faults;
      Service service(mesh, routing, {}, options);
      std::string error;
      ASSERT_TRUE(service.open_state(&error)) << error;
      for (const auto& [src, dst] : {std::pair{0, 5}, std::pair{1, 6}}) {
        ASSERT_TRUE(service.handle(request_line(src, dst, 2, 60, 8, 50))
                        .get("admitted")
                        ->as_bool());
        ASSERT_TRUE(acknowledged.request(src, dst, 2, 60, 8, 50).admitted);
      }
      kind.arm(faults);
      body(service, mesh, kind.error);
      EXPECT_EQ(faults.faults_injected(), 1u);
      expect_same_engine(service.controller(), acknowledged);
      if (kind.writable) {
        const Json reply = service.handle(request_line(3, 12, 2, 60, 8, 50));
        const auto want = acknowledged.request(3, 12, 2, 60, 8, 50);
        ASSERT_TRUE(reply.get("ok")->as_bool()) << reply.dump();
        ASSERT_TRUE(want.admitted);
        EXPECT_EQ(reply.get("handle")->as_int(), want.handle);
        EXPECT_EQ(reply.get("bound")->as_int(), want.bound);
        expect_same_engine(service.controller(), acknowledged);
      }
    }

    topo::Mesh reopen_mesh(4, 4);
    ServiceOptions reopen_options;
    reopen_options.state_dir = dir;
    Service reopened(reopen_mesh, routing, {}, reopen_options);
    std::string error;
    ASSERT_TRUE(reopened.open_state(&error)) << error;
    EXPECT_EQ(reopen_mesh.channels().num_faulted(), 0u);
    expect_same_engine(reopened.controller(), acknowledged);
  }
  std::filesystem::remove_all(dir);
}

/// The failed REMOVE's stream is established again under \p handle with
/// the parameters and route order it had before (\p before).
void expect_restored(const Service& service, std::int64_t handle,
                     const core::MessageStream& before) {
  const core::MessageStream* back = service.controller().engine().find(handle);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->src, before.src);
  EXPECT_EQ(back->dst, before.dst);
  EXPECT_EQ(back->priority, before.priority);
  EXPECT_EQ(back->period, before.period);
  EXPECT_EQ(back->length, before.length);
  EXPECT_EQ(back->deadline, before.deadline);
  EXPECT_EQ(back->route_order, before.route_order);
  EXPECT_EQ(back->path.channels, before.path.channels);
}

TEST_F(JournalTest, FailedCommitFailsARequestAndRollsItBack) {
  for_each_commit_failure(
      dir_, [](Service& service, const topo::Mesh&, const std::string& err) {
        const Json reply = service.handle(request_line(2, 7, 2, 60, 8, 50));
        EXPECT_FALSE(reply.get("ok")->as_bool());
        EXPECT_EQ(reply.get("error")->as_string(),
                  "admission not durable: " + err);
        EXPECT_EQ(service.population(), 2u);
        EXPECT_EQ(service.controller().engine().find(2), nullptr);
      });
}

TEST_F(JournalTest, FailedCommitFailsARemoveAndRestoresTheStream) {
  for_each_commit_failure(
      dir_, [](Service& service, const topo::Mesh&, const std::string& err) {
        const core::MessageStream before =
            *service.controller().engine().find(0);
        const Json reply = service.handle(handle_verb("REMOVE", 0));
        EXPECT_FALSE(reply.get("ok")->as_bool());
        EXPECT_EQ(reply.get("error")->as_string(),
                  "teardown not durable: " + err);
        EXPECT_EQ(service.population(), 2u);
        expect_restored(service, 0, before);
      });
}

TEST_F(JournalTest, FailedCommitFailsEveryStagedSubRequestOfABatch) {
  for_each_commit_failure(
      dir_, [](Service& service, const topo::Mesh&, const std::string& err) {
        // What the QUERY inside the batch sees: the staged admission and
        // teardown before it, not yet rolled back.
        const route::XYRouting routing;
        topo::Mesh replay_mesh(4, 4);
        core::AdmissionController replay(replay_mesh, routing);
        replay.request(0, 5, 2, 60, 8, 50);
        replay.request(1, 6, 2, 60, 8, 50);
        ASSERT_TRUE(replay.request(2, 7, 2, 60, 8, 50).admitted);
        ASSERT_TRUE(replay.remove(0));
        const Time query_bound = *replay.bound_of(1);

        const core::MessageStream before =
            *service.controller().engine().find(0);
        Json batch = Json::object();
        batch.set("verb", "BATCH");
        Json requests = Json::array();
        requests.push_back(request_line(2, 7, 2, 60, 8, 50));
        requests.push_back(handle_verb("REMOVE", 0));
        requests.push_back(handle_verb("QUERY", 1));
        batch.set("requests", std::move(requests));
        const Json reply = service.handle(batch);
        ASSERT_TRUE(reply.get("ok")->as_bool());
        const auto& replies = reply.get("replies")->items();
        ASSERT_EQ(replies.size(), 3u);
        EXPECT_FALSE(replies[0].get("ok")->as_bool());
        EXPECT_EQ(replies[0].get("error")->as_string(),
                  "admission not durable: " + err);
        EXPECT_FALSE(replies[1].get("ok")->as_bool());
        EXPECT_EQ(replies[1].get("error")->as_string(),
                  "teardown not durable: " + err);
        // The read staged nothing, so the failed commit leaves its reply
        // as it was.
        EXPECT_TRUE(replies[2].get("ok")->as_bool());
        EXPECT_EQ(replies[2].get("bound")->as_int(), query_bound);
        EXPECT_EQ(replies[2].get("deadline")->as_int(), 50);
        EXPECT_EQ(replies[2].get("guaranteed")->as_bool(),
                  query_bound != kNoTime && query_bound <= 50);
        EXPECT_EQ(service.population(), 2u);
        EXPECT_EQ(service.controller().engine().find(2), nullptr);
        expect_restored(service, 0, before);
      });
}

TEST_F(JournalTest, FailedCommitFailsALinkDownBeforeItsCascade) {
  for_each_commit_failure(
      dir_, [](Service& service, const topo::Mesh& mesh,
               const std::string& err) {
        // Channel 0->1 carries stream 0 (0 -> 5, X first).
        const core::MessageStream before =
            *service.controller().engine().find(0);
        ASSERT_NE(std::find(before.path.channels.begin(),
                            before.path.channels.end(),
                            mesh.channel_between(0, 1)),
                  before.path.channels.end());
        Json down = Json::object();
        down.set("verb", "LINK_DOWN");
        down.set("src", std::int64_t{0});
        down.set("dst", std::int64_t{1});
        const Json reply = service.handle(down);
        EXPECT_FALSE(reply.get("ok")->as_bool());
        EXPECT_EQ(reply.get("error")->as_string(),
                  "link mutation not durable: " + err);
        EXPECT_EQ(mesh.channels().num_faulted(), 0u);
        EXPECT_EQ(service.population(), 2u);
        expect_restored(service, 0, before);
      });
}

TEST_F(JournalTest, ServiceRecoversFaultStateAndDetourRoutes) {
  // Every consumer gets its own topology instance: LINK_DOWN mutates
  // fault flags in place, and recovery must rebuild them from disk on a
  // pristine fabric.
  topo::Mesh oracle_mesh(4, 4);
  topo::Mesh live_mesh(4, 4);
  topo::Mesh recovered_mesh(4, 4);
  const route::XYRouting routing;
  core::AdmissionController oracle(oracle_mesh, routing);

  ServiceOptions options;
  options.state_dir = dir_;
  options.compact_every = 4;  // cross the threshold: the snapshot must
                              // carry the fault set and detour orders
  std::string error;
  {
    Service service(live_mesh, routing, {}, options);
    ASSERT_TRUE(service.open_state(&error)) << error;
    // Node ids on the 4x4 mesh: (x,y) = y*4+x.  Three streams against
    // the (1,0)->(2,0) spine channel: detourable, pinned, far away.
    const int specs[][2] = {{0, 6}, {0, 3}, {12, 15}};
    for (const auto& s : specs) {
      const auto expect = oracle.request(s[0], s[1], 2, 200, 6, 200);
      const Json reply = service.handle(request_line(s[0], s[1], 2, 200, 6, 200));
      ASSERT_TRUE(reply.get("admitted")->as_bool());
      ASSERT_TRUE(expect.admitted);
    }

    Json down = Json::object();
    down.set("verb", "LINK_DOWN");
    down.set("src", std::int64_t{1});
    down.set("dst", std::int64_t{2});
    ASSERT_TRUE(service.handle(down).get("ok")->as_bool());
    const auto m = oracle.link_down(oracle_mesh.channel_between(1, 2));
    ASSERT_TRUE(m.changed);
    ASSERT_FALSE(m.rerouted.empty());
    ASSERT_FALSE(m.evicted.empty());

    // A post-fault admission lands on the reversed order, so the
    // journal holds an ADD whose route_order is the detour.
    const auto late = oracle.request(1, 14, 2, 200, 6, 200);
    ASSERT_TRUE(late.admitted);
    EXPECT_EQ(late.route_order, route::kRouteOrderReversed);
    ASSERT_TRUE(service.handle(request_line(1, 14, 2, 200, 6, 200))
                    .get("admitted")
                    ->as_bool());
  }  // crash

  Service recovered(recovered_mesh, routing, {}, options);
  ASSERT_TRUE(recovered.open_state(&error)) << error;

  // Fault flags restored channel by channel.
  for (std::size_t c = 0; c < oracle_mesh.num_channels(); ++c) {
    const auto id = static_cast<topo::ChannelId>(c);
    EXPECT_EQ(recovered_mesh.channel_faulted(id),
              oracle_mesh.channel_faulted(id))
        << "channel " << c;
  }

  // Engine state identical to the never-crashed oracle: population,
  // handles, bounds, detour paths, route orders.
  const auto want = oracle.snapshot();
  const auto got = recovered.controller().snapshot();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(recovered.controller().next_handle(), oracle.next_handle());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto id = static_cast<StreamId>(i);
    EXPECT_EQ(recovered.controller().engine().handle_of(id),
              oracle.engine().handle_of(id));
    EXPECT_EQ(recovered.controller().engine().bound_at(id),
              oracle.engine().bound_at(id));
    EXPECT_EQ(got[i].route_order, want[i].route_order);
    EXPECT_EQ(got[i].path.channels, want[i].path.channels);
  }
}

TEST_F(JournalTest, RecoveryCountsSnapshotFaultsAndReplayedLinkRecords) {
  // topology_mutations = snapshot fault rows + replayed LINK records;
  // here both sources contribute.
  topo::Mesh live_mesh(4, 4);
  topo::Mesh recovered_mesh(4, 4);
  const route::XYRouting routing;
  ServiceOptions options;
  options.state_dir = dir_;
  options.compact_every = 4;  // the first LINK_DOWN is the 4th append
  const auto link = [](const char* verb, int src, int dst) {
    Json req = Json::object();
    req.set("verb", verb);
    req.set("src", std::int64_t{src});
    req.set("dst", std::int64_t{dst});
    return req;
  };
  std::string error;
  std::size_t population = 0;
  {
    Service service(live_mesh, routing, {}, options);
    ASSERT_TRUE(service.open_state(&error)) << error;
    const int specs[][2] = {{0, 6}, {0, 3}, {12, 15}};
    for (const auto& s : specs) {
      ASSERT_TRUE(service.handle(request_line(s[0], s[1], 2, 200, 6, 200))
                      .get("admitted")
                      ->as_bool());
    }
    // Compacted: the snapshot carries 1->2 as a fault row.
    ASSERT_TRUE(service.handle(link("LINK_DOWN", 1, 2)).get("ok")->as_bool());
    // Two LINK records after the compaction.
    ASSERT_TRUE(
        service.handle(link("LINK_DOWN", 13, 14)).get("ok")->as_bool());
    ASSERT_TRUE(service.handle(link("LINK_UP", 1, 2)).get("ok")->as_bool());
    population = service.population();
  }  // crash

  Service recovered(recovered_mesh, routing, {}, options);
  ASSERT_TRUE(recovered.open_state(&error)) << error;
  const Service::RecoveryInfo& info = recovered.recovery_info();
  EXPECT_EQ(info.journal_records, 2u);
  EXPECT_EQ(info.topology_mutations, 1u + 2u);
  EXPECT_FALSE(
      recovered_mesh.channel_faulted(recovered_mesh.channel_between(1, 2)));
  EXPECT_TRUE(
      recovered_mesh.channel_faulted(recovered_mesh.channel_between(13, 14)));
  EXPECT_EQ(recovered.population(), population);
}

TEST_F(JournalTest, ServiceRefusesAStateDirFromAnotherFabric) {
  const route::XYRouting routing;
  ServiceOptions options;
  options.state_dir = dir_;
  std::string error;
  {
    topo::Mesh mesh(4, 4);
    Service service(mesh, routing, {}, options);
    ASSERT_TRUE(service.open_state(&error)) << error;
    ASSERT_TRUE(service.handle(request_line(0, 5, 2, 60, 8, 50))
                    .get("ok")
                    ->as_bool());
  }
  // Same state dir, different fabric: the daemon must refuse to start,
  // not silently replay channel ids onto the wrong links — nor replay the
  // bounds under analysis settings they were not issued for.
  topo::Mesh other(5, 4);
  Service service(other, routing, {}, options);
  EXPECT_FALSE(service.open_state(&error));
  EXPECT_NE(error.find("another fabric"), std::string::npos) << error;
  topo::Mesh same(4, 4);
  core::AnalysisConfig deeper;
  deeper.vc_buffer_depth = 4;
  Service deeper_service(same, routing, deeper, options);
  EXPECT_FALSE(deeper_service.open_state(&error));
  EXPECT_NE(error.find("vc_buffer_depth"), std::string::npos) << error;
}

// ---------------------------------------------------------------------
// Topology mutations, contract fingerprints, and the one on-disk format.

JournalEntry link_endpoints(std::int64_t src, std::int64_t dst) {
  JournalEntry e;
  e.src = src;
  e.dst = dst;
  return e;
}

TEST_F(JournalTest, LinkRecordsReplayInAppendOrder) {
  std::string error;
  {
    Journal journal(config());
    RecoveredState state;
    ASSERT_TRUE(journal.open(&state, &error)) << error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(1, 0, 5),
                               &error))
        << error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kLinkDown,
                               link_endpoints(3, 4), &error))
        << error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kLinkUp,
                               link_endpoints(3, 4), &error))
        << error;
  }
  RecoveredState state;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 3u);
  EXPECT_EQ(state.records[0].type, JournalRecord::Type::kAdd);
  EXPECT_EQ(state.records[1].type, JournalRecord::Type::kLinkDown);
  EXPECT_EQ(state.records[1].lsn, 2u);
  EXPECT_EQ(state.records[1].entry.src, 3);
  EXPECT_EQ(state.records[1].entry.dst, 4);
  EXPECT_EQ(state.records[2].type, JournalRecord::Type::kLinkUp);
  EXPECT_EQ(state.records[2].lsn, 3u);
  EXPECT_EQ(state.records[2].entry.src, 3);
  EXPECT_EQ(state.records[2].entry.dst, 4);
}

TEST_F(JournalTest, AddRecordsCarryTheRouteOrder) {
  std::string error;
  JournalEntry detoured = entry(7, 2, 9);
  detoured.route_order = 1;  // the Y-X detour must survive replay
  {
    Journal journal(config());
    RecoveredState state;
    ASSERT_TRUE(journal.open(&state, &error)) << error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, detoured, &error))
        << error;
  }
  RecoveredState state;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  ASSERT_EQ(state.records.size(), 1u);
  EXPECT_EQ(state.records[0].entry, detoured);
}

TEST_F(JournalTest, FingerprintStampsTheJournalHeader) {
  constexpr std::uint64_t kFabric = 0xABCDEF01u;
  JournalConfig fabric = config();
  fabric.fingerprint = kFabric;
  std::string error;
  {
    Journal journal(fabric);
    RecoveredState state;
    ASSERT_TRUE(journal.open(&state, &error)) << error;
    // Fresh journal: first frame is the header (type 0, magic,
    // fingerprint, epoch), before any record lands.
    EXPECT_EQ(size_of(wal()), 8 + 33);
    ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(1), &error))
        << error;
  }
  // Same fabric reopens cleanly; another is refused on the header's
  // stamp (RefusesToReplayAnotherFabricsJournal).
  Journal journal(fabric);
  RecoveredState state;
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  ASSERT_EQ(state.records.size(), 1u);
  EXPECT_EQ(state.records[0].entry.handle, 1);
}

TEST_F(JournalTest, RefusesToReplayAnotherFabricsJournal) {
  JournalConfig fabric = config();
  fabric.fingerprint = 41;
  std::string error;
  {
    Journal journal(fabric);
    RecoveredState state;
    ASSERT_TRUE(journal.open(&state, &error)) << error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(1), &error))
        << error;
  }
  JournalConfig other = config();
  other.fingerprint = 42;
  Journal stranger(other);
  RecoveredState state;
  EXPECT_FALSE(stranger.open(&state, &error));
  EXPECT_NE(error.find("another fabric"), std::string::npos) << error;
}

TEST_F(JournalTest, SnapshotCarriesFingerprintAndFaultSet) {
  constexpr std::uint64_t kFabric = 77;
  JournalConfig fabric = config();
  fabric.fingerprint = kFabric;
  std::string error;
  const std::vector<std::pair<std::int64_t, std::int64_t>> faulted = {
      {2, 3}, {7, 6}};
  {
    Journal journal(fabric);
    RecoveredState state;
    ASSERT_TRUE(journal.open(&state, &error)) << error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(1, 0, 5),
                               &error))
        << error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kLinkDown,
                               link_endpoints(2, 3), &error))
        << error;
    ASSERT_TRUE(journal.write_snapshot({2, {entry(1, 0, 5)}, faulted}, &error))
        << error;
    // Compaction truncates the WAL back down to just the header stamp.
    EXPECT_EQ(size_of(wal()), 8 + 33);
  }
  RecoveredState state;
  ASSERT_TRUE(Journal::recover(dir_, &state, &error)) << error;
  EXPECT_TRUE(state.had_snapshot);
  EXPECT_EQ(state.snapshot.faulted, faulted);
  ASSERT_EQ(state.snapshot.rows.size(), 1u);
  EXPECT_EQ(state.snapshot.rows[0], entry(1, 0, 5));
  EXPECT_TRUE(state.records.empty());

  // A different fabric must not adopt this snapshot either.
  JournalConfig other = config();
  other.fingerprint = kFabric + 1;
  Journal stranger(other);
  RecoveredState s2;
  EXPECT_FALSE(stranger.open(&s2, &error));
  EXPECT_NE(error.find("snapshot.bin was written for a different fabric"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("another fabric"), std::string::npos) << error;
}

void put_u32le(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64le(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::string framed(const std::string& payload) {
  std::string out;
  put_u32le(&out, static_cast<std::uint32_t>(payload.size()));
  put_u32le(&out, util::crc32(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

/// The state dir's files, byte for byte.
std::string state_bytes(const std::string& dir) {
  return read_bytes(Journal::journal_path(dir)) + "|" +
         read_bytes(Journal::snapshot_path(dir));
}

/// \p dir holds a frame this build does not write: recover() and open()
/// both fail with an error holding \p named, and no byte changes.
void expect_refused_untouched(const std::string& dir, const JournalConfig& c,
                              const std::string& named) {
  const std::string before = state_bytes(dir);
  RecoveredState state;
  std::string error;
  EXPECT_FALSE(Journal::recover(dir, &state, &error));
  EXPECT_NE(error.find(named), std::string::npos) << error;
  Journal journal(c);
  error.clear();
  EXPECT_FALSE(journal.open(&state, &error));
  EXPECT_NE(error.find(named), std::string::npos) << error;
  EXPECT_EQ(state_bytes(dir), before);
}

TEST_F(JournalTest, FramesThisBuildDoesNotWriteAreRefusedUntouched) {
  // A CRC-valid frame the journal does not write is another format, not
  // a torn tail: cutting the WAL there would drop acknowledged records.
  JournalConfig fabric = config();
  fabric.fingerprint = 123;
  const auto two_adds = [&] {
    std::filesystem::remove_all(dir_);
    Journal journal(fabric);
    RecoveredState state;
    std::string error;
    ASSERT_TRUE(journal.open(&state, &error)) << error;
    for (const std::int64_t handle : {1, 2}) {
      ASSERT_TRUE(
          journal.append(JournalRecord::Type::kAdd, entry(handle), &error))
          << error;
    }
  };
  {
    SCOPED_TRACE("an unknown header magic before two ADDs");
    two_adds();
    std::string bytes = read_bytes(wal());
    const std::size_t header = 41;  // 8 frame + 33 payload
    bytes[8 + 9 + 7] = '9';         // WRTJHDR3 -> WRTJHDR9
    std::filesystem::remove(wal());
    append_bytes(wal(), framed(bytes.substr(8, header - 8)) +
                            bytes.substr(header));
    expect_refused_untouched(
        dir_, fabric,
        "journal.wal: the frame at byte 0 is a 33-byte header WRTJHDR9");
  }
  {
    SCOPED_TRACE("a record of an unknown type after two ADDs");
    two_adds();
    std::string unknown;
    unknown.push_back(static_cast<char>(9));
    put_u64le(&unknown, 3);  // lsn
    put_u64le(&unknown, 7);
    append_bytes(wal(), framed(unknown));
    expect_refused_untouched(
        dir_, fabric,
        "journal.wal: the frame at byte 203 is a 17-byte record of type 9");
  }
}

// Every format an earlier build wrote, hand-built, one case each: each is
// refused by name and nothing is truncated.  Each holds one stream
// (handle 2, 3->7, P2, T50, C10, D40) as the 7 columns those builds wrote.
std::string u64s(std::initializer_list<std::uint64_t> values) {
  std::string out;
  for (const std::uint64_t v : values) {
    put_u64le(&out, v);
  }
  return out;
}

std::string older_row() { return u64s({2, 3, 7, 2, 50, 10, 40}); }

/// An ADD at LSN 1 without a route order: 65 bytes.
std::string older_add() {
  return std::string(1, '\1') + u64s({1}) + older_row();
}

TEST_F(JournalTest, OlderFormatSnapshotV1IsRefusedByName) {
  // last_lsn, next_handle, count, one 7-column row.
  std::filesystem::create_directories(dir_);
  append_bytes(snap(), framed("WRTSNAP1" + u64s({3, 5, 1}) + older_row()));
  expect_refused_untouched(dir_, config(), "WRTSNAP1");
}

TEST_F(JournalTest, OlderFormatSnapshotV2IsRefusedByName) {
  // + fingerprint and the fault set, 8-column rows.
  std::filesystem::create_directories(dir_);
  append_bytes(snap(), framed("WRTSNAP2" + u64s({77, 3, 5, 0, 1}) +
                              older_row() + u64s({0})));
  expect_refused_untouched(dir_, config(), "WRTSNAP2");
}

TEST_F(JournalTest, OlderFormatSnapshotV3IsRefusedByName) {
  // + the fencing epoch.
  std::filesystem::create_directories(dir_);
  append_bytes(snap(), framed("WRTSNAP3" + u64s({77, 1, 3, 5, 0, 1}) +
                              older_row() + u64s({0})));
  expect_refused_untouched(dir_, config(), "WRTSNAP3");
}

TEST_F(JournalTest, OlderFormatHeaderWithoutEpochIsRefusedByName) {
  // The header without the epoch, then a 73-byte ADD.
  std::filesystem::create_directories(dir_);
  append_bytes(wal(), framed(std::string(1, '\0') + u64s({0}) + "WRTJHDR1" +
                             u64s({77})) +
                          framed(older_add() + u64s({0})));
  expect_refused_untouched(dir_, config(), "WRTJHDR1");
}

TEST_F(JournalTest, OlderFormatHeaderV2IsRefusedByName) {
  // The header with the epoch, stamping a topology fingerprint.
  std::filesystem::create_directories(dir_);
  append_bytes(wal(), framed(std::string(1, '\0') + u64s({0}) + "WRTJHDR2" +
                             u64s({77, 1})) +
                          framed(older_add() + u64s({0})));
  expect_refused_untouched(dir_, config(), "WRTJHDR2");
}

TEST_F(JournalTest, OlderFormatAddWithoutRouteOrderIsRefusedByName) {
  ASSERT_EQ(older_add().size(), 65u);
  std::filesystem::create_directories(dir_);
  append_bytes(wal(), framed(older_add()));
  expect_refused_untouched(dir_, config(), "65-byte record of type 1");
}

TEST_F(JournalTest, SnapshotCountsPastThePayloadAreCorrupt) {
  // CRC-valid snapshots whose fault or row count times its record size
  // wraps to the bytes present: refused as corrupt, never reserved.
  for (const auto& [faults, rows] :
       {std::pair{std::uint64_t{1} << 60, std::uint64_t{0}},
        std::pair{std::uint64_t{0}, std::uint64_t{1} << 58}}) {
    std::string payload = "WRTSNAP4";
    for (const std::uint64_t v : {0, 1, 0, 0}) {  // fingerprint, epoch,
      put_u64le(&payload, v);                      // last_lsn, next_handle
    }
    put_u64le(&payload, faults);
    put_u64le(&payload, rows);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    append_bytes(snap(), framed(payload));
    RecoveredState state;
    std::string error;
    EXPECT_FALSE(Journal::recover(dir_, &state, &error)) << faults;
    EXPECT_EQ(error,
              "snapshot.bin is corrupt (count disagrees with payload size)");
  }
}

// --- replication: fencing epochs and the replica cursor ---------------

TEST_F(JournalTest, FencingEpochRoundTripsAndOnlyRaises) {
  {
    Journal journal(config());
    RecoveredState state;
    std::string error;
    ASSERT_TRUE(journal.open(&state, &error)) << error;
    EXPECT_EQ(journal.epoch(), 1u);
    journal.set_epoch(4);
    EXPECT_EQ(journal.epoch(), 4u);
    journal.set_epoch(2);  // demotion is not a thing; lowering is ignored
    EXPECT_EQ(journal.epoch(), 4u);
    // Promotion makes the bump durable by re-stamping both files.
    ASSERT_TRUE(journal.write_snapshot({1, {}, {}}, &error)) << error;
  }
  Journal journal(config());
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  EXPECT_EQ(state.epoch, 4u);
  EXPECT_EQ(journal.epoch(), 4u);
}

TEST_F(JournalTest, ReplicaAppendAndInstallSnapshotTrackThePrimaryCursor) {
  Journal journal(config());
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;

  // Replica appends carry the PRIMARY's LSNs, not a local sequence.
  JournalRecord record;
  record.type = JournalRecord::Type::kAdd;
  record.lsn = 1;
  record.entry = entry(1);
  ASSERT_TRUE(journal.append_replica(record, &error)) << error;
  record.lsn = 2;
  record.entry = entry(2);
  ASSERT_TRUE(journal.append_replica(record, &error)) << error;
  EXPECT_EQ(journal.durable_lsn(), 2u);

  // A mid-life bootstrap snapshot supersedes everything and rebases the
  // cursor at the primary's LSN under the primary's epoch.
  ASSERT_TRUE(journal.install_snapshot(10, 3, {7, {entry(5)}, {}}, &error))
      << error;
  EXPECT_EQ(journal.durable_lsn(), 10u);
  EXPECT_EQ(journal.epoch(), 3u);
  record.lsn = 11;
  record.entry = entry(6);
  ASSERT_TRUE(journal.append_replica(record, &error)) << error;

  RecoveredState recovered;
  ASSERT_TRUE(Journal::recover(dir_, &recovered, &error)) << error;
  EXPECT_EQ(recovered.snapshot_lsn, 10u);
  EXPECT_EQ(recovered.snapshot.next_handle, 7);
  EXPECT_EQ(recovered.epoch, 3u);
  ASSERT_EQ(recovered.snapshot.rows.size(), 1u);
  EXPECT_EQ(recovered.snapshot.rows[0], entry(5));
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0].lsn, 11u);
  EXPECT_EQ(recovered.records[0].entry, entry(6));
}

TEST_F(JournalTest, DeposedPrimaryDivergentTailIsRefusedAtReplay) {
  // A primary wrote five records before dying, but the follower that
  // was promoted had only replicated three: LSNs 4-5 are mutations the
  // cluster never acknowledged under the new epoch.
  {
    Journal journal(config());
    seed_three_records(journal);
    std::string error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(3), &error))
        << error;
    ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd, entry(4), &error))
        << error;
  }

  // Rejoining under epoch 2 fenced at LSN 3: the divergent tail makes
  // this state unusable, and replaying it would resurrect decisions the
  // new primary never made — hard error.
  JournalConfig fenced = config();
  fenced.min_epoch = 2;
  fenced.fence_lsn = 3;
  {
    Journal journal(fenced);
    RecoveredState state;
    std::string error;
    ASSERT_FALSE(journal.open(&state, &error));
    EXPECT_NE(error.find("deposed primary"), std::string::npos) << error;
  }

  // Had the follower been fully caught up (fence covers LSN 5), the
  // same state replays cleanly and adopts the new epoch.
  fenced.fence_lsn = 5;
  Journal journal(fenced);
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(journal.open(&state, &error)) << error;
  EXPECT_EQ(state.records.size(), 5u);
  EXPECT_EQ(journal.epoch(), 2u);
}

TEST_F(JournalTest, FollowerRefusesMalformedReplicationRows) {
  // A cell that is not an integer must make the row malformed, never
  // read as 0: a garbled row would otherwise be journaled and applied.
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  ServiceOptions options;
  options.state_dir = dir_;
  options.follower = true;
  Service follower(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(follower.open_state(&error)) << error;
  const auto parse = [](const std::string& text) {
    std::string parse_error;
    Json j = Json::parse(text, &parse_error);
    EXPECT_TRUE(parse_error.empty()) << parse_error << " in " << text;
    return j;
  };

  for (const char* row : {R"([1,1,"x",0,5,2,100,10,100,0])",
                          R"([1,1,null,0,5,2,100,10,100,0])",
                          R"([true,1,0,0,5,2,100,10,100,0])",
                          R"([1,1,0,0,5,2,100,10,100,0.5])",
                          R"([1,1,0,0,5,2,100,10,100])"}) {
    const Json pull = parse(
        std::string(R"({"ok":true,"epoch":1,"durable_lsn":1,"records":[)") +
        row + "]}");
    error.clear();
    EXPECT_FALSE(apply_pull_reply(follower, pull, nullptr, &error)) << row;
    EXPECT_EQ(error, "REPL_PULL record row is malformed") << row;
    EXPECT_EQ(follower.population(), 0u) << row;
    EXPECT_EQ(follower.durable_lsn(), 0u) << row;
  }

  // A malformed snapshot row, an entry row REQUEST would refuse, or a
  // fault pair naming a channel (0->15) this mesh lacks refuses the
  // image before it is made durable.
  for (const auto& [field, why] :
       {std::pair{R"("faulted":[],"entries":[[0,0,5,2,100,null,100,0]])",
                  "REPL_SNAPSHOT entry row is malformed"},
        std::pair{R"("faulted":[[1,"2"]],"entries":[])",
                  "REPL_SNAPSHOT faulted row is malformed"},
        std::pair{R"("faulted":[],"entries":[[0,0,999,2,50,10,40,0]])",
                  "journal record adds handle 0 on 0->999, which does not "
                  "join two distinct nodes of this topology"},
        std::pair{R"("faulted":[[0,15]],"entries":[])",
                  "journal record names channel 0->15 which this topology "
                  "does not have"}}) {
    const Json snapshot = parse(
        std::string(R"({"ok":true,"lsn":1,"epoch":1,"next_handle":1,)") +
        field + "}");
    error.clear();
    EXPECT_FALSE(apply_snapshot_reply(follower, snapshot, &error)) << field;
    EXPECT_EQ(error, why) << field;
    EXPECT_EQ(follower.population(), 0u) << field;
    EXPECT_EQ(follower.durable_lsn(), 0u) << field;
  }

  // A well-formed row still applies.
  const Json pull =
      parse(R"({"ok":true,"records":[[1,1,0,0,5,2,50,10,40,0]]})");
  ASSERT_TRUE(apply_pull_reply(follower, pull, nullptr, &error)) << error;
  EXPECT_EQ(follower.population(), 1u);
  EXPECT_EQ(follower.durable_lsn(), 1u);
}

// --- replication: what ships, and how a follower commits a pull -------

/// REPL_PULL from \p from_lsn, answered by \p primary without waiting.
Json pull_from(Service& primary, std::int64_t from_lsn) {
  Json pull = Json::object();
  pull.set("verb", "REPL_PULL");
  pull.set("from_lsn", from_lsn);
  pull.set("wait_ms", std::int64_t{0});
  return primary.handle(pull);
}

std::vector<std::int64_t> pulled_lsns(const Json& reply) {
  std::vector<std::int64_t> lsns;
  for (const Json& row : reply.get("records")->items()) {
    lsns.push_back(row.items()[1].as_int());
  }
  return lsns;
}

/// Opens the journaled \p primary (on a 4x4 mesh) and has it acknowledge
/// REQUESTs 0 -> 5, 1 -> 6 and 2 -> 7: LSNs 1-3, handles 0-2.
void admit_three(Service& primary) {
  std::string error;
  ASSERT_TRUE(primary.open_state(&error)) << error;
  for (const auto& [src, dst] :
       {std::pair{0, 5}, std::pair{1, 6}, std::pair{2, 7}}) {
    ASSERT_TRUE(primary.handle(request_line(src, dst, 2, 60, 8, 50))
                    .get("admitted")
                    ->as_bool());
  }
}

ServiceOptions follower_in(const std::string& dir,
                           util::FaultInjector* faults = nullptr) {
  ServiceOptions options;
  options.state_dir = dir;
  options.follower = true;
  options.journal_faults = faults;
  return options;
}

TEST_F(JournalTest, FailedPrimaryCommitsNeverShip) {
  const route::XYRouting routing;
  const std::string follower_dir = dir_ + "-follower";
  // A clean write error fails B alone; an fsync error also poisons the
  // journal, so C fails too.
  for (const bool enospc : {true, false}) {
    SCOPED_TRACE(enospc ? "ENOSPC" : "fsync EIO");
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(follower_dir);
    topo::Mesh mesh(4, 4);
    util::FaultInjector faults;
    ServiceOptions options;
    options.state_dir = dir_;
    options.journal_faults = &faults;
    Service primary(mesh, routing, {}, options);
    std::string error;
    ASSERT_TRUE(primary.open_state(&error)) << error;
    ASSERT_TRUE(primary.handle(request_line(0, 5, 2, 60, 8, 50))
                    .get("admitted")
                    ->as_bool());
    if (enospc) {
      faults.arm_write_error(ENOSPC);
    } else {
      faults.arm_fsync_error(EIO);
    }
    EXPECT_FALSE(
        primary.handle(request_line(1, 6, 2, 60, 8, 50)).get("ok")->as_bool());
    const Json c = primary.handle(request_line(2, 7, 2, 60, 8, 50));
    EXPECT_EQ(c.get("ok")->as_bool(), enospc);

    const Json reply = pull_from(primary, 1);
    const std::vector<std::int64_t> shipped =
        enospc ? std::vector<std::int64_t>{1, 3}
               : std::vector<std::int64_t>{1};
    EXPECT_EQ(pulled_lsns(reply), shipped);

    topo::Mesh follower_mesh(4, 4);
    Service follower(follower_mesh, routing, {}, follower_in(follower_dir));
    ASSERT_TRUE(follower.open_state(&error)) << error;
    ASSERT_TRUE(apply_pull_reply(follower, reply, nullptr, &error)) << error;
    EXPECT_EQ(follower.population(), primary.population());
    EXPECT_EQ(follower.controller().next_handle(),
              primary.controller().next_handle());
    EXPECT_EQ(follower.durable_lsn(), enospc ? 3u : 1u);
  }
  std::filesystem::remove_all(follower_dir);
}

TEST_F(JournalTest, FollowerRetriesAPullAfterACleanWriteError) {
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  ServiceOptions primary_options;
  primary_options.state_dir = dir_;
  Service primary(mesh, routing, {}, primary_options);
  admit_three(primary);

  const std::string follower_dir = dir_ + "-follower";
  std::filesystem::remove_all(follower_dir);
  topo::Mesh follower_mesh(4, 4);
  util::FaultInjector faults;
  Service follower(follower_mesh, routing, {},
                   follower_in(follower_dir, &faults));
  std::string error;
  ASSERT_TRUE(follower.open_state(&error)) << error;

  // ENOSPC fails the pull without poisoning the journal: nothing is
  // applied, and the retry pulls and applies the same three LSNs.
  faults.arm_write_error(ENOSPC);
  std::uint64_t applied = 0;
  EXPECT_FALSE(
      apply_pull_reply(follower, pull_from(primary, 1), &applied, &error));
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(follower.population(), 0u);
  EXPECT_EQ(follower.durable_lsn(), 0u);
  const Json retry = pull_from(
      primary, static_cast<std::int64_t>(follower.durable_lsn()) + 1);
  ASSERT_TRUE(apply_pull_reply(follower, retry, &applied, &error)) << error;
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(follower.population(), 3u);
  EXPECT_EQ(follower.durable_lsn(), 3u);
  std::filesystem::remove_all(follower_dir);
}

TEST_F(JournalTest, FollowerCommitsEachPullOnce) {
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  ServiceOptions primary_options;
  primary_options.state_dir = dir_;
  Service primary(mesh, routing, {}, primary_options);
  admit_three(primary);
  for (const std::int64_t handle : {0, 1, 2}) {
    ASSERT_TRUE(
        primary.handle(handle_verb("REMOVE", handle)).get("removed")->as_bool());
  }
  const Json reply = pull_from(primary, 1);
  ASSERT_EQ(pulled_lsns(reply), (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6}));

  const std::string follower_dir = dir_ + "-follower";
  std::filesystem::remove_all(follower_dir);
  topo::Mesh follower_mesh(4, 4);
  Service follower(follower_mesh, routing, {}, follower_in(follower_dir));
  std::string error;
  ASSERT_TRUE(follower.open_state(&error)) << error;
  const obs::Histogram& fsync = follower.registry().histogram(
      "wormrt_journal_fsync_us", 0.0, 50000.0, 1000, {});
  const std::uint64_t before = fsync.count();
  ASSERT_TRUE(apply_pull_reply(follower, reply, nullptr, &error)) << error;
  EXPECT_EQ(fsync.count() - before, 1u);
  EXPECT_EQ(follower.durable_lsn(), 6u);
  EXPECT_EQ(follower.population(), 0u);
  std::filesystem::remove_all(follower_dir);
}

TEST_F(JournalTest, FollowerAppliesAPullAllOrNothing) {
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  Service follower(mesh, routing, {}, follower_in(dir_));
  std::string error;
  ASSERT_TRUE(follower.open_state(&error)) << error;
  // The second row is malformed, names a channel (0->15) this mesh does
  // not have, or adds a stream REQUEST would refuse (a node beyond the
  // mesh, equal endpoints, a zero length, an unknown route order): each
  // way the first row is neither journaled nor applied.
  for (const auto& [second, why] :
       {std::pair{R"([1,2,1,1,"6",2,50,10,40,0])",
                  "REPL_PULL record row is malformed"},
        std::pair{R"([3,2,0,0,15,0,0,0,0,0])",
                  "journal record names channel 0->15 which this "
                  "topology does not have"},
        std::pair{R"([1,2,1,0,999,2,50,10,40,0])",
                  "journal record adds handle 1 on 0->999, which does not "
                  "join two distinct nodes of this topology"},
        std::pair{R"([1,2,1,3,3,2,50,10,40,0])",
                  "journal record adds handle 1 on 3->3, which does not "
                  "join two distinct nodes of this topology"},
        std::pair{R"([1,2,1,0,5,2,50,0,40,0])",
                  "journal record adds handle 1 on 0->5, which has a "
                  "non-positive period, length or deadline"},
        std::pair{R"([1,2,1,0,5,2,50,10,40,2])",
                  "journal record adds handle 1 on 0->5, which has an "
                  "unknown route order"}}) {
    std::string parse_error;
    const Json reply = Json::parse(
        std::string(R"({"ok":true,"records":[[1,1,0,0,5,2,50,10,40,0],)") +
            second + "]}",
        &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    error.clear();
    EXPECT_FALSE(apply_pull_reply(follower, reply, nullptr, &error));
    EXPECT_EQ(error, why);
    EXPECT_EQ(follower.population(), 0u) << second;
    EXPECT_EQ(follower.durable_lsn(), 0u) << second;
  }
}

TEST_F(JournalTest, RecoveryRefusesABadAddAndNamesIt) {
  // A CRC-valid ADD of a stream the fabric cannot carry, written as a
  // journal record or as a snapshot row: open_state refuses the state
  // dir, naming the row, before the engine takes any of it.
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  JournalConfig fabric = config();
  fabric.fingerprint = core::contract_fingerprint(mesh, {});
  const std::string why =
      ": journal record adds handle 1 on 0->999, which does not join two "
      "distinct nodes of this topology";
  for (const bool in_snapshot : {false, true}) {
    std::filesystem::remove_all(dir_);
    {
      Journal journal(fabric);
      RecoveredState state;
      std::string error;
      ASSERT_TRUE(journal.open(&state, &error)) << error;
      ASSERT_TRUE(
          journal.append(JournalRecord::Type::kAdd, entry(0, 0, 5), &error))
          << error;
      if (in_snapshot) {
        ASSERT_TRUE(journal.write_snapshot(
            {2, {entry(0, 0, 5), entry(1, 0, 999)}, {}}, &error))
            << error;
      } else {
        ASSERT_TRUE(journal.append(JournalRecord::Type::kAdd,
                                   entry(1, 0, 999), &error))
            << error;
      }
    }
    ServiceOptions options;
    options.state_dir = dir_;
    Service service(mesh, routing, {}, options);
    std::string error;
    EXPECT_FALSE(service.open_state(&error)) << in_snapshot;
    EXPECT_EQ(error, dir_ + why) << in_snapshot;
    EXPECT_EQ(service.population(), 0u) << in_snapshot;
  }
}

// --- replay: one engine batch per run --------------------------------

/// Has \p primary (a journaled 4x4-mesh Service) acknowledge REQUESTs
/// whose paths cross at three priorities — so each admission's dirty
/// closure holds established streams — and tear every third stream down.
void churn_crossing_streams(Service& primary) {
  std::vector<std::int64_t> handles;
  for (int i = 0; i < 18; ++i) {
    const int src = i % 16;
    const int dst = (i * 5 + 3) % 16;
    if (src == dst) {
      continue;
    }
    const Json reply =
        primary.handle(request_line(src, dst, 1 + i % 3, 300, 4, 300));
    ASSERT_TRUE(reply.get("ok")->as_bool()) << reply.dump();
    if (reply.get("admitted")->as_bool()) {
      handles.push_back(reply.get("handle")->as_int());
    }
  }
  ASSERT_GE(handles.size(), 9u);
  for (std::size_t i = 0; i < handles.size(); i += 3) {
    ASSERT_TRUE(primary.handle(handle_verb("REMOVE", handles[i]))
                    .get("removed")
                    ->as_bool());
  }
}

TEST_F(JournalTest, ReplayComputesEachSurvivingBoundOnce) {
  // Recovery rebuilds the population in one engine batch, so it costs
  // one Cal_U per surviving stream however the state dir splits it:
  // all in the WAL, all in the snapshot, or a snapshot and a WAL tail.
  const route::XYRouting routing;
  for (const std::uint64_t compact_every : {1000u, 1u, 7u}) {
    SCOPED_TRACE("compact_every " + std::to_string(compact_every));
    std::filesystem::remove_all(dir_);
    ServiceOptions options;
    options.state_dir = dir_;
    options.journal_fsync = false;
    options.compact_every = compact_every;
    topo::Mesh mesh(4, 4);
    Service primary(mesh, routing, {}, options);
    std::string error;
    ASSERT_TRUE(primary.open_state(&error)) << error;
    churn_crossing_streams(primary);

    topo::Mesh recovered_mesh(4, 4);
    Service recovered(recovered_mesh, routing, {}, options);
    ASSERT_TRUE(recovered.open_state(&error)) << error;
    expect_same_engine(recovered.controller(), primary.controller());
    EXPECT_EQ(recovered.controller().engine().stats().bound_recomputes,
              recovered.population());
  }

  // A REPL_SNAPSHOT install costs the same, on a fresh follower and on
  // one that already holds the population.
  std::filesystem::remove_all(dir_);
  ServiceOptions options;
  options.state_dir = dir_;
  options.journal_fsync = false;
  topo::Mesh mesh(4, 4);
  Service primary(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(primary.open_state(&error)) << error;
  churn_crossing_streams(primary);
  Json snapshot_verb = Json::object();
  snapshot_verb.set("verb", "REPL_SNAPSHOT");
  const Json image = primary.handle(snapshot_verb);

  const std::string follower_dir = dir_ + "-follower";
  std::filesystem::remove_all(follower_dir);
  topo::Mesh follower_mesh(4, 4);
  Service follower(follower_mesh, routing, {}, follower_in(follower_dir));
  ASSERT_TRUE(follower.open_state(&error)) << error;
  const core::IncrementalAnalyzer::Stats& stats =
      follower.controller().engine().stats();
  for (const char* holding : {"a fresh follower", "a follower holding it"}) {
    SCOPED_TRACE(holding);
    const std::uint64_t before = stats.bound_recomputes;
    ASSERT_TRUE(apply_snapshot_reply(follower, image, &error)) << error;
    expect_same_engine(follower.controller(), primary.controller());
    EXPECT_EQ(stats.bound_recomputes - before, follower.population());
  }
  std::filesystem::remove_all(follower_dir);
}

TEST_F(JournalTest, ReplayEndsItsBatchAtALinkRecord) {
  // ADD/REMOVE runs on both sides of a LINK_DOWN whose cascade reroutes
  // one victim and evicts another: recovery from the WAL, and a follower
  // applying the whole history as one pull, rebuild exactly the engine a
  // controller running the same operations one by one holds.
  const route::XYRouting routing;
  topo::Mesh oracle_mesh(4, 4);
  core::AdmissionController oracle(oracle_mesh, routing);
  topo::Mesh live_mesh(4, 4);
  ServiceOptions options;
  options.state_dir = dir_;
  Service primary(live_mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(primary.open_state(&error)) << error;
  const auto request = [&](int src, int dst) {
    const auto want = oracle.request(src, dst, 2, 200, 6, 200);
    const Json reply = primary.handle(request_line(src, dst, 2, 200, 6, 200));
    const Json* handle = reply.get("handle");
    EXPECT_TRUE(want.admitted);
    EXPECT_TRUE(handle != nullptr && handle->as_int() == want.handle);
    return want.handle;
  };
  const auto remove = [&](std::int64_t handle) {
    EXPECT_TRUE(oracle.remove(handle));
    EXPECT_TRUE(
        primary.handle(handle_verb("REMOVE", handle)).get("removed")->as_bool());
  };
  // Node (x,y) is y*4+x; channel 1->2 is on row 0.  0->6 can detour over
  // row 1, 0->3 cannot leave row 0.
  request(0, 6);
  request(0, 3);
  remove(request(12, 15));
  const std::int64_t row_one = request(4, 7);
  Json down = Json::object();
  down.set("verb", "LINK_DOWN");
  down.set("src", std::int64_t{1});
  down.set("dst", std::int64_t{2});
  ASSERT_TRUE(primary.handle(down).get("ok")->as_bool());
  const auto m = oracle.link_down(oracle_mesh.channel_between(1, 2));
  EXPECT_EQ(m.rerouted.size(), 1u);
  EXPECT_EQ(m.evicted.size(), 1u);
  request(1, 14);
  remove(row_one);
  request(5, 9);

  const auto expect_same_fabric = [&oracle_mesh](const topo::Mesh& got) {
    for (std::size_t c = 0; c < oracle_mesh.num_channels(); ++c) {
      const auto id = static_cast<topo::ChannelId>(c);
      EXPECT_EQ(got.channel_faulted(id), oracle_mesh.channel_faulted(id))
          << "channel " << c;
    }
  };
  topo::Mesh recovered_mesh(4, 4);
  Service recovered(recovered_mesh, routing, {}, options);
  ASSERT_TRUE(recovered.open_state(&error)) << error;
  EXPECT_EQ(recovered.recovery_info().journal_records, 9u);
  expect_same_engine(recovered.controller(), oracle);
  expect_same_fabric(recovered_mesh);

  const std::string follower_dir = dir_ + "-follower";
  std::filesystem::remove_all(follower_dir);
  topo::Mesh follower_mesh(4, 4);
  Service follower(follower_mesh, routing, {}, follower_in(follower_dir));
  ASSERT_TRUE(follower.open_state(&error)) << error;
  const Json pull = pull_from(primary, 1);
  ASSERT_EQ(pulled_lsns(pull).size(), 9u);
  ASSERT_TRUE(apply_pull_reply(follower, pull, nullptr, &error)) << error;
  expect_same_engine(follower.controller(), oracle);
  expect_same_fabric(follower_mesh);
  std::filesystem::remove_all(follower_dir);
}

TEST_F(JournalTest, SnapshotFileAndReplSnapshotReplyBytesArePinned) {
  // One fixed state — a detour, an eviction, a faulted channel, a freed
  // handle — as compaction writes it to snapshot.bin and as REPL_SNAPSHOT
  // ships it.  The bytes are pinned: how the image is passed around must
  // not change what reaches the disk or the wire.
  const route::XYRouting routing;
  topo::Mesh mesh(4, 4);
  ServiceOptions options;
  options.state_dir = dir_;
  options.compact_every = 1;  // the last mutation leaves it all in the snapshot
  Service primary(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(primary.open_state(&error)) << error;
  const auto admit = [&primary](int src, int dst) {
    ASSERT_TRUE(primary.handle(request_line(src, dst, 2, 200, 6, 200))
                    .get("admitted")
                    ->as_bool());
  };
  admit(0, 6);    // handle 0, rerouted by the LINK_DOWN
  admit(0, 3);    // handle 1, evicted by it
  admit(12, 15);  // handle 2
  admit(4, 7);    // handle 3
  Json down = Json::object();
  down.set("verb", "LINK_DOWN");
  down.set("src", std::int64_t{1});
  down.set("dst", std::int64_t{2});
  ASSERT_TRUE(primary.handle(down).get("ok")->as_bool());
  admit(1, 14);  // handle 4, on the detour order
  admit(5, 9);   // handle 5, torn down: next_handle stays 6
  ASSERT_TRUE(
      primary.handle(handle_verb("REMOVE", 5)).get("removed")->as_bool());

  const std::string file = read_bytes(snap());
  // 8 frame + 48 head + 16 fault pair + 8 row count + 4 x 64-byte rows.
  EXPECT_EQ(file.size(), 336u);
  EXPECT_EQ(util::crc32(file.data(), file.size()), 0x11592cf4u);
  Json snapshot_verb = Json::object();
  snapshot_verb.set("verb", "REPL_SNAPSHOT");
  EXPECT_EQ(primary.handle(snapshot_verb).dump(),
            R"({"ok":true,"lsn":8,"epoch":1,"next_handle":6,)"
            R"("faulted":[[1,2]],"entries":[[2,12,15,2,200,6,200,0],)"
            R"([3,4,7,2,200,6,200,0],[0,0,6,2,200,6,200,1],)"
            R"([4,1,14,2,200,6,200,1]]})");
}

// --- semi-synchronous replication -------------------------------------

TEST_F(JournalTest, SyncReplicationAcksOnTimeoutAndCountsIt) {
  topo::Mesh mesh(4, 4);
  const route::XYRouting routing;
  ServiceOptions options;
  options.state_dir = dir_;
  options.sync_replication = true;
  options.sync_replication_timeout_ms = 50;
  Service primary(mesh, routing, {}, options);
  std::string error;
  ASSERT_TRUE(primary.open_state(&error)) << error;
  Json metrics_verb = Json::object();
  metrics_verb.set("verb", "METRICS");
  const auto timeouts = [&] {
    return testing::metric_count(primary.handle(metrics_verb),
                                 "wormrt_repl_sync_timeouts_total");
  };

  // No follower: the REQUEST (LSN 1) is still acked, once the wait for
  // one has timed out, and the degraded ack is counted and reported.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(primary.handle(request_line(0, 5, 2, 60, 8, 50))
                  .get("admitted")
                  ->as_bool());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(50));
  EXPECT_EQ(timeouts(), 1);
  EXPECT_NE(primary.handle(metrics_verb)
                .get("prometheus")
                ->as_string()
                .find("\nwormrt_repl_sync_timeouts_total 1\n"),
            std::string::npos);
  Json health_verb = Json::object();
  health_verb.set("verb", "HEALTH");
  const Json health = primary.handle(health_verb);
  EXPECT_EQ(health.get("status")->as_string(), "degraded");
  const std::vector<Json>& reasons = health.get("reasons")->items();
  EXPECT_TRUE(std::any_of(reasons.begin(), reasons.end(), [](const Json& r) {
    return r.as_string() ==
           "replication_sync_timeouts: 1 acks degraded to async replication";
  })) << health.dump();

  // A follower whose pull reports LSN 2 durable covers the next REQUEST
  // (LSN 2) in advance: its ack adds no timeout.
  Json pull = Json::object();
  pull.set("verb", "REPL_PULL");
  pull.set("from_lsn", std::int64_t{2});
  pull.set("durable_lsn", std::int64_t{2});
  pull.set("follower_id", "f1");
  pull.set("wait_ms", std::int64_t{0});
  ASSERT_TRUE(primary.handle(pull).get("ok")->as_bool());
  EXPECT_TRUE(primary.handle(request_line(1, 6, 2, 60, 8, 50))
                  .get("admitted")
                  ->as_bool());
  EXPECT_EQ(primary.durable_lsn(), 2u);
  EXPECT_EQ(timeouts(), 1);
}

}  // namespace
}  // namespace wormrt::svc
