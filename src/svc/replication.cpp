#include "svc/replication.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "svc/service.hpp"

namespace wormrt::svc {

namespace {

/// The eight JournalEntry columns of a wire row, in wire order.
constexpr std::int64_t JournalEntry::*kEntryColumns[] = {
    &JournalEntry::handle, &JournalEntry::src,      &JournalEntry::dst,
    &JournalEntry::priority, &JournalEntry::period, &JournalEntry::length,
    &JournalEntry::deadline, &JournalEntry::route_order};
constexpr std::size_t kNumEntryColumns = std::size(kEntryColumns);

/// True when \p row is an array of exactly \p n integers.
bool int_row(const Json& row, std::size_t n) {
  return row.is_array() && row.items().size() == n &&
         std::all_of(row.items().begin(), row.items().end(),
                     [](const Json& cell) { return cell.is_int(); });
}

/// The only row reader, inverse of encode_row: fills \p head
/// (\p head_size cells) and \p entry.  False unless \p row is an array
/// of exactly head_size + 8 integers — a string, null, bool or double
/// cell makes the row malformed instead of reading as a number.
bool decode_row(const Json& row, std::size_t head_size, std::int64_t* head,
                JournalEntry* entry) {
  if (!int_row(row, head_size + kNumEntryColumns)) {
    return false;
  }
  const std::vector<Json>& cells = row.items();
  for (std::size_t i = 0; i < head_size; ++i) {
    head[i] = cells[i].as_int();
  }
  for (std::size_t i = 0; i < kNumEntryColumns; ++i) {
    entry->*kEntryColumns[i] = cells[head_size + i].as_int();
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire rows
// ---------------------------------------------------------------------------

Json encode_row(std::initializer_list<std::int64_t> head,
                const JournalEntry& entry) {
  Json row = Json::array();
  for (const std::int64_t cell : head) {
    row.push_back(cell);
  }
  for (const auto column : kEntryColumns) {
    row.push_back(entry.*column);
  }
  return row;
}

// ---------------------------------------------------------------------------
// Replicator
// ---------------------------------------------------------------------------

void Replicator::note_follower(const std::string& follower_id,
                               std::uint64_t durable_lsn,
                               std::int64_t now_ms) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    FollowerInfo& info = followers_[follower_id];
    info.id = follower_id;
    // Monotone per follower: a reordered stale pull must not regress
    // the ack (sync waiters released on it would be wrong to re-block).
    info.durable_lsn = std::max(info.durable_lsn, durable_lsn);
    info.last_seen_ms = now_ms;
  }
  follower_cv_.notify_all();
}

bool Replicator::wait_follower_durable(std::uint64_t lsn, int timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max(timeout_ms, 0));
  const auto covered = [this, lsn] {
    for (const auto& [id, info] : followers_) {
      if (info.durable_lsn >= lsn) {
        return true;
      }
    }
    return false;
  };
  return follower_cv_.wait_until(lk, deadline, covered);
}

std::uint64_t Replicator::max_follower_durable() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t best = 0;
  for (const auto& [id, info] : followers_) {
    best = std::max(best, info.durable_lsn);
  }
  return best;
}

std::vector<Replicator::FollowerInfo> Replicator::followers() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<FollowerInfo> out;
  out.reserve(followers_.size());
  for (const auto& [id, info] : followers_) {
    out.push_back(info);
  }
  return out;
}

void Replicator::set_fence(std::uint64_t fence_lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  fence_lsn_ = fence_lsn;
}

std::uint64_t Replicator::fence_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fence_lsn_;
}

// ---------------------------------------------------------------------------
// Reply application (shared with the fuzz oracle)
// ---------------------------------------------------------------------------

bool apply_snapshot_reply(Service& service, const Json& reply,
                          std::string* error) {
  const Json* ok = reply.get("ok");
  if (ok == nullptr || !ok->as_bool()) {
    const Json* err = reply.get("error");
    *error = "REPL_SNAPSHOT failed: " +
             (err != nullptr && err->is_string() ? err->as_string()
                                                 : reply.dump());
    return false;
  }
  const Json* lsn = reply.get("lsn");
  const Json* epoch = reply.get("epoch");
  const Json* next_handle = reply.get("next_handle");
  const Json* entries = reply.get("entries");
  const Json* faulted = reply.get("faulted");
  if (lsn == nullptr || !lsn->is_int() || epoch == nullptr ||
      !epoch->is_int() || next_handle == nullptr || !next_handle->is_int() ||
      entries == nullptr || !entries->is_array() || faulted == nullptr ||
      !faulted->is_array()) {
    *error = "REPL_SNAPSHOT reply is malformed: " + reply.dump();
    return false;
  }
  std::vector<JournalEntry> rows;
  rows.reserve(entries->items().size());
  for (const Json& row : entries->items()) {
    JournalEntry e;
    if (!decode_row(row, 0, nullptr, &e)) {
      *error = "REPL_SNAPSHOT entry row is malformed";
      return false;
    }
    rows.push_back(e);
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> faults;
  faults.reserve(faulted->items().size());
  for (const Json& pair : faulted->items()) {
    if (!int_row(pair, 2)) {
      *error = "REPL_SNAPSHOT faulted row is malformed";
      return false;
    }
    faults.emplace_back(pair.items()[0].as_int(), pair.items()[1].as_int());
  }
  return service.bootstrap_replicated(
      static_cast<std::uint64_t>(lsn->as_int()),
      static_cast<std::uint64_t>(epoch->as_int()), next_handle->as_int(),
      rows, faults, error);
}

bool apply_pull_reply(Service& service, const Json& reply,
                      std::uint64_t* applied, std::string* error) {
  const Json* ok = reply.get("ok");
  if (ok == nullptr || !ok->as_bool()) {
    const Json* err = reply.get("error");
    *error = "REPL_PULL failed: " +
             (err != nullptr && err->is_string() ? err->as_string()
                                                 : reply.dump());
    return false;
  }
  const Json* records = reply.get("records");
  if (records == nullptr || !records->is_array()) {
    *error = "REPL_PULL reply has no records array: " + reply.dump();
    return false;
  }
  // Decode all before staging any: an error never leaves a record
  // journaled that the engine did not apply.
  std::vector<JournalRecord> batch(records->items().size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::int64_t head[2] = {};  // [type, lsn]
    if (!decode_row(records->items()[i], 2, head, &batch[i].entry)) {
      *error = "REPL_PULL record row is malformed";
      return false;
    }
    if (head[0] < 1 || head[0] > 4) {
      *error = "REPL_PULL record has unknown type " + std::to_string(head[0]);
      return false;
    }
    batch[i].type = static_cast<JournalRecord::Type>(head[0]);
    batch[i].lsn = static_cast<std::uint64_t>(head[1]);
  }
  if (!service.apply_replicated(batch, error)) {
    return false;
  }
  if (applied != nullptr) {
    *applied += batch.size();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Endpoint parsing
// ---------------------------------------------------------------------------

bool parse_endpoint(const std::string& spec, bool* is_unix,
                    std::string* path_or_host, int* port) {
  if (spec.empty()) {
    return false;
  }
  if (spec.rfind("unix:", 0) == 0) {
    *is_unix = true;
    *path_or_host = spec.substr(5);
    *port = 0;
    return !path_or_host->empty();
  }
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos && colon + 1 < spec.size() &&
      spec.find('/') == std::string::npos) {
    bool digits = true;
    for (std::size_t i = colon + 1; i < spec.size(); ++i) {
      if (spec[i] < '0' || spec[i] > '9') {
        digits = false;
        break;
      }
    }
    if (digits) {
      *is_unix = false;
      *path_or_host = spec.substr(0, colon);
      *port = std::stoi(spec.substr(colon + 1));
      return !path_or_host->empty() && *port > 0 && *port < 65536;
    }
  }
  // Bare socket path ("/run/wormrtd.sock" or a relative path).
  *is_unix = true;
  *path_or_host = spec;
  *port = 0;
  return true;
}

// ---------------------------------------------------------------------------
// ReplicaSession
// ---------------------------------------------------------------------------

ReplicaSession::ReplicaSession(Service& service, ReplicaConfig config)
    : service_(service), config_(std::move(config)) {
  if (config_.follower_id.empty()) {
    config_.follower_id = "pid-" + std::to_string(::getpid());
  }
}

ReplicaSession::~ReplicaSession() { stop(); }

void ReplicaSession::start() {
  std::lock_guard<std::mutex> lk(thread_mu_);
  if (thread_.joinable()) {
    return;
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void ReplicaSession::stop() {
  stop_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lk(thread_mu_);
  if (thread_.joinable()) {
    thread_.join();
  }
  running_.store(false, std::memory_order_release);
}

bool ReplicaSession::connect_primary(Client* client, std::string* error) {
  bool is_unix = false;
  std::string target;
  int port = 0;
  if (!parse_endpoint(config_.endpoint, &is_unix, &target, &port)) {
    *error = "bad primary endpoint: " + config_.endpoint;
    return false;
  }
  client->set_timeout_ms(config_.timeout_ms);
  return is_unix ? client->connect_unix(target, error)
                 : client->connect_tcp(target, port, error);
}

bool ReplicaSession::call_verb(Client* client, const Json& request,
                               Json* reply, std::string* error) {
  std::string line;
  if (!client->call(request.dump(), &line, error)) {
    return false;
  }
  std::string parse_error;
  *reply = Json::parse(line, &parse_error);
  if (!parse_error.empty()) {
    *error = "primary sent bad json: " + parse_error;
    return false;
  }
  return true;
}

void ReplicaSession::run() {
  // Interruptible backoff: sleeps in small slices so stop() (and thus
  // PROMOTE) never waits out a full reconnect delay.
  const auto backoff = [this] {
    int left = std::max(config_.reconnect_delay_ms, 1);
    while (left > 0 && !stop_.load(std::memory_order_acquire)) {
      const int slice = std::min(left, 20);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      left -= slice;
    }
  };
  while (!stop_.load(std::memory_order_acquire)) {
    Client client;
    std::string error;
    if (!connect_primary(&client, &error)) {
      service_.note_replica_progress(0, 0, false);
      backoff();
      continue;
    }
    // Handshake: prove we are replaying the same fabric, learn the
    // primary's epoch/durable position, find out whether our journal is
    // close enough to stream or we must bootstrap from a snapshot.
    Json hello = Json::object();
    hello.set("verb", "REPL_HELLO");
    hello.set("follower_id", config_.follower_id);
    hello.set("fingerprint", static_cast<std::int64_t>(config_.fingerprint));
    hello.set("epoch", static_cast<std::int64_t>(service_.epoch()));
    hello.set("durable_lsn",
              static_cast<std::int64_t>(service_.durable_lsn()));
    Json reply;
    if (!call_verb(&client, hello, &reply, &error)) {
      service_.note_replica_progress(0, 0, false);
      backoff();
      continue;
    }
    const Json* ok = reply.get("ok");
    if (ok == nullptr || !ok->as_bool()) {
      // "not primary" (follower chains are not supported) or a
      // fingerprint mismatch; both are retried with backoff so an
      // operator can fix the topology / promote without a restart, and
      // both are loud on stderr via the daemon's progress gauge.
      service_.note_replica_progress(0, 0, false);
      backoff();
      continue;
    }
    bool snapshot_needed =
        reply.get("snapshot_needed") != nullptr &&
        reply.get("snapshot_needed")->as_bool();
    // Connected as of the handshake — a snapshot bootstrap can take a
    // while, and HEALTH must not call a live session disconnected
    // before its first pull completes.
    {
      const Json* p_durable = reply.get("durable_lsn");
      const Json* p_epoch = reply.get("epoch");
      service_.note_replica_progress(
          p_durable != nullptr
              ? static_cast<std::uint64_t>(p_durable->as_int())
              : 0,
          p_epoch != nullptr ? static_cast<std::uint64_t>(p_epoch->as_int())
                             : 0,
          true);
    }
    bool session_ok = true;
    while (session_ok && !stop_.load(std::memory_order_acquire)) {
      if (snapshot_needed) {
        Json req = Json::object();
        req.set("verb", "REPL_SNAPSHOT");
        Json snap;
        if (!call_verb(&client, req, &snap, &error) ||
            !apply_snapshot_reply(service_, snap, &error)) {
          session_ok = false;
          break;
        }
        snapshot_needed = false;
      }
      Json pull = Json::object();
      pull.set("verb", "REPL_PULL");
      pull.set("follower_id", config_.follower_id);
      pull.set("from_lsn",
               static_cast<std::int64_t>(service_.durable_lsn() + 1));
      pull.set("durable_lsn",
               static_cast<std::int64_t>(service_.durable_lsn()));
      pull.set("wait_ms", static_cast<std::int64_t>(config_.pull_wait_ms));
      Json batch;
      if (!call_verb(&client, pull, &batch, &error)) {
        session_ok = false;
        break;
      }
      const Json* pull_ok = batch.get("ok");
      if (pull_ok == nullptr || !pull_ok->as_bool()) {
        session_ok = false;
        break;
      }
      if (batch.get("snapshot_needed") != nullptr &&
          batch.get("snapshot_needed")->as_bool()) {
        snapshot_needed = true;
        continue;
      }
      std::uint64_t applied = 0;
      if (!apply_pull_reply(service_, batch, &applied, &error)) {
        session_ok = false;
        break;
      }
      const Json* durable = batch.get("durable_lsn");
      const Json* epoch = batch.get("epoch");
      service_.note_replica_progress(
          durable != nullptr ? static_cast<std::uint64_t>(durable->as_int())
                             : 0,
          epoch != nullptr ? static_cast<std::uint64_t>(epoch->as_int()) : 0,
          true);
    }
    client.close();
    if (!stop_.load(std::memory_order_acquire)) {
      service_.note_replica_progress(0, 0, false);
      backoff();
    }
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace wormrt::svc
