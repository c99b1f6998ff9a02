#include "svc/replication.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "svc/service.hpp"

namespace wormrt::svc {

namespace {

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

/// False + \p error naming \p verb and the primary's reason unless
/// \p reply says ok.
bool accepted(const Json& reply, const char* verb, std::string* error) {
  const Json* ok = reply.get("ok");
  if (ok != nullptr && ok->as_bool()) {
    return true;
  }
  const Json* err = reply.get("error");
  *error = std::string(verb) + " failed: " +
           (err != nullptr && err->is_string() ? err->as_string()
                                               : reply.dump());
  return false;
}

/// \p reply's unsigned field \p key, \p fallback when absent.
std::uint64_t u64_field(const Json& reply, const char* key,
                        std::uint64_t fallback = 0) {
  const Json* v = reply.get(key);
  return v != nullptr ? static_cast<std::uint64_t>(v->as_int()) : fallback;
}

/// The session's REPL_PULL long-poll window, its client I/O deadline
/// (comfortably above the window) and its reconnect backoff.
constexpr int kPullWaitMs = 1000;
constexpr int kTimeoutMs = 10000;
constexpr int kReconnectDelayMs = 200;

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

Json encode_snapshot_reply(std::uint64_t lsn, std::uint64_t epoch,
                           const StateImage& image) {
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("lsn", static_cast<std::int64_t>(lsn));
  reply.set("epoch", static_cast<std::int64_t>(epoch));
  reply.set("next_handle", image.next_handle);
  Json faults = Json::array();
  for (const auto& [src, dst] : image.faulted) {
    Json pair = Json::array();
    pair.push_back(src);
    pair.push_back(dst);
    faults.push_back(std::move(pair));
  }
  reply.set("faulted", std::move(faults));
  Json rows = Json::array();
  for (const JournalEntry& e : image.rows) {
    rows.push_back(encode_row({}, e));
  }
  reply.set("entries", std::move(rows));
  return reply;
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

std::vector<Replicator::FollowerInfo> Replicator::followers() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<FollowerInfo> out;
  out.reserve(followers_.size());
  for (const auto& [id, info] : followers_) {
    out.push_back(info);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reply application (shared with the fuzz oracle)
// ---------------------------------------------------------------------------

bool apply_snapshot_reply(Service& service, const Json& reply,
                          std::string* error) {
  if (!accepted(reply, "REPL_SNAPSHOT", error)) {
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
  StateImage image;
  image.next_handle = next_handle->as_int();
  image.rows.reserve(entries->items().size());
  for (const Json& row : entries->items()) {
    JournalEntry e;
    if (!decode_row(row, 0, nullptr, &e)) {
      *error = "REPL_SNAPSHOT entry row is malformed";
      return false;
    }
    image.rows.push_back(e);
  }
  image.faulted.reserve(faulted->items().size());
  for (const Json& pair : faulted->items()) {
    if (!int_row(pair, 2)) {
      *error = "REPL_SNAPSHOT faulted row is malformed";
      return false;
    }
    image.faulted.emplace_back(pair.items()[0].as_int(),
                               pair.items()[1].as_int());
  }
  return service.bootstrap_replicated(
      static_cast<std::uint64_t>(lsn->as_int()),
      static_cast<std::uint64_t>(epoch->as_int()), image, error);
}

bool apply_pull_reply(Service& service, const Json& reply,
                      std::uint64_t* applied, std::string* error) {
  if (!accepted(reply, "REPL_PULL", error)) {
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
// The follower's step (ReplicaSession, wormrtd's preflight, the fuzz oracle)
// ---------------------------------------------------------------------------

PrimaryCall primary_at(Client& client) {
  return [&client](const Json& request, Json* reply, std::string* error) {
    std::string line;
    if (!client.call(request.dump(), &line, error)) {
      return false;
    }
    std::string parse_error;
    *reply = Json::parse(line, &parse_error);
    if (!parse_error.empty()) {
      *error = "primary sent bad json: " + parse_error;
      return false;
    }
    return true;
  };
}

bool hello(const PrimaryCall& primary, const std::string& follower_id,
           std::uint64_t fingerprint, std::uint64_t epoch,
           std::uint64_t durable_lsn, HelloReply* reply, std::string* error) {
  Json request = Json::object();
  request.set("verb", "REPL_HELLO");
  request.set("follower_id", follower_id);
  request.set("fingerprint", static_cast<std::int64_t>(fingerprint));
  request.set("epoch", static_cast<std::int64_t>(epoch));
  request.set("durable_lsn", static_cast<std::int64_t>(durable_lsn));
  Json answer;
  if (!primary(request, &answer, error) ||
      !accepted(answer, "REPL_HELLO", error)) {
    return false;
  }
  reply->epoch = u64_field(answer, "epoch", 1);
  reply->fence_lsn = u64_field(answer, "fence_lsn");
  reply->durable_lsn = u64_field(answer, "durable_lsn");
  const Json* snapshot_needed = answer.get("snapshot_needed");
  reply->snapshot_needed =
      snapshot_needed != nullptr && snapshot_needed->as_bool();
  return true;
}

bool bootstrap(const PrimaryCall& primary, Service& follower,
               std::string* error) {
  Json request = Json::object();
  request.set("verb", "REPL_SNAPSHOT");
  Json reply;
  return primary(request, &reply, error) &&
         apply_snapshot_reply(follower, reply, error);
}

bool pull_once(const PrimaryCall& primary, Service& follower,
               const std::string& follower_id, int wait_ms,
               std::string* error) {
  const std::uint64_t durable = follower.durable_lsn();
  Json request = Json::object();
  request.set("verb", "REPL_PULL");
  request.set("follower_id", follower_id);
  request.set("from_lsn", static_cast<std::int64_t>(durable + 1));
  request.set("durable_lsn", static_cast<std::int64_t>(durable));
  request.set("wait_ms", static_cast<std::int64_t>(wait_ms));
  Json reply;
  if (!primary(request, &reply, error)) {
    return false;
  }
  const Json* snapshot_needed = reply.get("snapshot_needed");
  if (snapshot_needed != nullptr && snapshot_needed->as_bool()
          ? !bootstrap(primary, follower, error)
          : !apply_pull_reply(follower, reply, nullptr, error)) {
    return false;
  }
  follower.note_replica_progress(u64_field(reply, "durable_lsn"),
                                 u64_field(reply, "epoch"), true);
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

void ReplicaSession::run() {
  const auto stopping = [this] {
    return stop_.load(std::memory_order_acquire);
  };
  const std::uint64_t fingerprint =
      core::contract_fingerprint(service_.controller().topology(),
                                 service_.controller().engine().config());
  while (!stopping()) {
    Client client;
    client.set_timeout_ms(kTimeoutMs);
    const PrimaryCall primary = primary_at(client);
    std::string error;
    // Handshake: prove we replay the same fabric and learn whether our
    // journal is close enough to stream from.  A refusal — "not primary"
    // (follower chains are not supported) or a fingerprint mismatch — is
    // retried with backoff, so an operator can fix the fabric or promote
    // without a restart.
    HelloReply handshake;
    bool live = client.connect_spec(config_.endpoint, &error) &&
                hello(primary, config_.follower_id, fingerprint,
                      service_.epoch(), service_.durable_lsn(), &handshake,
                      &error);
    if (live) {
      // Connected as of the handshake: a snapshot bootstrap can take a
      // while, and HEALTH must not call a live session disconnected
      // before its first pull completes.
      service_.note_replica_progress(handshake.durable_lsn, handshake.epoch,
                                     true);
      live = !handshake.snapshot_needed ||
             bootstrap(primary, service_, &error);
    }
    while (live && !stopping()) {
      live = pull_once(primary, service_, config_.follower_id, kPullWaitMs,
                       &error);
    }
    if (stopping()) {
      break;
    }
    service_.note_replica_progress(0, 0, false);
    // Interruptible backoff: sleeps in small slices so stop() (and thus
    // PROMOTE) never waits out a full reconnect delay.
    for (int left = kReconnectDelayMs; left > 0 && !stopping(); left -= 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace wormrt::svc
