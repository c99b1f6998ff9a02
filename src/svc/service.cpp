#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>

#include "core/stream_io.hpp"
#include "obs/trace.hpp"
#include "route/fault_aware.hpp"
#include "svc/replication.hpp"
#include "util/thread_pool.hpp"

namespace wormrt::svc {

namespace {

/// Required integer field helper: writes into \p out, or returns false.
/// Only a JSON integer qualifies: a double is refused, never truncated.
bool req_int(const Json& request, const char* key, std::int64_t* out) {
  const Json* v = request.get(key);
  if (v == nullptr || !v->is_int()) {
    return false;
  }
  *out = v->as_int();
  return true;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The journal row of an established stream: what ADD records, staged
/// REMOVEs and snapshots carry.
JournalEntry entry_of(std::int64_t handle, const core::MessageStream& s) {
  return {handle,   s.src,    s.dst,      s.priority,
          s.period, s.length, s.deadline, s.route_order};
}

bool is_link(const JournalRecord& record) {
  return record.type == JournalRecord::Type::kLinkDown ||
         record.type == JournalRecord::Type::kLinkUp;
}

/// The one check a journal record passes before anything journals or
/// applies it (a pulled record, a snapshot row or fault pair, a record
/// recovery read).  An ADD passes REQUEST's own checks (two distinct
/// nodes of \p fabric; a positive period, length and deadline) and
/// carries a route order route::is_route_order accepts; a LINK_DOWN or
/// LINK_UP names a channel of \p fabric.  False + \p error naming the
/// record otherwise.
bool check_record(const topo::Topology& fabric, const JournalRecord& record,
                  std::string* error) {
  const JournalEntry& e = record.entry;
  const auto node = [&fabric](std::int64_t n) {
    return n >= 0 && n < fabric.num_nodes();
  };
  const auto edge = [&e] {
    return std::to_string(e.src) + "->" + std::to_string(e.dst);
  };
  if (record.type == JournalRecord::Type::kAdd) {
    const int order = static_cast<int>(e.route_order);
    const char* fault =
        !node(e.src) || !node(e.dst) || e.src == e.dst
            ? "does not join two distinct nodes of this topology"
        : e.period <= 0 || e.length <= 0 || e.deadline <= 0
            ? "has a non-positive period, length or deadline"
        : order != e.route_order || !route::is_route_order(order)
            ? "has an unknown route order"
            : nullptr;
    if (fault != nullptr) {
      *error = "journal record adds handle " + std::to_string(e.handle) +
               " on " + edge() + ", which " + fault;
      return false;
    }
  } else if (record.type != JournalRecord::Type::kRemove &&
             (!node(e.src) || !node(e.dst) ||
              fabric.channel_between(static_cast<topo::NodeId>(e.src),
                                     static_cast<topo::NodeId>(e.dst)) ==
                  topo::kNoChannel)) {
    *error = "journal record names channel " + edge() +
             " which this topology does not have";
    return false;
  }
  return true;
}

/// check_record over a snapshot image: each row as an ADD, each faulted
/// channel as a LINK_DOWN.
bool check_image(const topo::Topology& fabric, const StateImage& image,
                 std::string* error) {
  for (const JournalEntry& e : image.rows) {
    if (!check_record(fabric, {JournalRecord::Type::kAdd, 0, e}, error)) {
      return false;
    }
  }
  for (const auto& [src, dst] : image.faulted) {
    if (!check_record(fabric,
                      {JournalRecord::Type::kLinkDown, 0,
                       {.src = src, .dst = dst}},
                      error)) {
      return false;
    }
  }
  return true;
}

/// A handle list as a JSON array.
Json handles_json(const std::vector<core::AdmissionController::Handle>& hs) {
  Json out = Json::array();
  for (const auto h : hs) {
    out.push_back(h);
  }
  return out;
}

/// Samples each HISTORY series keeps (its ring capacity).
constexpr std::size_t kHistoryCapacity = 512;

/// The engine's work counters, as the registry mirrors refresh_mirrors()
/// keeps.
using EngineStats = core::IncrementalAnalyzer::Stats;
struct EngineCounter {
  const char* metric;
  const char* help;
  std::uint64_t EngineStats::*field;
};
constexpr EngineCounter kEngineCounters[] = {
    {"wormrt_engine_adds_total",
     "Stream additions the incremental engine performed.", &EngineStats::adds},
    {"wormrt_engine_removes_total",
     "Stream removals the incremental engine performed.",
     &EngineStats::removes},
    {"wormrt_engine_bound_recomputes_total",
     "Cal_U evaluations (dirty-set recomputations).",
     &EngineStats::bound_recomputes},
    {"wormrt_engine_dirty_marked_total",
     "Established streams marked dirty across mutations.",
     &EngineStats::dirty_marked},
    {"wormrt_engine_edge_updates_total",
     "Direct-blocking edges inserted or erased.", &EngineStats::edge_updates},
    {"wormrt_engine_bound_cache_hits_total",
     "Bound lookups served from the cache with no re-analysis.",
     &EngineStats::bound_cache_hits},
};

}  // namespace

using Lock = Service::Lock;

// The verb table.  Columns: name, handler, lock, primary_only,
// idempotent, counted.
constexpr Service::Verb Service::kVerbs[] = {
    {"REQUEST", &Service::do_request_locked, Lock::kStaged, true, false, true},
    {"REMOVE", &Service::do_remove_locked, Lock::kStaged, true, false, true},
    {"QUERY", &Service::do_query_locked, Lock::kHeld, false, true, true},
    {"EXPLAIN", &Service::do_explain_locked, Lock::kHeld, false, true, true},
    {"SNAPSHOT", &Service::do_snapshot_locked, Lock::kHeld, false, true, true},
    {"METRICS", &Service::do_metrics_locked, Lock::kHeld, false, true, true},
    {"LINK_DOWN", &Service::do_link_down, Lock::kOwn, true, false, true},
    {"LINK_UP", &Service::do_link_up, Lock::kOwn, true, false, true},
    // A resent REPORT would count its observation twice.
    {"REPORT", &Service::do_report_locked, Lock::kHeld, false, false, true},
    {"HEALTH", &Service::do_health_locked, Lock::kHeld, false, true, true},
    {"HISTORY", &Service::do_history_locked, Lock::kHeld, false, true, true},
    {"BATCH", &Service::do_batch, Lock::kOwn, true, false, false},
    {"SHUTDOWN", &Service::do_shutdown_locked, Lock::kHeld, false, false,
     false},
    {"REPL_HELLO", &Service::do_repl_hello, Lock::kOwn, true, false, false},
    {"REPL_SNAPSHOT", &Service::do_repl_snapshot, Lock::kOwn, true, false,
     false},
    {"REPL_PULL", &Service::do_repl_pull, Lock::kOwn, true, false, false},
    // Re-promoting a primary reports its standing role without a second
    // epoch bump.
    {"PROMOTE", &Service::do_promote, Lock::kOwn, false, true, false},
};

consteval std::size_t Service::served_row(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kVerbs); ++i) {
    if (kVerbs[i].name == name && kVerbs[i].counted) {
      return i;
    }
  }
  throw "not a counted verb";
}

const Service::Verb* Service::find_verb(std::string_view name) {
  for (const Verb& verb : kVerbs) {
    if (verb.name == name) {
      return &verb;
    }
  }
  return nullptr;
}

Service::Metrics::Metrics(obs::Registry& reg)
    : served([&reg] {
        std::vector<obs::Counter*> counters;
        for (const Verb& verb : kVerbs) {
          counters.push_back(
              verb.counted ? &reg.counter("wormrt_requests_total",
                                          {{"verb", std::string(verb.name)}},
                                          "Protocol verbs served, by verb.")
                           : nullptr);
        }
        return counters;
      }()),
      link_evicted(reg.counter(
          "wormrt_link_streams_total", {{"outcome", "evicted"}},
          "Established streams hit by LINK_DOWN, by outcome.")),
      link_rerouted(
          reg.counter("wormrt_link_streams_total", {{"outcome", "rerouted"}})),
      admitted(reg.counter("wormrt_admission_decisions_total",
                           {{"decision", "admitted"}},
                           "Admission decisions, by outcome.")),
      rejected(reg.counter("wormrt_admission_decisions_total",
                           {{"decision", "rejected"}})),
      errors(reg.counter("wormrt_errors_total", {},
                         "Error replies sent (bad json, bad verb, bad "
                         "arguments, internal errors).")),
      latency_us(reg.histogram(
          // 10µs buckets: coarse 100µs buckets flattened the p99/p999
          // split the dispatch pipeline actually has (DESIGN.md §14).
          "wormrt_admission_latency_us", 0.0, 5000.0, 500, {},
          "REQUEST verb service time in microseconds (the admission "
          "decision, including the trial analysis).")),
      population(reg.gauge("wormrt_population", {},
                           "Established channels currently admitted.")) {}

Service::Service(topo::Topology& topo, const route::RoutingAlgorithm& routing,
                 core::AnalysisConfig config, ServiceOptions options)
    : topo_(topo),
      options_(std::move(options)),
      ctrl_(topo, routing, config),
      metrics_(registry_),
      conformance_(registry_),
      channel_gauge_live_(topo.num_channels(), 0),
      sampler_(kHistoryCapacity) {
  follower_.store(options_.follower, std::memory_order_release);
  setup_sampler();
  if (options_.sample_interval_ms > 0) {
    sampler_.start(options_.sample_interval_ms);
  }
}

Service::~Service() = default;

void Service::setup_sampler() {
  // Probes run on the sampler thread.  They read independently
  // synchronised state (atomic counters, sharded histograms, the
  // conformance monitor, ThreadPool stats) — the one exception takes
  // mu_ briefly for the engine's plain-struct work counters, which at
  // sampling cadence is noise (gated by the svc_churn obs-overhead
  // floor, BENCH_obs.json).
  sampler_.add_series("requests_total", [this] {
    return static_cast<double>(
        metrics_.served[served_row("REQUEST")]->value());
  });
  sampler_.add_series("admission_p99_us",
                      [this] { return metrics_.latency_us.p99(); });
  sampler_.add_series("fsync_p99_us", [this] {
    // Without a journal the read would only register an empty histogram.
    std::lock_guard<std::mutex> lk(mu_);
    return journal_ != nullptr ? Journal::fsync_histogram(registry_).p99()
                               : 0.0;
  });
  sampler_.add_series("sheds_total", [this] { return sheds_total(); });
  sampler_.add_series("dirty_marked_total", [this] {
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<double>(ctrl_.engine().stats().dirty_marked);
  });
  sampler_.add_series("violations_total", [this] {
    return static_cast<double>(conformance_.total_violations());
  });
  sampler_.add_series("population", [this] {
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<double>(ctrl_.size());
  });
  sampler_.add_series("threadpool_queue_depth", [] {
    return static_cast<double>(util::ThreadPool::shared().stats().queue_depth);
  });
  sampler_.add_series("replication_lag", [this] {
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<double>(replication_status_locked().lag);
  });
}

Service::ReplicationStatus Service::replication_status_locked() const {
  ReplicationStatus s;
  s.follower = follower_.load(std::memory_order_acquire);
  if (journal_ != nullptr) {
    s.epoch = journal_->epoch();
    s.durable_lsn = journal_->durable_lsn();
  }
  if (s.follower) {
    s.connected = replica_connected_.load(std::memory_order_relaxed);
    s.primary_durable_lsn =
        replica_primary_durable_.load(std::memory_order_relaxed);
    s.primary_epoch = replica_primary_epoch_.load(std::memory_order_relaxed);
    if (journal_ != nullptr && s.primary_durable_lsn > s.durable_lsn) {
      s.lag = s.primary_durable_lsn - s.durable_lsn;
    }
  } else if (repl_ != nullptr) {  // only a journaled primary has one
    s.serving = true;
    for (const Replicator::FollowerInfo& info : repl_->followers()) {
      const std::uint64_t lag =
          s.durable_lsn > info.durable_lsn ? s.durable_lsn - info.durable_lsn
                                           : 0;
      s.followers.push_back({info.id, info.durable_lsn, lag,
                             info.last_seen_ms});
      // The slowest follower's lag: one that pulled once and died keeps
      // the primary degraded until it is back.
      s.lag = std::max(s.lag, lag);
    }
  }
  return s;
}

obs::Counter& Service::sync_timeouts() const {
  return registry_.counter(
      "wormrt_repl_sync_timeouts_total", {},
      "Mutation acks that degraded to async replication because no "
      "follower confirmed durability in time.");
}

double Service::sheds_total() const {
  double total = 0.0;
  for (const char* reason : {"overloaded", "line_too_long", "idle_timeout"}) {
    total += static_cast<double>(
        registry_.counter("wormrt_server_sheds_total", {{"reason", reason}})
            .value());
  }
  return total;
}

void Service::flush_observability() {
  sampler_.stop();
  if (audit_ != nullptr) {
    audit_->flush();
  }
}

bool Service::open_state(std::string* error) {
  if (!options_.audit_path.empty() && audit_ == nullptr) {
    auto audit =
        std::make_unique<AuditLog>(options_.audit_path,
                                   options_.audit_max_bytes);
    if (!audit->open(error)) {
      return false;
    }
    audit_ = std::move(audit);
  }
  if (options_.state_dir.empty()) {
    return true;
  }
  std::lock_guard<std::mutex> lk(mu_);
  journal_ = std::make_unique<Journal>(
      JournalConfig{options_.state_dir, options_.journal_fsync,
                    options_.journal_faults,
                    core::contract_fingerprint(topo_, ctrl_.engine().config()),
                    options_.repl_min_epoch, options_.repl_fence_lsn,
                    options_.repl_buffer_records},
      &registry_);
  RecoveredState state;
  if (!journal_->open(&state, error)) {
    journal_.reset();
    return false;
  }

  // Recovery = install the snapshot image, then apply each post-snapshot
  // record in append order: the replay a follower runs for a
  // REPL_SNAPSHOT and for each pull.  Every row is checked first, so a
  // bad one refuses the open before the engine sees any.
  std::string why;
  bool ok = check_image(topo_, state.snapshot, &why);
  for (std::size_t i = 0; ok && i < state.records.size(); ++i) {
    ok = check_record(topo_, state.records[i], &why);
  }
  if (!ok) {
    *error = options_.state_dir + ": " + why;
    journal_.reset();
    return false;
  }
  replay_locked(&state.snapshot, state.records);
  recovery_.topology_mutations =
      state.snapshot.faulted.size() +
      std::count_if(state.records.begin(), state.records.end(), is_link);

  recovery_.snapshot_entries = state.snapshot.rows.size();
  recovery_.journal_records = state.records.size();
  recovery_.skipped_records = state.skipped_records;
  recovery_.discarded_bytes = state.discarded_bytes;
  if (!options_.follower) {
    repl_ = std::make_unique<Replicator>();
  }
  return true;
}

void Service::restore_locked(const JournalEntry& e, std::int64_t position) {
  ctrl_.restore(static_cast<topo::NodeId>(e.src),
                static_cast<topo::NodeId>(e.dst),
                static_cast<Priority>(e.priority), e.period, e.length,
                e.deadline, e.handle, static_cast<int>(e.route_order),
                static_cast<StreamId>(position));
}

void Service::replay_locked(const StateImage* image,
                            std::span<const JournalRecord> records) {
  // The one place a replay batch ends: each stream the run restored or
  // disturbed gets its one Cal_U here, and the bounds are settled.
  const auto end_run = [this] { ctrl_.end_batch(); };
  ctrl_.begin_batch();
  if (image != nullptr) {
    // Emptied from the back, so no removal shifts an id.
    while (ctrl_.size() > 0) {
      ctrl_.remove(ctrl_.engine().handle_of(
          static_cast<StreamId>(ctrl_.size() - 1)));
    }
    // Stops at the last faulted channel: no work on a fresh fabric.
    for (topo::ChannelId c = 0; topo_.channels().num_faulted() > 0; ++c) {
      topo_.set_channel_faulted(c, false);
    }
    // Fault flags before the rows: paths with non-primary route orders
    // exist only because of them.
    for (const auto& [src, dst] : image->faulted) {
      topo_.set_channel_faulted(
          topo_.channel_between(static_cast<topo::NodeId>(src),
                                static_cast<topo::NodeId>(dst)),
          true);
    }
    // Each restore forces the recorded handle and route order, so engine
    // order, paths and handle numbering come out exactly as captured.
    for (const JournalEntry& e : image->rows) {
      restore_locked(e);
    }
    // The image's next_handle also covers handles freed by removals
    // above the surviving maximum; records applied later raise it past
    // their own.
    ctrl_.set_next_handle(std::max(ctrl_.next_handle(), image->next_handle));
  }
  for (const JournalRecord& record : records) {
    if (record.type == JournalRecord::Type::kAdd) {
      restore_locked(record.entry);
    } else if (record.type == JournalRecord::Type::kRemove) {
      ctrl_.remove(record.entry.handle);
    } else {
      // The cascade (evict / reroute / recompute) reads settled bounds
      // and batches itself; it is deterministic given the engine state,
      // so applying the one record redoes it bit for bit.
      end_run();
      const topo::ChannelId channel =
          topo_.channel_between(static_cast<topo::NodeId>(record.entry.src),
                                static_cast<topo::NodeId>(record.entry.dst));
      if (record.type == JournalRecord::Type::kLinkDown) {
        ctrl_.link_down(channel);
      } else {
        ctrl_.link_up(channel);
      }
      ctrl_.begin_batch();
    }
  }
  end_run();
}

StateImage Service::capture_state_locked() const {
  const core::IncrementalAnalyzer& engine = ctrl_.engine();
  const core::StreamSet& streams = engine.streams();
  StateImage image;
  image.next_handle = ctrl_.next_handle();
  image.rows.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto id = static_cast<StreamId>(i);
    image.rows.push_back(entry_of(engine.handle_of(id), streams[id]));
  }
  const topo::ChannelGraph& channels = topo_.channels();
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const auto id = static_cast<topo::ChannelId>(i);
    if (channels.is_faulted(id)) {
      const topo::Channel& ch = channels.channel(id);
      image.faulted.emplace_back(ch.src, ch.dst);
    }
  }
  return image;
}

void Service::maybe_compact() {
  if (journal_ == nullptr ||
      journal_->appends_since_snapshot() < options_.compact_every) {
    return;
  }
  std::string err;
  if (!journal_->write_snapshot(capture_state_locked(), &err)) {
    registry_
        .counter("wormrt_journal_compaction_failures_total", {},
                 "Snapshot compactions that failed (journal kept intact).")
        .inc();
  }
}

std::size_t Service::population() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ctrl_.size();
}

Service::Mirrors Service::refresh_mirrors() const {
  const util::ThreadPool::Stats pool = util::ThreadPool::shared().stats();
  registry_
      .gauge("wormrt_threadpool_workers", {},
             "Worker threads of the shared analysis pool.")
      .set(static_cast<double>(pool.workers));
  registry_
      .gauge("wormrt_threadpool_queue_depth", {},
             "Tasks waiting in the shared pool's queue right now.")
      .set(static_cast<double>(pool.queue_depth));
  registry_
      .counter("wormrt_threadpool_tasks_submitted_total", {},
               "Tasks ever submitted to the shared pool.")
      .mirror(pool.tasks_submitted);
  registry_
      .counter("wormrt_threadpool_tasks_executed_total", {},
               "Tasks the shared pool's workers completed.")
      .mirror(pool.tasks_executed);
  registry_
      .counter("wormrt_threadpool_busy_micros_total", {},
               "Wall time workers spent inside tasks, microseconds.")
      .mirror(pool.busy_micros);

  const EngineStats& es = ctrl_.engine().stats();
  for (const EngineCounter& c : kEngineCounters) {
    registry_.counter(c.metric, {}, c.help).mirror(es.*c.field);
  }

  // Channel heatmap gauges, from the engine's maintained channel index.
  // Children are registered lazily on first occupancy and re-zeroed
  // once live, so an emptied channel never freezes at its last value.
  const core::IncrementalAnalyzer& engine = ctrl_.engine();
  std::vector<ChannelLoad> loads;
  for (std::size_t c = 0; c < static_cast<std::size_t>(topo_.num_channels());
       ++c) {
    const auto ch = static_cast<topo::ChannelId>(c);
    const std::vector<core::AdmissionController::Handle> on =
        engine.handles_on_channel(ch);
    if (on.empty() && channel_gauge_live_[c] == 0) {
      continue;
    }
    channel_gauge_live_[c] = 1;
    double util = 0.0;
    for (const auto h : on) {
      const core::MessageStream* s = engine.find(h);
      if (s != nullptr && s->period > 0) {
        util += static_cast<double>(s->length) /
                static_cast<double>(s->period);
      }
    }
    if (!on.empty()) {
      loads.push_back({ch, on.size(), util});
    }
    const obs::Labels labels = {{"channel", std::to_string(c)}};
    registry_
        .gauge("wormrt_channel_streams", labels,
               "Established streams crossing each directed channel "
               "(children appear once a channel is first occupied).")
        .set(static_cast<double>(on.size()));
    registry_
        .gauge("wormrt_channel_utilization", labels,
               "Sum of length/period over the streams crossing each "
               "directed channel.")
        .set(util);
  }

  // Conformance: drop records of departed streams, then mirror sizes.
  std::vector<std::int64_t> live;
  live.reserve(engine.size());
  for (std::size_t i = 0; i < engine.size(); ++i) {
    live.push_back(engine.handle_of(static_cast<StreamId>(i)));
  }
  conformance_.retain(live);
  registry_
      .gauge("wormrt_conformance_tracked_streams", {},
             "Streams with at least one reported latency observation.")
      .set(static_cast<double>(conformance_.size()));

  if (audit_ != nullptr) {
    registry_
        .counter("wormrt_audit_write_failures_total", {},
                 "Audit-log appends that failed (never surfaced to the "
                 "request path).")
        .mirror(audit_->failures());
    registry_
        .counter("wormrt_audit_rotations_total", {},
                 "Audit-log size rotations performed.")
        .mirror(audit_->rotations());
  }

  // Replication mirrors (DESIGN.md §15).
  ReplicationStatus repl = replication_status_locked();
  registry_
      .gauge("wormrt_repl_role", {},
             "Replication role: 0 = primary, 1 = follower.")
      .set(repl.follower ? 1.0 : 0.0);
  registry_
      .gauge("wormrt_repl_epoch", {},
             "Fencing epoch of the local journal (bumped by PROMOTE).")
      .set(static_cast<double>(repl.epoch));
  const auto lag_gauge = [this](const std::string& follower) -> obs::Gauge& {
    return registry_.gauge("wormrt_repl_lag_records", {{"follower", follower}},
                           "Journal records the primary has durable that "
                           "this node has not (follower view).");
  };
  if (repl.follower) {
    registry_
        .gauge("wormrt_repl_connected", {},
               "1 while the follower's pull session is live.")
        .set(repl.connected ? 1.0 : 0.0);
    lag_gauge("self").set(static_cast<double>(repl.lag));
  } else if (repl.serving) {
    registry_
        .gauge("wormrt_repl_followers", {},
               "Followers that have performed the replication handshake.")
        .set(static_cast<double>(repl.followers.size()));
    for (const ReplicationStatus::Follower& f : repl.followers) {
      lag_gauge(f.id).set(static_cast<double>(f.lag));
    }
  }

  metrics_.population.set(static_cast<double>(ctrl_.size()));
  return {std::move(loads), std::move(repl)};
}

Json Service::error_reply(const std::string& what) {
  metrics_.errors.inc();
  Json reply = Json::object();
  reply.set("ok", false);
  reply.set("error", what);
  return reply;
}

std::string Service::handle_line(const std::string& line) {
  // No exception may escape into the connection worker that called us:
  // a malformed or hostile line costs the sender one error reply, never
  // the daemon.  (parse() reports via parse_error, but dispatch runs
  // analysis code whose invariant checks may throw.)
  OBS_SPAN("handle_line");
  try {
    std::string parse_error;
    const Json request = Json::parse(line, &parse_error);
    Json reply;
    if (!parse_error.empty()) {
      reply = error_reply("bad json: " + parse_error);
    } else {
      reply = handle(request);
    }
    return reply.dump();
  } catch (const std::exception& e) {
    return error_reply(std::string("internal error: ") + e.what()).dump();
  } catch (...) {
    return error_reply("internal error").dump();
  }
}

const Service::Verb* Service::verb_of(const Json& request, Json* error) {
  if (!request.is_object()) {
    *error = error_reply("request must be a json object");
    return nullptr;
  }
  const Json* verb = request.get("verb");
  if (verb == nullptr || !verb->is_string()) {
    *error = error_reply("missing verb");
    return nullptr;
  }
  const Verb* row = find_verb(verb->as_string());
  if (row == nullptr) {
    *error = error_reply("unknown verb: " + verb->as_string());
  }
  return row;
}

Json Service::handle(const Json& request) {
  Json error;
  const Verb* verb = verb_of(request, &error);
  if (verb == nullptr) {
    return error;
  }
  // A follower refuses every mutation — replicated state arrives only
  // through apply_replicated — and refuses to serve replication itself.
  if (verb->primary_only && is_follower()) {
    return error_reply("not primary");
  }
  if (verb->lock == Lock::kOwn) {
    return (this->*verb->handler)(request, nullptr);
  }
  if (verb->lock == Lock::kStaged) {
    return std::move(commit({&request, 1}).front());  // a batch of one
  }
  std::lock_guard<std::mutex> lk(mu_);
  return (this->*verb->handler)(request, nullptr);
}

std::vector<Json> Service::commit(std::span<const Json> items) {
  std::vector<Json> replies(items.size());
  std::vector<PendingAck> acks(items.size());
  std::uint64_t last_lsn = 0;
  {
    std::unique_lock<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < items.size(); ++i) {
      Json error;
      const Verb* verb = verb_of(items[i], &error);
      if (verb == nullptr) {
        replies[i] = std::move(error);
      } else if (verb->handler == &Service::do_batch) {
        replies[i] = error_reply("BATCH does not nest");
      } else if (verb->lock == Lock::kOwn) {  // needs its own hold of mu_
        replies[i] = error_reply(std::string(verb->name) + " is not batchable");
      } else {
        replies[i] = (this->*verb->handler)(items[i], &acks[i]);
        last_lsn = std::max(last_lsn, acks[i].lsn);
      }
    }
    maybe_compact();
    // Group commit: the wait runs with mu_ released, so concurrent
    // mutations stage into the same leader fsync, and one wait covers
    // every staged sub-request.
    lk.unlock();
    std::string err;
    if (last_lsn != 0 && !journal_->wait_durable(last_lsn, &err)) {
      lk.lock();
      roll_back_failed_locked();
    }
  }
  // Per-sub-request fixup.  wait_durable() is instant here — every
  // LSN <= last_lsn is already resolved — and, unlike a durable_lsn()
  // comparison, it reports an LSN inside a failed range honestly even
  // after a later batch advanced the watermark past it.
  std::uint64_t sync_lsn = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    PendingAck& ack = acks[i];
    std::string err;
    const bool durable = ack.lsn == 0 || journal_->wait_durable(ack.lsn, &err);
    if (!durable) {
      replies[i] = error_reply(
          std::string(ack.is_add ? "admission" : "teardown") +
          " not durable: " + err);
    } else if (ack.lsn != 0) {
      if (ack.is_add) {
        metrics_.admitted.inc();
      }
      sync_lsn = std::max(sync_lsn, ack.lsn);
    }
    if (!ack.audit.is_null()) {
      // AuditLog synchronises itself: written outside mu_, with the
      // durability outcome stamped in.
      if (ack.lsn != 0) {
        ack.audit.set("lsn", static_cast<std::int64_t>(ack.lsn));
        ack.audit.set("durable", durable);
      }
      audit_->append(std::move(ack.audit));
    }
  }
  if (sync_lsn != 0) {
    // One follower-durability wait covers the whole batch.
    sync_replication_wait(sync_lsn);
  }
  return replies;
}

void Service::roll_back_failed_locked() {
  if (journal_ == nullptr) {
    return;
  }
  const std::vector<JournalRecord> failed = journal_->take_failed();
  if (failed.empty()) {
    return;  // the common case: no batch, no work
  }
  // Undo newest-first: each unadmit() then reverses the engine's most
  // recent admission, and each rolled-back REMOVE goes back to the
  // engine position it had, so the live order is the journal's.  One
  // batch recomputes each disturbed survivor once.
  ctrl_.begin_batch();
  for (const JournalRecord& m : failed) {
    if (m.type == JournalRecord::Type::kAdd) {
      ctrl_.unadmit(m.entry.handle);
    } else if (m.type == JournalRecord::Type::kRemove) {
      restore_locked(m.entry, m.position);
    }  // A link record fails before its cascade runs: nothing to undo.
  }
  ctrl_.end_batch();
}

Json Service::provenance_json(const core::BoundProvenance& p) {
  Json out = Json::object();
  out.set("bound", p.bound);
  out.set("deadline", p.deadline);
  out.set("base_latency", p.base_latency);
  out.set("interference", p.interference);
  out.set("horizon", p.horizon_used);
  out.set("doublings", static_cast<std::int64_t>(p.horizon_doublings));
  out.set("suppressed_instances",
          static_cast<std::int64_t>(p.suppressed_instances));
  out.set("deadline_pruned", p.deadline_pruned);
  Json terms = Json::array();
  for (const core::InterferenceTerm& t : p.terms) {
    Json term = Json::object();
    term.set("stream", t.id);
    term.set("priority", static_cast<std::int64_t>(t.priority));
    term.set("mode", t.mode == core::BlockMode::kDirect ? "direct"
                                                        : "indirect");
    term.set("period", t.period);
    term.set("length", t.length);
    term.set("slots", t.slots);
    term.set("instances", static_cast<std::int64_t>(t.instances));
    term.set("suppressed", static_cast<std::int64_t>(t.suppressed));
    terms.push_back(std::move(term));
  }
  out.set("terms", std::move(terms));
  out.set("text", p.render());
  return out;
}

Json Service::do_request_locked(const Json& request, PendingAck* ack) {
  OBS_SPAN("verb_request");
  std::int64_t src = 0, dst = 0, priority = 0, period = 0, length = 0,
               deadline = 0;
  if (!req_int(request, "src", &src) || !req_int(request, "dst", &dst) ||
      !req_int(request, "priority", &priority) ||
      !req_int(request, "period", &period) ||
      !req_int(request, "length", &length) ||
      !req_int(request, "deadline", &deadline)) {
    return error_reply(
        "REQUEST needs integer src, dst, priority, period, length, deadline");
  }
  if (src < 0 || src >= topo_.num_nodes() || dst < 0 ||
      dst >= topo_.num_nodes()) {
    return error_reply("node id out of range");
  }
  if (src == dst) {
    return error_reply("source equals destination");
  }
  if (period <= 0 || length <= 0 || deadline <= 0) {
    return error_reply("period, length, deadline must be positive");
  }
  const Json* ex = request.get("explain");
  const bool want_explain = ex != nullptr && ex->as_bool();

  // Never decide against state a failed commit is about to unwind.
  roll_back_failed_locked();

  core::BoundProvenance provenance;
  const double t0 = now_us();
  const auto decision = ctrl_.request(
      static_cast<topo::NodeId>(src), static_cast<topo::NodeId>(dst),
      static_cast<Priority>(priority), period, length, deadline,
      want_explain ? &provenance : nullptr);
  metrics_.latency_us.observe(now_us() - t0);
  metrics_.served[served_row("REQUEST")]->inc();

  if (!decision.admitted) {
    metrics_.rejected.inc();
  } else if (journal_ == nullptr) {
    metrics_.admitted.inc();
  } else {
    // Write-ahead contract: the admission is acknowledged only once its
    // journal record is durable.  The record is staged here, inside the
    // same critical section that applied the admission (LSN order ==
    // apply order, which replay depends on); the durability wait runs
    // after mu_ is released so concurrent admissions share one fsync.
    std::string err;
    if (!journal_->stage(
            JournalRecord::Type::kAdd,
            entry_of(decision.handle, *ctrl_.engine().find(decision.handle)),
            &ack->lsn, &err)) {
      ctrl_.unadmit(decision.handle);
      return error_reply("admission not durable: " + err);
    }
    ack->is_add = true;
  }

  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("admitted", decision.admitted);
  reply.set("bound", decision.bound);
  reply.set("flit_valid", decision.flit_valid);
  if (decision.no_route) {
    reply.set("no_route", true);
  }
  if (decision.admitted) {
    reply.set("handle", decision.handle);
    reply.set("route_order", static_cast<std::int64_t>(decision.route_order));
  }
  reply.set("would_break", handles_json(decision.would_break));
  if (want_explain) {
    reply.set("explain", provenance_json(provenance));
  }

  if (audit_ != nullptr) {
    // Drafted here (all the decision context is in scope), written by
    // commit() once the covering commit settles — the audit line
    // records whether the ack actually went out durable.  It
    // carries the request's fields, then the reply's decision fields
    // (an empty would_break list left out).
    Json rec = Json::object();
    rec.set("event", "request");
    rec.set("admitted", decision.admitted);
    for (const char* key :
         {"src", "dst", "priority", "period", "length", "deadline"}) {
      rec.set(key, *request.get(key));
    }
    for (const char* key : {"bound", "flit_valid", "no_route", "would_break",
                            "handle", "route_order", "explain"}) {
      const Json* v = reply.get(key);
      if (v != nullptr && !(v->is_array() && v->size() == 0)) {
        rec.set(key, *v);
      }
    }
    ack->audit = std::move(rec);
  }
  return reply;
}

Json Service::do_remove_locked(const Json& request, PendingAck* ack) {
  std::int64_t handle = 0;
  if (!req_int(request, "handle", &handle)) {
    return error_reply("REMOVE needs integer handle");
  }
  metrics_.served[served_row("REMOVE")]->inc();
  roll_back_failed_locked();
  const core::MessageStream* stream = ctrl_.engine().find(handle);
  if (journal_ != nullptr && stream != nullptr) {
    // Journal the teardown BEFORE applying it, so a stage failure
    // leaves the engine untouched; the journal's tail keeps the full
    // parameter block and the engine position (not on disk — REMOVE
    // records stay handle-only) so a failed commit can restore the
    // stream where it was.
    std::string err;
    if (!journal_->stage(JournalRecord::Type::kRemove,
                         entry_of(handle, *stream), &ack->lsn, &err,
                         ctrl_.engine().id_of(handle))) {
      return error_reply("teardown not durable: " + err);
    }
  }
  const bool removed = ctrl_.remove(handle);
  if (audit_ != nullptr && removed) {
    Json rec = Json::object();
    rec.set("event", "remove");
    rec.set("handle", handle);
    ack->audit = std::move(rec);
  }
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("removed", removed);
  return reply;
}

Json Service::do_batch(const Json& request, PendingAck*) {
  OBS_SPAN("verb_batch");
  const Json* reqs = request.get("requests");
  if (reqs == nullptr || !reqs->is_array()) {
    return error_reply("BATCH needs a requests array");
  }
  const std::vector<Json>& items = reqs->items();
  constexpr std::size_t kMaxBatch = 4096;
  if (items.size() > kMaxBatch) {
    return error_reply("BATCH too large (max 4096 sub-requests)");
  }
  Json replies = Json::array();
  for (Json& r : commit(items)) {
    replies.push_back(std::move(r));
  }
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("replies", std::move(replies));
  return reply;
}

Json Service::do_link(const Json& request, bool down) {
  OBS_SPAN(down ? "verb_link_down" : "verb_link_up");
  std::unique_lock<std::mutex> lk(mu_);
  metrics_.served[down ? served_row("LINK_DOWN") : served_row("LINK_UP")]
      ->inc();

  // Channel addressing: {channel} by id, or {src,dst} by endpoints.
  topo::ChannelId channel = topo::kNoChannel;
  std::int64_t id = 0, src = 0, dst = 0;
  if (req_int(request, "channel", &id)) {
    if (id < 0 || id >= static_cast<std::int64_t>(topo_.num_channels())) {
      return error_reply("channel id out of range");
    }
    channel = static_cast<topo::ChannelId>(id);
  } else if (req_int(request, "src", &src) && req_int(request, "dst", &dst)) {
    if (src < 0 || src >= topo_.num_nodes() || dst < 0 ||
        dst >= topo_.num_nodes()) {
      return error_reply("node id out of range");
    }
    channel = topo_.channel_between(static_cast<topo::NodeId>(src),
                                    static_cast<topo::NodeId>(dst));
    if (channel == topo::kNoChannel) {
      return error_reply("no channel " + std::to_string(src) + "->" +
                         std::to_string(dst) + " in this topology");
    }
  } else {
    return error_reply(std::string(down ? "LINK_DOWN" : "LINK_UP") +
                       " needs integer channel, or integer src and dst");
  }
  const topo::Channel& endpoints = topo_.channels().channel(channel);

  // Never decide against state a failed commit is about to unwind.
  roll_back_failed_locked();

  // A no-op mutation (taking down a faulted channel, repairing a healthy
  // one) is an error and is NOT journaled — replay therefore never sees
  // no-op link records, keeping the cascade replay deterministic.
  if (topo_.channel_faulted(channel) == down) {
    return error_reply(std::string("channel ") + std::to_string(channel) +
                       (down ? " is already down" : " is already up"));
  }

  std::uint64_t lsn = 0;
  if (journal_ != nullptr) {
    // Write-ahead, strictly: the record is made durable UNDER mu_
    // before the cascade mutates anything.  On failure nothing was
    // applied, so only concurrently staged mutations need rolling back.
    JournalEntry e;
    e.src = endpoints.src;
    e.dst = endpoints.dst;
    std::string err;
    if (!journal_->stage(down ? JournalRecord::Type::kLinkDown
                              : JournalRecord::Type::kLinkUp,
                         e, &lsn, &err) ||
        !journal_->wait_durable(lsn, &err)) {
      roll_back_failed_locked();
      return error_reply("link mutation not durable: " + err);
    }
  }

  const core::AdmissionController::LinkMutation m =
      down ? ctrl_.link_down(channel) : ctrl_.link_up(channel);
  metrics_.link_evicted.inc(m.evicted.size());
  metrics_.link_rerouted.inc(m.rerouted.size());
  maybe_compact();

  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("channel", static_cast<std::int64_t>(channel));
  reply.set("src", static_cast<std::int64_t>(endpoints.src));
  reply.set("dst", static_cast<std::int64_t>(endpoints.dst));
  reply.set("changed", m.changed);
  reply.set("evicted", handles_json(m.evicted));
  reply.set("rerouted", handles_json(m.rerouted));
  reply.set("recomputed", static_cast<std::int64_t>(m.recomputed.size()));

  if (audit_ != nullptr) {
    // Written under mu_ — acceptable for the rare, already-serialised
    // link verbs (the record is durable-before-apply anyway).
    Json rec = Json::object();
    rec.set("event", down ? "link_down" : "link_up");
    for (const char* key :
         {"channel", "src", "dst", "evicted", "rerouted", "recomputed"}) {
      rec.set(key, *reply.get(key));
    }
    if (lsn != 0) {
      rec.set("lsn", static_cast<std::int64_t>(lsn));
      rec.set("durable", true);
    }
    audit_->append(std::move(rec));
  }
  lk.unlock();
  if (lsn != 0) {
    sync_replication_wait(lsn);
  }
  return reply;
}

Json Service::do_query_locked(const Json& request, PendingAck*) {
  std::int64_t handle = 0;
  if (!req_int(request, "handle", &handle)) {
    return error_reply("QUERY needs integer handle");
  }
  metrics_.served[served_row("QUERY")]->inc();
  const auto bound = ctrl_.bound_of(handle);
  if (!bound.has_value()) {
    return error_reply("unknown handle");
  }
  const auto* stream = ctrl_.engine().find(handle);
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("bound", *bound);
  reply.set("deadline", stream->deadline);
  reply.set("guaranteed", *bound != kNoTime && *bound <= stream->deadline);
  return reply;
}

Json Service::do_explain_locked(const Json& request, PendingAck*) {
  OBS_SPAN("verb_explain");
  std::int64_t handle = 0;
  if (!req_int(request, "handle", &handle)) {
    return error_reply("EXPLAIN needs integer handle");
  }
  metrics_.served[served_row("EXPLAIN")]->inc();
  const auto provenance = ctrl_.explain(handle);
  if (!provenance.has_value()) {
    return error_reply("unknown handle");
  }
  Json reply = provenance_json(*provenance);
  reply.set("ok", true);
  reply.set("handle", handle);
  return reply;
}

Json Service::do_snapshot_locked(const Json&, PendingAck*) {
  metrics_.served[served_row("SNAPSHOT")]->inc();
  const core::StreamSet streams = ctrl_.snapshot();
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("size", static_cast<std::int64_t>(streams.size()));
  reply.set("csv", core::streams_to_csv(streams));
  return reply;
}

Json Service::do_shutdown_locked(const Json&, PendingAck*) {
  shutdown_.store(true, std::memory_order_release);
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("shutting_down", true);
  return reply;
}

Json Service::do_metrics_locked(const Json&, PendingAck*) {
  metrics_.served[served_row("METRICS")]->inc();
  refresh_mirrors();
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("prometheus", registry_.to_prometheus());
  reply.set("metrics", registry_.to_json());
  return reply;
}

bool Service::report_one_locked(std::int64_t handle, double observed,
                                Json* out) {
  const core::MessageStream* stream = ctrl_.engine().find(handle);
  if (stream == nullptr) {
    return false;
  }
  // Always the engine's CURRENT bound: a cached copy would go stale
  // whenever a later mutation's dirty closure recomputes this stream.
  const Time bound = ctrl_.engine().bound_at(ctrl_.engine().id_of(handle));
  const bool flit_valid = core::flit_valid(bound, stream->period);
  const obs::ConformanceMonitor::Outcome outcome = conformance_.report(
      handle, observed, static_cast<double>(bound),
      static_cast<double>(stream->period), flit_valid);
  out->set("handle", handle);
  out->set("observed_latency", observed);
  out->set("bound", bound);
  out->set("flit_valid", flit_valid);
  out->set("violation", outcome.violation);
  out->set("max_observed", outcome.max_observed);
  out->set("violations", static_cast<std::int64_t>(outcome.violations));
  return true;
}

Json Service::do_report_locked(const Json& request, PendingAck*) {
  metrics_.served[served_row("REPORT")]->inc();
  const Json* reports = request.get("reports");
  if (reports != nullptr) {
    // Array form: one round trip for a whole measurement sweep.
    // Unknown handles (e.g. removed since the harness sampled) are
    // counted, not errors — the rest of the sweep still lands.
    if (!reports->is_array()) {
      return error_reply("REPORT reports must be an array");
    }
    std::int64_t accepted = 0, unknown = 0, violations = 0;
    for (const Json& item : reports->items()) {
      std::int64_t handle = 0;
      const Json* observed = item.is_object() ? item.get("observed_latency")
                                              : nullptr;
      if (!item.is_object() || !req_int(item, "handle", &handle) ||
          observed == nullptr || !observed->is_number()) {
        return error_reply(
            "REPORT reports entries need integer handle and numeric "
            "observed_latency");
      }
      Json one = Json::object();
      if (!report_one_locked(handle, observed->as_double(), &one)) {
        ++unknown;
        continue;
      }
      ++accepted;
      const Json* v = one.get("violation");
      if (v != nullptr && v->as_bool()) {
        ++violations;
      }
    }
    Json reply = Json::object();
    reply.set("ok", true);
    reply.set("accepted", accepted);
    reply.set("unknown", unknown);
    reply.set("violations", violations);
    return reply;
  }
  std::int64_t handle = 0;
  const Json* observed = request.get("observed_latency");
  if (!req_int(request, "handle", &handle) || observed == nullptr ||
      !observed->is_number()) {
    return error_reply(
        "REPORT needs integer handle and numeric observed_latency (or a "
        "reports array)");
  }
  Json reply = Json::object();
  if (!report_one_locked(handle, observed->as_double(), &reply)) {
    return error_reply("unknown handle");
  }
  reply.set("ok", true);
  return reply;
}

std::string Service::health_status_locked(const ReplicationStatus& repl,
                                          std::vector<std::string>* reasons,
                                          Json* checks) const {
  // Thresholds: conservative constants, documented in DESIGN.md §14.
  // "critical" is reserved for lost durability — the daemon is up but
  // its contract is broken; everything else degrades.
  constexpr double kFsyncP99DegradedUs = 25000.0;  // half the ladder
  constexpr double kQueueDepthPerWorker = 4.0;

  bool critical = false;
  const auto degrade = [reasons](const std::string& why) {
    reasons->push_back(why);
  };

  const std::uint64_t violations = conformance_.total_violations();
  checks->set("bound_violations", static_cast<std::int64_t>(violations));
  if (violations > 0) {
    degrade("bound_violations: " + std::to_string(violations) +
            " reported latencies exceeded the analytic bound");
  }

  const std::size_t faulted = topo_.channels().num_faulted();
  checks->set("faulted_channels", static_cast<std::int64_t>(faulted));
  if (faulted > 0) {
    degrade("faulted_links: " + std::to_string(faulted) +
            " channels are marked down");
  }

  if (journal_ != nullptr) {
    const std::uint64_t failed = journal_->failed_through();
    checks->set("journal_failed_lsn", static_cast<std::int64_t>(failed));
    if (failed > 0) {
      critical = true;
      degrade("journal_commit_failed: mutations through LSN " +
              std::to_string(failed) + " could not be made durable");
    }
    const obs::Histogram& fsync = Journal::fsync_histogram(registry_);
    const double p99 = fsync.count() > 0 ? fsync.p99() : 0.0;
    checks->set("fsync_p99_us", p99);
    if (p99 > kFsyncP99DegradedUs) {
      degrade("journal_fsync_p99_high: " + std::to_string(p99) + "us");
    }
    const std::uint64_t compaction_failures =
        registry_.counter("wormrt_journal_compaction_failures_total", {})
            .value();
    checks->set("compaction_failures",
                static_cast<std::int64_t>(compaction_failures));
    if (compaction_failures > 0) {
      degrade("journal_compaction_failures: " +
              std::to_string(compaction_failures));
    }
  }

  const util::ThreadPool::Stats pool = util::ThreadPool::shared().stats();
  checks->set("threadpool_queue_depth",
              static_cast<std::int64_t>(pool.queue_depth));
  if (pool.workers > 0 &&
      static_cast<double>(pool.queue_depth) >
          kQueueDepthPerWorker * static_cast<double>(pool.workers)) {
    degrade("dispatch_queue_deep: " + std::to_string(pool.queue_depth) +
            " tasks queued over " + std::to_string(pool.workers) +
            " workers");
  }

  checks->set("sheds_total", sheds_total());
  // Sheds degrade only while they are RECENT (the last minute of
  // history): a shed an hour ago must not fail today's readiness probe.
  const obs::TimeSeries* shed_series = sampler_.find("sheds_total");
  if (shed_series != nullptr) {
    const auto window = shed_series->window(sampler_.now_ms() - 60000);
    if (window.size() >= 2 &&
        window.back().value > window.front().value) {
      degrade("connections_shed_recently: " +
              std::to_string(static_cast<std::int64_t>(
                  window.back().value - window.front().value)) +
              " in the last minute");
    }
  }

  if (audit_ != nullptr && audit_->failures() > 0) {
    degrade("audit_write_failures: " + std::to_string(audit_->failures()));
  }

  // Replication (DESIGN.md §15).  Either role degrades when it trails by
  // more than the configured record budget: a follower its primary, a
  // primary through its slowest follower.  A follower also degrades
  // when its pull session is down; a primary when --sync-replication
  // acks had to go out without follower coverage.
  if (repl.follower || repl.serving) {
    checks->set("replication_lag", static_cast<std::int64_t>(repl.lag));
  }
  if (repl.follower && !repl.connected) {
    degrade("replication_disconnected: the pull session to the primary "
            "is down");
  }
  if (repl.lag > options_.repl_lag_degraded) {
    const std::string lag = std::to_string(repl.lag);
    degrade("replication_lag_high: " +
            (repl.follower ? lag + " records behind the primary"
                           : "slowest follower is " + lag + " records behind") +
            " (budget " + std::to_string(options_.repl_lag_degraded) + ")");
  }
  // Read on every journaled primary: the read registers the counter,
  // and METRICS lists it from a primary's first HEALTH on.
  if (repl.serving) {
    const std::uint64_t timeouts = sync_timeouts().value();
    if (options_.sync_replication && timeouts > 0) {
      degrade("replication_sync_timeouts: " + std::to_string(timeouts) +
              " acks degraded to async replication");
    }
  }

  if (critical) {
    return "critical";
  }
  return reasons->empty() ? "ok" : "degraded";
}

Json Service::do_health_locked(const Json&, PendingAck*) {
  OBS_SPAN("verb_health");
  metrics_.served[served_row("HEALTH")]->inc();
  Mirrors mirrors = refresh_mirrors();
  const ReplicationStatus& repl = mirrors.replication;

  std::vector<std::string> reasons;
  Json checks = Json::object();
  const std::string status = health_status_locked(repl, &reasons, &checks);

  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("status", status);
  Json reasons_json = Json::array();
  for (const std::string& r : reasons) {
    reasons_json.push_back(r);
  }
  reply.set("reasons", std::move(reasons_json));
  checks.set("population", static_cast<std::int64_t>(ctrl_.size()));
  reply.set("checks", std::move(checks));

  // Replication identity + progress, for wormrt-top and the smoke
  // scripts (role, epoch and durable LSN alone on a journal-less primary).
  Json replication = Json::object();
  replication.set("role", repl.follower ? "follower" : "primary");
  replication.set("epoch", static_cast<std::int64_t>(repl.epoch));
  replication.set("durable_lsn", static_cast<std::int64_t>(repl.durable_lsn));
  if (repl.follower) {
    replication.set("connected", repl.connected);
    replication.set("primary_durable_lsn",
                    static_cast<std::int64_t>(repl.primary_durable_lsn));
    replication.set("primary_epoch",
                    static_cast<std::int64_t>(repl.primary_epoch));
  } else if (repl.serving) {
    replication.set("sync", options_.sync_replication);
    Json followers = Json::array();
    for (const ReplicationStatus::Follower& f : repl.followers) {
      Json follower = Json::object();
      follower.set("id", f.id);
      follower.set("durable_lsn", static_cast<std::int64_t>(f.durable_lsn));
      follower.set("lag", static_cast<std::int64_t>(f.lag));
      follower.set("last_seen_ms", f.last_seen_ms);
      followers.push_back(std::move(follower));
    }
    replication.set("followers", std::move(followers));
  }
  reply.set("replication", std::move(replication));

  // Conformance: every established stream with its CURRENT bound and
  // slack, joined with the monitor's observations, tightest slack
  // first (the wormrt-top "top-N streams by slack" feed), capped.
  constexpr std::size_t kMaxStreams = 32;
  std::map<std::int64_t, obs::ConformanceMonitor::Record> observed;
  for (const obs::ConformanceMonitor::Record& rec : conformance_.records()) {
    observed[rec.handle] = rec;
  }
  const core::IncrementalAnalyzer& engine = ctrl_.engine();
  struct Row {
    std::int64_t handle;
    Time bound;
    Time period;
    Time slack;
    bool flit_valid;
  };
  std::vector<Row> rows;
  rows.reserve(engine.size());
  for (std::size_t i = 0; i < engine.size(); ++i) {
    const auto id = static_cast<StreamId>(i);
    const Time bound = engine.bound_at(id);
    const Time period = engine.streams()[id].period;
    Row row;
    row.handle = engine.handle_of(id);
    row.bound = bound;
    row.period = period;
    row.slack = bound == kNoTime ? kNoTime : period - bound;
    row.flit_valid = core::flit_valid(bound, period);
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    // Unbounded streams (kNoTime) carry no claim — sort them last.
    const Time sa = a.bound == kNoTime
                        ? std::numeric_limits<Time>::max()
                        : a.slack;
    const Time sb = b.bound == kNoTime
                        ? std::numeric_limits<Time>::max()
                        : b.slack;
    if (sa != sb) {
      return sa < sb;
    }
    return a.handle < b.handle;
  });
  Json conformance = Json::object();
  conformance.set("tracked", static_cast<std::int64_t>(conformance_.size()));
  conformance.set("violations",
                  static_cast<std::int64_t>(conformance_.total_violations()));
  Json streams = Json::array();
  for (std::size_t i = 0; i < rows.size() && i < kMaxStreams; ++i) {
    const Row& row = rows[i];
    Json s = Json::object();
    s.set("handle", row.handle);
    s.set("bound", row.bound);
    s.set("period", row.period);
    s.set("slack", row.slack);
    s.set("flit_valid", row.flit_valid);
    const auto it = observed.find(row.handle);
    if (it != observed.end()) {
      s.set("max_observed", it->second.max_observed);
      s.set("reports", static_cast<std::int64_t>(it->second.reports));
      s.set("violations", static_cast<std::int64_t>(it->second.violations));
    }
    streams.push_back(std::move(s));
  }
  conformance.set("streams", std::move(streams));
  reply.set("conformance", std::move(conformance));

  // Channel heatmap summary: the busiest channels by utilization
  // (sum of length/period of the streams crossing each), from the loads
  // refresh_mirrors() just gauged.
  constexpr std::size_t kMaxChannels = 16;
  std::vector<ChannelLoad>& busy = mirrors.loads;
  std::sort(busy.begin(), busy.end(),
            [](const ChannelLoad& a, const ChannelLoad& b) {
              if (a.utilization != b.utilization) {
                return a.utilization > b.utilization;
              }
              return a.channel < b.channel;
            });
  Json channels_json = Json::object();
  channels_json.set("count",
                    static_cast<std::int64_t>(topo_.num_channels()));
  channels_json.set("occupied", static_cast<std::int64_t>(busy.size()));
  Json busiest = Json::array();
  for (std::size_t i = 0; i < busy.size() && i < kMaxChannels; ++i) {
    const topo::Channel& endpoints = topo_.channels().channel(busy[i].channel);
    Json c = Json::object();
    c.set("channel", static_cast<std::int64_t>(busy[i].channel));
    c.set("src", static_cast<std::int64_t>(endpoints.src));
    c.set("dst", static_cast<std::int64_t>(endpoints.dst));
    c.set("streams", static_cast<std::int64_t>(busy[i].streams));
    c.set("utilization", busy[i].utilization);
    busiest.push_back(std::move(c));
  }
  channels_json.set("busiest", std::move(busiest));
  reply.set("channels", std::move(channels_json));
  return reply;
}

Json Service::do_history_locked(const Json& request, PendingAck*) {
  metrics_.served[served_row("HISTORY")]->inc();
  const Json* series_filter = request.get("series");
  if (series_filter != nullptr && !series_filter->is_array()) {
    return error_reply("HISTORY series must be an array of names");
  }
  std::int64_t since_ms = 0;
  const Json* window = request.get("window_ms");
  if (window != nullptr) {
    if (!window->is_int() || window->as_int() < 0) {
      return error_reply("HISTORY window_ms must be a non-negative integer");
    }
    since_ms = sampler_.now_ms() - window->as_int();
  }
  const auto wanted = [series_filter](const std::string& name) {
    if (series_filter == nullptr) {
      return true;
    }
    for (const Json& n : series_filter->items()) {
      if (n.is_string() && n.as_string() == name) {
        return true;
      }
    }
    return false;
  };
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("interval_ms",
            static_cast<std::int64_t>(sampler_.interval_ms()));
  reply.set("now_ms", sampler_.now_ms());
  Json out = Json::array();
  for (const obs::TimeSeries* ts : sampler_.series()) {
    if (!wanted(ts->name())) {
      continue;
    }
    Json series = Json::object();
    series.set("name", ts->name());
    Json samples = Json::array();
    for (const obs::TimeSeries::Sample& s : ts->window(since_ms)) {
      Json pair = Json::array();
      pair.push_back(s.t_ms);
      pair.push_back(s.value);
      samples.push_back(std::move(pair));
    }
    series.set("samples", std::move(samples));
    out.push_back(std::move(series));
  }
  reply.set("series", std::move(out));
  return reply;
}

std::uint64_t Service::durable_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return journal_ != nullptr ? journal_->durable_lsn() : 0;
}

std::uint64_t Service::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return journal_ != nullptr ? journal_->epoch() : 1;
}

void Service::set_promote_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lk(promote_mu_);
  promote_hook_ = std::move(hook);
}

void Service::note_replica_progress(std::uint64_t primary_durable,
                                    std::uint64_t primary_epoch,
                                    bool connected) {
  replica_primary_durable_.store(primary_durable, std::memory_order_relaxed);
  replica_primary_epoch_.store(primary_epoch, std::memory_order_relaxed);
  replica_connected_.store(connected, std::memory_order_relaxed);
}

void Service::sync_replication_wait(std::uint64_t lsn) {
  if (!options_.sync_replication || is_follower()) {
    return;
  }
  Replicator* repl = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    repl = repl_.get();
  }
  if (repl != nullptr &&
      !repl->wait_follower_durable(lsn,
                                   options_.sync_replication_timeout_ms)) {
    // Semi-synchronous degrade: the mutation is durable locally and
    // will ship when a follower catches up, but this ack went out
    // without follower coverage — counted, and HEALTH says so.
    sync_timeouts().inc();
  }
}

bool Service::apply_replicated(std::span<const JournalRecord> records,
                               std::string* error) {
  if (records.empty()) {
    return true;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!is_follower()) {
    *error = "not a follower";
    return false;
  }
  if (journal_ == nullptr) {
    *error = "follower requires a state dir";
    return false;
  }
  // WAL discipline, same as the primary: journal first (under the
  // primary's LSNs, the whole pull in one commit), engine second
  // through recovery's own replay — the durable LSN this follower
  // acks in its next pull must never run ahead of its disk.  A record
  // check_record refuses fails the pull before any of it is journaled,
  // so the disk never runs ahead of the engine either.
  for (const JournalRecord& record : records) {
    if (!check_record(topo_, record, error)) {
      return false;
    }
  }
  if (!journal_->append_replica(records, error)) {
    return false;
  }
  replay_locked(nullptr, records);
  registry_
      .counter("wormrt_repl_records_applied_total", {},
               "Replicated journal records applied on this follower.")
      .inc(records.size());
  // One audit line per replicated record, carrying the primary's LSN —
  // the smoke test diffs (lsn, event, handle) against the primary's
  // audit log to prove decision-history equality.
  static constexpr const char* kEvents[] = {
      nullptr, "replicated_add", "replicated_remove", "replicated_link_down",
      "replicated_link_up"};  // by record type
  for (std::size_t i = 0; audit_ != nullptr && i < records.size(); ++i) {
    const JournalRecord& record = records[i];
    Json rec = Json::object();
    rec.set("event", kEvents[static_cast<int>(record.type)]);
    if (!is_link(record)) {
      rec.set("handle", record.entry.handle);
    } else {
      rec.set("channel", static_cast<std::int64_t>(topo_.channel_between(
                             static_cast<topo::NodeId>(record.entry.src),
                             static_cast<topo::NodeId>(record.entry.dst))));
      rec.set("src", record.entry.src);
      rec.set("dst", record.entry.dst);
    }
    rec.set("lsn", static_cast<std::int64_t>(record.lsn));
    rec.set("durable", true);
    audit_->append(std::move(rec));
  }
  maybe_compact();
  return true;
}

bool Service::bootstrap_replicated(std::uint64_t last_lsn,
                                   std::uint64_t snapshot_epoch,
                                   const StateImage& image,
                                   std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!is_follower()) {
    *error = "not a follower";
    return false;
  }
  if (journal_ == nullptr) {
    *error = "follower requires a state dir";
    return false;
  }
  // A bad row or fault pair refuses the image before anything is made
  // durable.  Then the durable install (tmp+fsync->rename; the WAL is
  // truncated and the LSN cursor moves to last_lsn+1), then the engine
  // takes the same image through recovery's own replay.
  if (!check_image(topo_, image, error) ||
      !journal_->install_snapshot(last_lsn, snapshot_epoch, image, error)) {
    return false;
  }
  replay_locked(&image, {});
  registry_
      .counter("wormrt_repl_snapshots_installed_total", {},
               "Replication bootstrap snapshots installed on this "
               "follower.")
      .inc();
  if (audit_ != nullptr) {
    Json rec = Json::object();
    rec.set("event", "replicated_bootstrap");
    rec.set("lsn", static_cast<std::int64_t>(last_lsn));
    rec.set("epoch", static_cast<std::int64_t>(snapshot_epoch));
    rec.set("entries", static_cast<std::int64_t>(image.rows.size()));
    audit_->append(std::move(rec));
  }
  return true;
}

Json Service::do_repl_hello(const Json& request, PendingAck*) {
  std::int64_t follower_fp = 0, follower_epoch = 0, follower_durable = 0;
  req_int(request, "fingerprint", &follower_fp);
  req_int(request, "epoch", &follower_epoch);
  req_int(request, "durable_lsn", &follower_durable);

  std::lock_guard<std::mutex> lk(mu_);
  if (journal_ == nullptr || repl_ == nullptr) {
    return error_reply("replication requires a state dir");
  }
  if (follower_fp != 0 &&
      static_cast<std::uint64_t>(follower_fp) !=
          core::contract_fingerprint(topo_, ctrl_.engine().config())) {
    return error_reply(
        std::string("fingerprint mismatch: follower state was issued "
                    "under a different fabric contract (it covers ") +
        core::kContractSettings + ")");
  }
  const std::uint64_t primary_epoch = journal_->epoch();
  const std::uint64_t primary_durable = journal_->durable_lsn();
  const std::uint64_t f_epoch =
      follower_epoch > 0 ? static_cast<std::uint64_t>(follower_epoch) : 1;
  const std::uint64_t f_durable =
      follower_durable > 0 ? static_cast<std::uint64_t>(follower_durable)
                           : 0;
  // A follower needs a snapshot when its durable LSN predates the
  // tail's floor (those records are gone from memory), or when it
  // carries a deposed epoch's tail past the fence (its local open
  // refused that state; the snapshot replaces it wholesale).
  bool snapshot_needed = f_durable < journal_->floor_lsn();
  if (f_epoch < primary_epoch && f_durable > repl_->fence_lsn()) {
    snapshot_needed = true;
  }
  // Deliberately NOT registered in the follower table here: only
  // REPL_PULL does that.  A pre-flight probe (or a follower that
  // handshakes and dies) must not become a permanently-lagging phantom
  // in the lag gauges and --sync-replication waits.
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("epoch", static_cast<std::int64_t>(primary_epoch));
  reply.set("fence_lsn", static_cast<std::int64_t>(repl_->fence_lsn()));
  reply.set("durable_lsn", static_cast<std::int64_t>(primary_durable));
  reply.set("snapshot_needed", snapshot_needed);
  return reply;
}

Json Service::do_repl_snapshot(const Json&, PendingAck*) {
  std::lock_guard<std::mutex> lk(mu_);
  if (journal_ == nullptr) {
    return error_reply("replication requires a state dir");
  }
  // The shipped state must be a durable cut: resolve everything staged
  // (waiting under mu_ is fine for this rare verb, exactly like
  // LINK_*), roll back failures, and serve engine == durable state.
  std::string err;
  static_cast<void>(journal_->flush_staged(&err));
  roll_back_failed_locked();
  Json reply = encode_snapshot_reply(journal_->durable_lsn(),
                                     journal_->epoch(),
                                     capture_state_locked());
  registry_
      .counter("wormrt_repl_snapshots_shipped_total", {},
               "Replication bootstrap snapshots served to followers.")
      .inc();
  return reply;
}

Json Service::do_repl_pull(const Json& request, PendingAck*) {
  std::int64_t from_lsn = 0;
  if (!req_int(request, "from_lsn", &from_lsn) || from_lsn <= 0) {
    return error_reply("REPL_PULL needs positive integer from_lsn");
  }
  std::int64_t follower_durable = 0;
  req_int(request, "durable_lsn", &follower_durable);
  std::int64_t wait_ms = 0;
  req_int(request, "wait_ms", &wait_ms);
  wait_ms = std::min<std::int64_t>(std::max<std::int64_t>(wait_ms, 0),
                                   10000);
  const Json* id = request.get("follower_id");
  const std::string follower_id =
      id != nullptr && id->is_string() ? id->as_string() : "";

  Replicator* repl = nullptr;
  Journal* journal = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (journal_ == nullptr || repl_ == nullptr) {
      return error_reply("replication requires a state dir");
    }
    repl = repl_.get();
    journal = journal_.get();
  }
  if (!follower_id.empty()) {
    // The pull's durable_lsn IS the ack: it feeds the lag gauges and
    // releases --sync-replication waiters.
    repl->note_follower(
        follower_id,
        follower_durable > 0 ? static_cast<std::uint64_t>(follower_durable)
                             : 0,
        sampler_.now_ms());
  }
  const std::uint64_t from = static_cast<std::uint64_t>(from_lsn);
  std::vector<JournalRecord> records;
  bool snapshot_needed = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_ms);
  // Long-poll on the journal's commits, in ticks of at most 50 ms so a
  // shutdown is noticed (this occupies one dispatch worker, never the
  // service).  A commit wakes it, so ship latency tracks fsync latency.
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    snapshot_needed = !journal->read_durable(
        from, static_cast<int>(std::clamp<std::int64_t>(remaining, 0, 50)),
        &records);
    if (!records.empty() || snapshot_needed || remaining <= 0 ||
        shutdown_.load(std::memory_order_acquire)) {
      break;
    }
  }
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("epoch", static_cast<std::int64_t>(journal->epoch()));
  reply.set("durable_lsn",
            static_cast<std::int64_t>(journal->durable_lsn()));
  if (snapshot_needed) {
    reply.set("snapshot_needed", true);
    return reply;
  }
  Json out = Json::array();
  for (const JournalRecord& rec : records) {
    out.push_back(encode_row({static_cast<std::int64_t>(rec.type),
                              static_cast<std::int64_t>(rec.lsn)},
                             rec.entry));
  }
  if (!records.empty()) {
    registry_
        .counter("wormrt_repl_records_shipped_total", {},
                 "Journal records shipped to followers via REPL_PULL.")
        .inc(records.size());
  }
  reply.set("records", std::move(out));
  return reply;
}

Json Service::do_promote(const Json&, PendingAck*) {
  std::lock_guard<std::mutex> pk(promote_mu_);
  // Idempotent: promoting a primary reports the standing state.
  const bool promote = is_follower();
  if (promote && promote_hook_) {
    // Tear the follower loose FIRST: the hook stops and joins the
    // replica session, so no replicated apply can race the epoch bump.
    promote_hook_();
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (promote) {
    if (journal_ == nullptr) {
      return error_reply("PROMOTE requires a state dir");
    }
    const std::uint64_t deposed_epoch = journal_->epoch();
    const std::uint64_t fence = journal_->durable_lsn();
    journal_->set_epoch(deposed_epoch + 1);
    // The epoch bump is durable only once a snapshot re-stamps both
    // files; until then a crash falls back to the follower epoch, which
    // is safe (the promotion just has to be redone).
    std::string err;
    if (!journal_->write_snapshot(capture_state_locked(), &err)) {
      return error_reply("promotion failed: epoch bump not durable: " + err);
    }
    repl_ = std::make_unique<Replicator>(fence);
    follower_.store(false, std::memory_order_release);
    if (audit_ != nullptr) {
      Json rec = Json::object();
      rec.set("event", "promote");
      rec.set("epoch", static_cast<std::int64_t>(deposed_epoch + 1));
      rec.set("fence_lsn", static_cast<std::int64_t>(fence));
      audit_->append(std::move(rec));
    }
  }
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("role", "primary");
  if (promote) {
    reply.set("promoted", true);
  }
  reply.set("epoch", static_cast<std::int64_t>(
                         journal_ != nullptr ? journal_->epoch() : 1));
  reply.set("durable_lsn",
            static_cast<std::int64_t>(
                journal_ != nullptr ? journal_->durable_lsn() : 0));
  return reply;
}

std::string Service::prometheus_text() const {
  std::lock_guard<std::mutex> lk(mu_);
  refresh_mirrors();
  return registry_.to_prometheus();
}

}  // namespace wormrt::svc
