// wormrtd load generator: measures the admission-control service under
// churn and emits BENCH_service.json.
//
//   ./bench/svc_churn [--streams 60] [--ops 1500] [--clients 4]
//                     [--pipeline-clients 8] [--batch-window 16]
//                     [--mesh 16x16 (cols equal rows: --mesh 16)]
//                     [--out BENCH_service.json] [--obs-out FILE]
//                     [--min-durable-speedup N] [--min-nofsync-speedup N]
//                     [--max-obs-overhead-pct P]
//
// Measurements:
//   1. in-process churn with the incremental engine (decision latency
//      percentiles and decisions/s),
//   2. the same operation sequence under full recompute per decision
//      (the pre-incremental baseline; the ratio is the speedup),
//   3. end-to-end over a real Unix-domain socket, four ways:
//        socket                   no journal, one call per request
//                                 (the wire-overhead reference)
//        socket_durable_serial    journal + fsync, ONE client making one
//                                 call at a time — serial by
//                                 construction: one fsync per mutation,
//                                 the durability baseline
//        socket_durable_pipelined journal + fsync, clients pipeline
//                                 BATCH lines — many admissions share
//                                 one group-commit fsync
//        socket_pipelined         journal, fsync off, pipelined BATCH —
//                                 the engine/wire ceiling
//      The last three run as three interleaved rounds, each row the
//      median (every round is reported).  The headline ratios
//      (socket_durable_pipelined and socket_pipelined over
//      socket_durable_serial, medians over medians) quantify what group
//      commit + pipelining buy; --min-durable-speedup /
//      --min-nofsync-speedup turn them into CI floors (exit 1 below),
//   4. replication, async and sync, over three interleaved rounds per
//      mode (the median and every round are reported); they run right
//      after the plain socket row, ahead of the three gated rows and the
//      obs A/B,
//   5. replay: a fresh Service's recovery of a churned state dir and a
//      fresh follower's REPL_SNAPSHOT install of the same state, each
//      with its population and Cal_U count.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/admission.hpp"
#include "core/workload.hpp"
#include "obs/metrics.hpp"
#include "route/dor.hpp"
#include "svc/json.hpp"
#include "svc/replication.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/mesh.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#include <unistd.h>

namespace {

using namespace wormrt;
using svc::Json;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ChurnResult {
  double decisions_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
};

/// Establishes the feasible population, then runs `ops` single-channel
/// teardown + re-establishment cycles, timing each decision.
ChurnResult run_inprocess(topo::Mesh& mesh,
                          const route::XYRouting& routing,
                          const core::StreamSet& streams, int ops,
                          core::AdmissionController::Mode mode) {
  core::AdmissionController ctrl(mesh, routing, {}, mode);
  std::vector<core::AdmissionController::Handle> handles;
  for (const core::MessageStream& s : streams) {
    const auto d = ctrl.request(s.src, s.dst, s.priority, s.period, s.length,
                                s.deadline);
    handles.push_back(d.admitted ? d.handle : -1);
  }

  util::SampleSet latency;
  std::size_t idx = 0;
  const double t0 = now_us();
  for (int op = 0; op < ops; ++op) {
    while (handles[idx] < 0) {
      idx = (idx + 1) % handles.size();
    }
    const core::MessageStream& s = streams[static_cast<StreamId>(idx)];
    const double d0 = now_us();
    ctrl.remove(handles[idx]);
    const auto d = ctrl.request(s.src, s.dst, s.priority, s.period, s.length,
                                s.deadline);
    latency.add(now_us() - d0);
    handles[idx] = d.admitted ? d.handle : -1;
    idx = (idx + 1) % handles.size();
  }
  const double elapsed_us = now_us() - t0;

  ChurnResult r;
  r.decisions_per_sec = static_cast<double>(ops) / (elapsed_us * 1e-6);
  r.p50_us = latency.percentile(50);
  r.p99_us = latency.percentile(99);
  r.mean_us = latency.mean();
  return r;
}

struct SocketMode {
  const char* name;        // console + JSON label
  bool journal = false;    // state dir + write-ahead journal
  bool fsync = true;       // fsync per group commit (when journal)
  int batch_window = 0;    // 0 = one call per request; >0 = BATCH lines
                           // of this many churn steps, pipelined
  int sample_interval_ms = 0;  // >0: run the HISTORY sampler thread
  bool reports = false;    // periodic REPORT sweeps on the BATCH lines
};

struct SocketResult {
  double throughput_rps = 0;
  double p50_us = 0;       // per REQUEST call, or per pipelined round
  double p99_us = 0;
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  double mean_commit_batch = 0;  // journal appends per group commit
  double fsync_total_us = 0;     // wall time inside fsync, summed
};

/// One REQUEST line for stream \p s.
Json request_json(const core::MessageStream& s) {
  Json rq = Json::object();
  rq.set("verb", "REQUEST");
  rq.set("src", static_cast<std::int64_t>(s.src));
  rq.set("dst", static_cast<std::int64_t>(s.dst));
  rq.set("priority", static_cast<std::int64_t>(s.priority));
  rq.set("period", s.period);
  rq.set("length", s.length);
  rq.set("deadline", s.deadline);
  return rq;
}

/// N client threads, each on its own connection, churning its own slice
/// of the stream population against a live Server.  Per-call mode sends
/// one request per round trip; batch mode wraps `batch_window` churn
/// steps in a BATCH line and pipelines two of them back to back, so the
/// server always has a full window in flight per connection.
SocketResult run_socket(topo::Mesh& mesh,
                        const route::XYRouting& routing,
                        const core::StreamSet& streams, int ops, int clients,
                        const SocketMode& mode) {
  const std::string state_dir = "/tmp/wormrt-churn-state-" +
                                std::to_string(::getpid()) + "-" + mode.name;
  svc::ServiceOptions options;
  if (mode.journal) {
    std::filesystem::remove_all(state_dir);
    options.state_dir = state_dir;
    options.journal_fsync = mode.fsync;
  }
  options.sample_interval_ms = mode.sample_interval_ms;
  svc::Service service(mesh, routing, {}, options);
  std::string error;
  if (!service.open_state(&error)) {
    std::fprintf(stderr, "svc_churn: %s\n", error.c_str());
    return {};
  }
  char path[128];
  std::snprintf(path, sizeof path, "/tmp/wormrt-churn-%d-%s.sock",
                static_cast<int>(::getpid()), mode.name);
  svc::ServerConfig config;
  config.unix_path = path;
  config.workers = std::min(clients, 8);
  svc::Server server(service, config);
  if (!server.start(&error)) {
    std::fprintf(stderr, "svc_churn: %s\n", error.c_str());
    return {};
  }

  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> requests_done(static_cast<std::size_t>(clients),
                                           0);
  std::vector<std::uint64_t> errors(static_cast<std::size_t>(clients), 0);
  std::vector<std::thread> threads;
  const double t0 = now_us();
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto& my_latencies = latencies[static_cast<std::size_t>(t)];
      auto& my_errors = errors[static_cast<std::size_t>(t)];
      auto& my_requests = requests_done[static_cast<std::size_t>(t)];
      svc::Client client;
      std::string err;
      if (!client.connect_unix(path, &err)) {
        ++my_errors;
        return;
      }
      // This client's slice of the population.
      std::vector<std::pair<const core::MessageStream*, std::int64_t>> mine;
      for (std::size_t i = static_cast<std::size_t>(t); i < streams.size();
           i += static_cast<std::size_t>(clients)) {
        mine.emplace_back(&streams[static_cast<StreamId>(i)], -1);
      }
      if (mine.empty()) {
        return;
      }
      const int my_ops = ops / clients;
      std::size_t idx = 0;

      if (mode.batch_window <= 0) {
        // Per-call churn: REMOVE (when established), then REQUEST.
        for (int op = 0; op < my_ops; ++op) {
          auto& [s, handle] = mine[idx];
          idx = (idx + 1) % mine.size();
          std::string response;
          if (handle >= 0) {
            Json rm = Json::object();
            rm.set("verb", "REMOVE");
            rm.set("handle", handle);
            if (!client.call(rm.dump(), &response, &err)) {
              ++my_errors;
              return;
            }
            handle = -1;
          }
          const double c0 = now_us();
          if (!client.call(request_json(*s).dump(), &response, &err)) {
            ++my_errors;
            return;
          }
          my_latencies.push_back(now_us() - c0);
          ++my_requests;
          std::string parse_error;
          const Json reply = Json::parse(response, &parse_error);
          if (!parse_error.empty() || !reply.is_object()) {
            ++my_errors;
            continue;
          }
          const Json* h = reply.get("handle");
          if (h != nullptr) {
            handle = h->as_int();
          }
        }
        return;
      }

      // Batched + pipelined churn: each BATCH line carries up to
      // `batch_window` churn steps (REMOVE + REQUEST per established
      // slot), and a round pipelines up to two BATCH lines in one
      // coalesced write.  A round never exceeds the slice size: a
      // slot's handle is only learned from the reply, so revisiting a
      // slot with its REQUEST still in flight would re-admit the same
      // stream without the paired teardown and grow the population the
      // churn is supposed to hold fixed.  The latency sample is the
      // whole round — what a caller waiting for the LAST admission in
      // the window observes.
      const int kLinesPerRound = 2;
      const int window =
          std::min(mode.batch_window, static_cast<int>(mine.size()));
      int sent = 0;
      int line_seq = 0;
      while (sent < my_ops) {
        std::vector<std::string> lines;
        // request_slots[line][k] = slot whose REQUEST produced reply k
        // of that line's replies array (-1 for a REMOVE reply).
        std::vector<std::vector<std::int64_t>> request_slots;
        int round_steps =
            std::min(static_cast<int>(mine.size()), my_ops - sent);
        for (int line_i = 0; line_i < kLinesPerRound && round_steps > 0;
             ++line_i) {
          Json batch = Json::object();
          batch.set("verb", "BATCH");
          Json subs = Json::array();
          std::vector<std::int64_t> slots;
          for (int w = 0; w < window && round_steps > 0;
               ++w, --round_steps, ++sent) {
            auto& [s, handle] = mine[idx];
            if (handle >= 0) {
              Json rm = Json::object();
              rm.set("verb", "REMOVE");
              rm.set("handle", handle);
              subs.push_back(std::move(rm));
              slots.push_back(-1);
              handle = -1;
            }
            subs.push_back(request_json(*s));
            slots.push_back(static_cast<std::int64_t>(idx));
            idx = (idx + 1) % mine.size();
          }
          if (mode.reports && line_seq++ % 4 == 0) {
            // The measurement-harness shape: every 4th batch line also
            // sweeps a REPORT of observed latencies for the established
            // slice — the conformance-monitoring cost the obs A/B
            // quantifies, at a monitoring cadence rather than one
            // sweep per admission window.
            Json sweep = Json::array();
            for (const auto& [s, handle] : mine) {
              if (handle >= 0) {
                Json item = Json::object();
                item.set("handle", handle);
                item.set("observed_latency", 1.0);
                sweep.push_back(std::move(item));
              }
            }
            Json rep = Json::object();
            rep.set("verb", "REPORT");
            rep.set("reports", std::move(sweep));
            subs.push_back(std::move(rep));
            slots.push_back(-1);  // not a REQUEST reply
          }
          batch.set("requests", std::move(subs));
          lines.push_back(batch.dump());
          request_slots.push_back(std::move(slots));
        }

        std::vector<std::string> responses;
        const double c0 = now_us();
        if (!client.call_pipelined(lines, &responses, &err)) {
          ++my_errors;
          return;
        }
        my_latencies.push_back(now_us() - c0);
        for (std::size_t line_i = 0; line_i < responses.size(); ++line_i) {
          std::string parse_error;
          const Json reply = Json::parse(responses[line_i], &parse_error);
          if (!parse_error.empty() || !reply.is_object() ||
              reply.get("replies") == nullptr) {
            ++my_errors;
            continue;
          }
          const auto& replies = reply.get("replies")->items();
          const auto& slots = request_slots[line_i];
          if (replies.size() != slots.size()) {
            ++my_errors;
            continue;
          }
          for (std::size_t k = 0; k < replies.size(); ++k) {
            if (slots[k] < 0) {
              continue;  // a REMOVE reply
            }
            ++my_requests;
            const Json* h = replies[k].get("handle");
            if (h != nullptr) {
              mine[static_cast<std::size_t>(slots[k])].second = h->as_int();
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const double elapsed_us = now_us() - t0;

  SocketResult r;
  const double appends =
      static_cast<double>(service.registry()
                              .counter("wormrt_journal_appends_total", {})
                              .value());
  const double commits =
      static_cast<double>(service.registry()
                              .counter("wormrt_journal_group_commits_total", {})
                              .value());
  r.fsync_total_us = service.registry()
                         .histogram("wormrt_journal_fsync_us", 0.0, 50000.0,
                                    1000, {})
                         .sum();
  server.stop();
  if (mode.journal) {
    std::filesystem::remove_all(state_dir);
  }

  util::SampleSet all;
  for (int t = 0; t < clients; ++t) {
    for (const double v : latencies[static_cast<std::size_t>(t)]) {
      all.add(v);
    }
    r.calls += requests_done[static_cast<std::size_t>(t)];
    r.errors += errors[static_cast<std::size_t>(t)];
  }
  if (!all.empty()) {
    r.throughput_rps = static_cast<double>(r.calls) / (elapsed_us * 1e-6);
    r.p50_us = all.percentile(50);
    r.p99_us = all.percentile(99);
  }
  if (commits > 0) {
    r.mean_commit_batch = appends / commits;
  }
  return r;
}

Json to_json(const SocketMode& mode, int clients, const SocketResult& r) {
  Json j = Json::object();
  j.set("clients", std::int64_t{clients});
  j.set("journal", mode.journal);
  j.set("fsync", mode.journal && mode.fsync);
  j.set("batch_window", std::int64_t{mode.batch_window});
  j.set("latency_scope",
        std::string(mode.batch_window > 0 ? "per_round" : "per_call"));
  j.set("sample_interval_ms", std::int64_t{mode.sample_interval_ms});
  j.set("reports", mode.reports);
  j.set("throughput_rps", r.throughput_rps);
  j.set("p50_us", r.p50_us);
  j.set("p99_us", r.p99_us);
  j.set("calls", static_cast<std::int64_t>(r.calls));
  j.set("errors", static_cast<std::int64_t>(r.errors));
  if (r.mean_commit_batch > 0) {
    j.set("mean_commit_batch", r.mean_commit_batch);
  }
  if (mode.journal) {
    j.set("fsync_total_us", r.fsync_total_us);
  }
  return j;
}

struct ReplResult {
  double throughput_rps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double lag_p50_records = 0;   // primary durable - follower durable,
  double lag_p99_records = 0;   // sampled after every mutation ack
  double lag_max_records = 0;
  double catchup_ms = 0;        // post-churn convergence to zero lag
  double records_per_pull = 0;  // mean over the follower's non-empty pulls
  double promote_us = 0;        // PROMOTE verb on the follower
  double failover_us = 0;       // dead primary -> first write acked by
                                // the promoted follower
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
};

/// Primary + follower in one process over a real Unix socket: churn
/// against the primary while the follower replicates, sampling the
/// journal-record lag after every ack; then stop the primary cold and
/// time PROMOTE -> first write on the survivor.  `sync` withholds each
/// client ack until the follower reported the record durable.
ReplResult run_replication(topo::Mesh& primary_mesh, topo::Mesh& follower_mesh,
                           const route::XYRouting& routing,
                           const core::StreamSet& streams, int ops,
                           bool sync) {
  const std::string tag = std::to_string(::getpid()) +
                          (sync ? "-sync" : "-async");
  const std::string p_dir = "/tmp/wormrt-repl-bench-p-" + tag;
  const std::string f_dir = "/tmp/wormrt-repl-bench-f-" + tag;
  std::filesystem::remove_all(p_dir);
  std::filesystem::remove_all(f_dir);

  svc::ServiceOptions p_options;
  p_options.state_dir = p_dir;
  p_options.sync_replication = sync;
  svc::Service primary(primary_mesh, routing, {}, p_options);
  std::string error;
  ReplResult r;
  if (!primary.open_state(&error)) {
    std::fprintf(stderr, "svc_churn: %s\n", error.c_str());
    ++r.errors;
    return r;
  }
  char path[128];
  std::snprintf(path, sizeof path, "/tmp/wormrt-repl-bench-%s.sock",
                tag.c_str());
  svc::ServerConfig server_config;
  server_config.unix_path = path;
  svc::Server server(primary, server_config);
  if (!server.start(&error)) {
    std::fprintf(stderr, "svc_churn: %s\n", error.c_str());
    ++r.errors;
    return r;
  }

  svc::ServiceOptions f_options;
  f_options.state_dir = f_dir;
  f_options.follower = true;
  svc::Service follower(follower_mesh, routing, {}, f_options);
  if (!follower.open_state(&error)) {
    std::fprintf(stderr, "svc_churn: %s\n", error.c_str());
    ++r.errors;
    return r;
  }
  svc::ReplicaConfig replica_config;
  replica_config.endpoint = std::string("unix:") + path;
  replica_config.follower_id = "bench";
  svc::ReplicaSession replica(follower, replica_config);
  follower.set_promote_hook([&replica] { replica.stop(); });
  replica.start();

  svc::Client client;
  if (!client.connect_unix(path, &error)) {
    ++r.errors;
    return r;
  }
  std::vector<std::pair<const core::MessageStream*, std::int64_t>> slots;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    slots.emplace_back(&streams[static_cast<StreamId>(i)], -1);
  }
  util::SampleSet latency, lag;
  std::size_t idx = 0;
  const double t0 = now_us();
  for (int op = 0; op < ops; ++op) {
    auto& [s, handle] = slots[idx];
    idx = (idx + 1) % slots.size();
    std::string response;
    if (handle >= 0) {
      Json rm = Json::object();
      rm.set("verb", "REMOVE");
      rm.set("handle", handle);
      if (!client.call(rm.dump(), &response, &error)) {
        ++r.errors;
        break;
      }
      handle = -1;
    }
    const double c0 = now_us();
    if (!client.call(request_json(*s).dump(), &response, &error)) {
      ++r.errors;
      break;
    }
    latency.add(now_us() - c0);
    ++r.calls;
    const std::uint64_t p_durable = primary.durable_lsn();
    const std::uint64_t f_durable = follower.durable_lsn();
    lag.add(p_durable > f_durable
                ? static_cast<double>(p_durable - f_durable)
                : 0.0);
    std::string parse_error;
    const Json reply = Json::parse(response, &parse_error);
    const Json* h =
        parse_error.empty() && reply.is_object() ? reply.get("handle") : nullptr;
    if (h != nullptr) {
      handle = h->as_int();
    }
  }
  const double elapsed_us = now_us() - t0;
  client.close();

  // Convergence: how long until the follower has everything.
  const double k0 = now_us();
  while (follower.durable_lsn() < primary.durable_lsn() &&
         now_us() - k0 < 5e6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  r.catchup_ms = (now_us() - k0) / 1000.0;
  // The follower commits each non-empty pull once, so its commit count
  // is its pull count.
  obs::Registry& f_registry = follower.registry();
  const std::uint64_t pulls =
      f_registry.counter("wormrt_journal_group_commits_total").value();
  if (pulls > 0) {
    r.records_per_pull =
        static_cast<double>(
            f_registry.counter("wormrt_repl_records_applied_total").value()) /
        static_cast<double>(pulls);
  }

  // Failover: the primary disappears mid-flight (no drain), the
  // follower is promoted, and the clock stops at its first acked write.
  server.stop();
  const double f0 = now_us();
  Json promote = Json::object();
  promote.set("verb", "PROMOTE");
  std::string parse_error;
  const Json promoted =
      Json::parse(follower.handle_line(promote.dump()), &parse_error);
  r.promote_us = now_us() - f0;
  const Json* promote_ok =
      parse_error.empty() ? promoted.get("ok") : nullptr;
  if (promote_ok == nullptr || !promote_ok->as_bool()) {
    ++r.errors;
  } else {
    const Json first = Json::parse(
        follower.handle_line(request_json(*slots[0].first).dump()),
        &parse_error);
    const Json* ok = parse_error.empty() ? first.get("ok") : nullptr;
    if (ok == nullptr || !ok->as_bool()) {
      ++r.errors;
    }
    r.failover_us = now_us() - f0;
  }
  replica.stop();

  if (!latency.empty()) {
    r.throughput_rps = static_cast<double>(r.calls) / (elapsed_us * 1e-6);
    r.p50_us = latency.percentile(50);
    r.p99_us = latency.percentile(99);
  }
  if (!lag.empty()) {
    r.lag_p50_records = lag.percentile(50);
    r.lag_p99_records = lag.percentile(99);
    r.lag_max_records = lag.percentile(100);
  }
  std::filesystem::remove_all(p_dir);
  std::filesystem::remove_all(f_dir);
  ::unlink(path);
  return r;
}

/// A measured figure of a run, under its JSON key.
template <typename Result>
struct Figure {
  const char* name;
  double Result::*field;
};

/// The figures of a socket run that a median row reports.
constexpr Figure<SocketResult> kSocketFigures[] = {
    {"throughput_rps", &SocketResult::throughput_rps},
    {"p50_us", &SocketResult::p50_us},
    {"p99_us", &SocketResult::p99_us},
    {"mean_commit_batch", &SocketResult::mean_commit_batch},
    {"fsync_total_us", &SocketResult::fsync_total_us},
};

/// The measured figures of a replication run, in JSON key order.
constexpr Figure<ReplResult> kReplFigures[] = {
    {"throughput_rps", &ReplResult::throughput_rps},
    {"p50_us", &ReplResult::p50_us},
    {"p99_us", &ReplResult::p99_us},
    {"lag_p50_records", &ReplResult::lag_p50_records},
    {"lag_p99_records", &ReplResult::lag_p99_records},
    {"lag_max_records", &ReplResult::lag_max_records},
    {"catchup_ms", &ReplResult::catchup_ms},
    {"records_per_pull", &ReplResult::records_per_pull},
    {"promote_us", &ReplResult::promote_us},
    {"failover_us", &ReplResult::failover_us},
};

/// Each of \p figures' median over \p rounds; calls and errors are
/// totals.
template <typename Result, std::size_t N>
Result median_of(const std::vector<Result>& rounds,
                 const Figure<Result> (&figures)[N]) {
  Result m;
  for (const Figure<Result>& f : figures) {
    util::SampleSet values;
    for (const Result& r : rounds) {
      values.add(r.*f.field);
    }
    m.*f.field = values.percentile(50);
  }
  for (const Result& r : rounds) {
    m.calls += r.calls;
    m.errors += r.errors;
  }
  return m;
}

Json to_json(const ReplResult& r) {
  Json j = Json::object();
  for (const Figure<ReplResult>& f : kReplFigures) {
    j.set(f.name, r.*f.field);
  }
  j.set("calls", static_cast<std::int64_t>(r.calls));
  j.set("errors", static_cast<std::int64_t>(r.errors));
  return j;
}

struct ReplayResult {
  double recovery_ms = 0;  // median over kReplayRounds fresh Services
  std::uint64_t recovery_population = 0;
  std::uint64_t recovery_bound_recomputes = 0;  // Cal_U calls of one
  double bootstrap_ms = 0;  // median over kReplayRounds fresh followers
  std::uint64_t bootstrap_population = 0;
  std::uint64_t bootstrap_bound_recomputes = 0;
  std::uint64_t errors = 0;
};

constexpr int kReplayRounds = 3;

/// Replay cost after churn: `ops` teardown + re-establishment cycles
/// through a journaled in-process Service (compacting every 256
/// appends, as wormrtd does), then the time a fresh Service's
/// open_state takes on that state dir (recovery) and the time a fresh
/// follower takes to install the primary's REPL_SNAPSHOT reply
/// (bootstrap).  fsync is off throughout: the figures are the replay's,
/// not the disk's.
ReplayResult run_replay(int side, const route::XYRouting& routing,
                        const core::StreamSet& streams, int ops) {
  const std::string tag = std::to_string(::getpid());
  const std::string dir = "/tmp/wormrt-replay-bench-" + tag;
  const std::string f_dir = dir + "-follower";
  std::filesystem::remove_all(dir);
  svc::ServiceOptions options;
  options.state_dir = dir;
  options.journal_fsync = false;
  topo::Mesh mesh(side, side);
  svc::Service primary(mesh, routing, {}, options);
  ReplayResult r;
  std::string error;
  if (!primary.open_state(&error)) {
    std::fprintf(stderr, "svc_churn: %s\n", error.c_str());
    ++r.errors;
    return r;
  }
  const auto call = [&](const Json& request) {
    const Json reply = primary.handle(request);
    const Json* ok = reply.get("ok");
    if (ok == nullptr || !ok->as_bool()) {
      ++r.errors;
    }
    const Json* h = reply.get("handle");
    return h != nullptr ? h->as_int() : std::int64_t{-1};
  };
  std::vector<std::int64_t> handles;
  for (const core::MessageStream& s : streams) {
    handles.push_back(call(request_json(s)));
  }
  for (int op = 0; op < ops; ++op) {
    const std::size_t idx = static_cast<std::size_t>(op) % handles.size();
    if (handles[idx] >= 0) {
      Json rm = Json::object();
      rm.set("verb", "REMOVE");
      rm.set("handle", handles[idx]);
      call(rm);
    }
    handles[idx] = call(request_json(streams[static_cast<StreamId>(idx)]));
  }

  util::SampleSet recovery;
  for (int round = 0; round < kReplayRounds; ++round) {
    topo::Mesh m(side, side);
    svc::Service recovered(m, routing, {}, options);
    const double t0 = now_us();
    if (!recovered.open_state(&error)) {
      std::fprintf(stderr, "svc_churn: %s\n", error.c_str());
      ++r.errors;
      return r;
    }
    recovery.add((now_us() - t0) / 1000.0);
    r.recovery_population = recovered.population();
    r.recovery_bound_recomputes =
        recovered.controller().engine().stats().bound_recomputes;
  }
  r.recovery_ms = recovery.percentile(50);

  Json snapshot_verb = Json::object();
  snapshot_verb.set("verb", "REPL_SNAPSHOT");
  const Json image = primary.handle(snapshot_verb);
  util::SampleSet bootstrap;
  for (int round = 0; round < kReplayRounds; ++round) {
    std::filesystem::remove_all(f_dir);
    svc::ServiceOptions f_options;
    f_options.state_dir = f_dir;
    f_options.follower = true;
    f_options.journal_fsync = false;
    topo::Mesh m(side, side);
    svc::Service follower(m, routing, {}, f_options);
    if (!follower.open_state(&error)) {
      std::fprintf(stderr, "svc_churn: %s\n", error.c_str());
      ++r.errors;
      return r;
    }
    const double t0 = now_us();
    if (!svc::apply_snapshot_reply(follower, image, &error)) {
      std::fprintf(stderr, "svc_churn: %s\n", error.c_str());
      ++r.errors;
      return r;
    }
    bootstrap.add((now_us() - t0) / 1000.0);
    r.bootstrap_population = follower.population();
    r.bootstrap_bound_recomputes =
        follower.controller().engine().stats().bound_recomputes;
  }
  r.bootstrap_ms = bootstrap.percentile(50);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(f_dir);
  return r;
}

Json to_json(const ReplayResult& r) {
  Json j = Json::object();
  j.set("rounds", std::int64_t{kReplayRounds});
  j.set("recovery_ms", r.recovery_ms);
  j.set("recovery_population",
        static_cast<std::int64_t>(r.recovery_population));
  j.set("recovery_bound_recomputes",
        static_cast<std::int64_t>(r.recovery_bound_recomputes));
  j.set("bootstrap_ms", r.bootstrap_ms);
  j.set("bootstrap_population",
        static_cast<std::int64_t>(r.bootstrap_population));
  j.set("bootstrap_bound_recomputes",
        static_cast<std::int64_t>(r.bootstrap_bound_recomputes));
  j.set("errors", static_cast<std::int64_t>(r.errors));
  return j;
}

Json to_json(const ChurnResult& r) {
  Json j = Json::object();
  j.set("decisions_per_sec", r.decisions_per_sec);
  j.set("mean_us", r.mean_us);
  j.set("p50_us", r.p50_us);
  j.set("p99_us", r.p99_us);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int n = static_cast<int>(args.get_int("streams", 60));
  const int ops = static_cast<int>(args.get_int("ops", 1500));
  const int clients = static_cast<int>(args.get_int("clients", 4));
  const int pipeline_clients =
      static_cast<int>(args.get_int("pipeline-clients", 8));
  const int batch_window = static_cast<int>(args.get_int("batch-window", 16));
  const double min_durable_speedup =
      static_cast<double>(args.get_int("min-durable-speedup", 0));
  const double min_nofsync_speedup =
      static_cast<double>(args.get_int("min-nofsync-speedup", 0));
  const double max_obs_overhead_pct =
      args.get_double("max-obs-overhead-pct", 0.0);
  const std::string out_path = args.get_string("out", "BENCH_service.json");
  const std::string obs_out_path = args.get_string("obs-out", "");
  int side = static_cast<int>(args.get_int("mesh", 16));
  if (side * side < n) {
    std::fprintf(stderr, "svc_churn: mesh %dx%d too small for %d streams\n",
                 side, side, n);
    return 2;
  }

  topo::Mesh mesh(side, side);
  const route::XYRouting routing;
  core::WorkloadParams wp;
  wp.num_streams = n;
  wp.priority_levels = 4;
  wp.seed = 42;
  core::StreamSet streams = core::generate_workload(mesh, routing, wp);
  core::adjust_periods_to_bounds(streams);

  std::printf("svc_churn: %d streams on %s, %d churn ops\n", n,
              mesh.name().c_str(), ops);

  const ChurnResult incremental = run_inprocess(
      mesh, routing, streams, ops, core::AdmissionController::Mode::kIncremental);
  std::printf("  incremental: %10.0f decisions/s  p50 %8.1f us  p99 %8.1f us\n",
              incremental.decisions_per_sec, incremental.p50_us,
              incremental.p99_us);

  // The full-recompute baseline is far slower; cap its op count so the
  // bench stays quick, the percentiles are still well-populated.
  const int full_ops = std::min(ops, 200);
  const ChurnResult full = run_inprocess(
      mesh, routing, streams, full_ops,
      core::AdmissionController::Mode::kFullRecompute);
  std::printf("  full:        %10.0f decisions/s  p50 %8.1f us  p99 %8.1f us\n",
              full.decisions_per_sec, full.p50_us, full.p99_us);

  const double speedup = full.decisions_per_sec > 0
                             ? incremental.decisions_per_sec /
                                   full.decisions_per_sec
                             : 0;
  std::printf("  incremental vs full speedup: %.2fx\n", speedup);

  const SocketMode kPlain = {"socket", false, true, 0};
  const SocketMode kDurableSerial = {"durable-serial", true, true, 0};
  const SocketMode kDurablePipelined = {"durable-pipelined", true, true,
                                        batch_window};
  const SocketMode kNoFsyncPipelined = {"nofsync-pipelined", true, false,
                                        batch_window};

  const auto report = [&](const char* label, int mode_clients,
                          const SocketResult& r) {
    std::printf("  %-24s (%2d clients): %8.0f req/s  p50 %8.1f us  "
                "p99 %8.1f us  (%llu calls, %llu errors",
                label, mode_clients, r.throughput_rps, r.p50_us, r.p99_us,
                static_cast<unsigned long long>(r.calls),
                static_cast<unsigned long long>(r.errors));
    if (r.mean_commit_batch > 0) {
      std::printf(", %.1f appends/commit, %.0f ms in fsync",
                  r.mean_commit_batch, r.fsync_total_us / 1000.0);
    }
    std::printf(")\n");
  };

  const SocketResult socket =
      run_socket(mesh, routing, streams, ops, clients, kPlain);
  report("socket", clients, socket);

  // Replication: a follower replays the primary's journal while the
  // churn runs; then the primary dies and the survivor takes over.  One
  // run spreads several-fold on a shared host, so each mode runs
  // kReplRounds rounds, interleaved, and reports the median.  Every run
  // gets private meshes: replay mutates a fabric's fault flags.  They
  // run ahead of the fsync'd socket rows, so a change to those rows does
  // not change the load these rounds follow.
  constexpr int kReplRounds = 3;
  const int repl_ops = std::min(ops, 600);
  std::vector<ReplResult> async_rounds, sync_rounds;
  for (int round = 0; round < kReplRounds; ++round) {
    for (const bool sync : {false, true}) {
      topo::Mesh primary_mesh(side, side);
      topo::Mesh follower_mesh(side, side);
      (sync ? sync_rounds : async_rounds)
          .push_back(run_replication(primary_mesh, follower_mesh, routing,
                                     streams, repl_ops, sync));
    }
  }
  const ReplResult repl_async = median_of(async_rounds, kReplFigures);
  const ReplResult repl_sync = median_of(sync_rounds, kReplFigures);
  const auto report_repl = [](const char* label, const ReplResult& r) {
    std::printf("  %-20s %8.0f req/s  p50 %8.1f us  p99 %8.1f us"
                "  lag p99 %.0f rec  failover %.0f us  %.2f rec/pull\n",
                label, r.throughput_rps, r.p50_us, r.p99_us,
                r.lag_p99_records, r.failover_us, r.records_per_pull);
  };
  for (const auto& [mode, median, rounds] :
       {std::tuple{"async", &repl_async, &async_rounds},
        std::tuple{"sync", &repl_sync, &sync_rounds}}) {
    report_repl((std::string("replication ") + mode + ":").c_str(), *median);
    for (std::size_t i = 0; i < rounds->size(); ++i) {
      report_repl(("  round " + std::to_string(i + 1) + ":").c_str(),
                  (*rounds)[i]);
    }
  }

  // The rows the speedup floors divide.  One run of each spreads several
  // fold on a shared host, so they run kSocketRounds interleaved rounds
  // and each row is the median.  The serial row is one client making one
  // call at a time: each mutation then waits for its own fsync.
  constexpr int kSocketRounds = 3;
  struct GatedRow {
    const char* label;
    const SocketMode* mode;
    int clients;
    std::vector<SocketResult> rounds;
    SocketResult median;
  };
  GatedRow gated[] = {
      {"socket durable serial", &kDurableSerial, 1, {}, {}},
      {"socket durable pipelined", &kDurablePipelined, pipeline_clients, {},
       {}},
      {"socket nofsync pipelined", &kNoFsyncPipelined, pipeline_clients, {},
       {}},
  };
  for (int round = 0; round < kSocketRounds; ++round) {
    for (GatedRow& row : gated) {
      row.rounds.push_back(run_socket(mesh, routing, streams, ops,
                                      row.clients, *row.mode));
    }
  }
  for (GatedRow& row : gated) {
    row.median = median_of(row.rounds, kSocketFigures);
    report(row.label, row.clients, row.median);
    for (std::size_t i = 0; i < row.rounds.size(); ++i) {
      report(("  round " + std::to_string(i + 1)).c_str(), row.clients,
             row.rounds[i]);
    }
  }
  const SocketResult& durable_serial = gated[0].median;
  const SocketResult& durable_pipelined = gated[1].median;
  const SocketResult& nofsync_pipelined = gated[2].median;

  // Observability A/B: durable-pipelined with the HISTORY sampler
  // ticking fast (25ms vs the daemon's 1s default) AND a REPORT sweep
  // per BATCH line, against re-runs of the plain mode.  Interleaved
  // best-of-N damps scheduler noise: the claim is about the monitoring
  // machinery, not about which run won the CPU lottery.
  SocketMode obs_mode = kDurablePipelined;
  obs_mode.name = "obs-pipelined";
  obs_mode.sample_interval_ms = 25;
  obs_mode.reports = true;
  // Runs at `ops` finish in well under 100ms, where a single slow
  // fsync swings throughput by several percent; the A/B rounds run 4x
  // longer so the jitter amortizes below the floor being enforced.
  const int obs_ops = ops * 4;
  SocketResult obs_best, base_best;
  for (int round = 0; round < 3; ++round) {
    const SocketResult obs = run_socket(mesh, routing, streams, obs_ops,
                                        pipeline_clients, obs_mode);
    if (obs.throughput_rps > obs_best.throughput_rps) {
      obs_best = obs;
    }
    const SocketResult base = run_socket(mesh, routing, streams, obs_ops,
                                         pipeline_clients, kDurablePipelined);
    if (base.throughput_rps > base_best.throughput_rps) {
      base_best = base;
    }
  }
  report("socket obs pipelined", pipeline_clients, obs_best);
  const double obs_overhead_pct =
      base_best.throughput_rps > 0
          ? std::max(0.0, (1.0 - obs_best.throughput_rps /
                                     base_best.throughput_rps) *
                              100.0)
          : 0.0;
  std::printf("  sampler+conformance overhead vs durable pipelined: "
              "%.2f%%\n",
              obs_overhead_pct);

  const ReplayResult replay = run_replay(side, routing, streams, ops);
  std::printf("  replay after churn:  recovery %.1f ms (%llu streams, "
              "%llu Cal_U)  bootstrap %.1f ms (%llu streams, %llu Cal_U)\n",
              replay.recovery_ms,
              static_cast<unsigned long long>(replay.recovery_population),
              static_cast<unsigned long long>(replay.recovery_bound_recomputes),
              replay.bootstrap_ms,
              static_cast<unsigned long long>(replay.bootstrap_population),
              static_cast<unsigned long long>(
                  replay.bootstrap_bound_recomputes));

  const double durable_speedup =
      durable_serial.throughput_rps > 0
          ? durable_pipelined.throughput_rps / durable_serial.throughput_rps
          : 0;
  const double nofsync_speedup =
      durable_serial.throughput_rps > 0
          ? nofsync_pipelined.throughput_rps / durable_serial.throughput_rps
          : 0;
  std::printf("  group commit + pipelining vs durable serial (medians): "
              "%.2fx (fsync on), %.2fx (fsync off)\n",
              durable_speedup, nofsync_speedup);

  // Where the numbers came from: the socket and replication rows scale
  // with the host's CPUs and its fsync latency.
  char host[256] = {};
  ::gethostname(host, sizeof host - 1);
  Json doc = Json::object();
  doc.set("bench", "svc_churn");
  doc.set("host", std::string(host));
  doc.set("nproc",
          static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  doc.set("streams", std::int64_t{n});
  doc.set("mesh", mesh.name());
  doc.set("ops", std::int64_t{ops});
  doc.set("incremental", to_json(incremental));
  doc.set("full_recompute", to_json(full));
  doc.set("incremental_vs_full_speedup", speedup);
  doc.set("socket", to_json(kPlain, clients, socket));
  for (const auto& [key, row] :
       {std::pair{"socket_durable_serial", &gated[0]},
        std::pair{"socket_durable_pipelined", &gated[1]},
        std::pair{"socket_pipelined", &gated[2]}}) {
    Json median = to_json(*row->mode, row->clients, row->median);
    Json per_round = Json::array();
    for (const SocketResult& r : row->rounds) {
      per_round.push_back(to_json(*row->mode, row->clients, r));
    }
    median.set("rounds", std::move(per_round));
    doc.set(key, std::move(median));
  }
  doc.set("speedup_durable_pipelined_vs_serial", durable_speedup);
  doc.set("speedup_nofsync_pipelined_vs_serial", nofsync_speedup);
  doc.set("socket_obs_pipelined",
          to_json(obs_mode, pipeline_clients, obs_best));
  doc.set("obs_overhead_pct", obs_overhead_pct);
  Json repl = Json::object();
  repl.set("ops", std::int64_t{repl_ops});
  repl.set("rounds", std::int64_t{kReplRounds});
  for (const auto& [mode, median, rounds] :
       {std::tuple{"async", &repl_async, &async_rounds},
        std::tuple{"sync", &repl_sync, &sync_rounds}}) {
    Json row = to_json(*median);
    Json per_round = Json::array();
    for (const ReplResult& r : *rounds) {
      per_round.push_back(to_json(r));
    }
    row.set("rounds", std::move(per_round));
    repl.set(mode, std::move(row));
  }
  doc.set("replication", std::move(repl));
  doc.set("replay", to_json(replay));

  std::ofstream out(out_path);
  out << doc.dump() << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (!obs_out_path.empty()) {
    Json obs_doc = Json::object();
    obs_doc.set("bench", "svc_churn_obs");
    obs_doc.set("streams", std::int64_t{n});
    obs_doc.set("mesh", mesh.name());
    obs_doc.set("ops", std::int64_t{ops});
    obs_doc.set("sample_interval_ms",
                std::int64_t{obs_mode.sample_interval_ms});
    obs_doc.set("baseline_durable_pipelined",
                to_json(kDurablePipelined, pipeline_clients, base_best));
    obs_doc.set("obs_durable_pipelined",
                to_json(obs_mode, pipeline_clients, obs_best));
    obs_doc.set("obs_overhead_pct", obs_overhead_pct);
    obs_doc.set("max_obs_overhead_pct", max_obs_overhead_pct);
    std::ofstream obs_out(obs_out_path);
    obs_out << obs_doc.dump() << "\n";
    std::printf("wrote %s\n", obs_out_path.c_str());
  }

  const std::uint64_t total_errors = socket.errors + durable_serial.errors +
                                     durable_pipelined.errors +
                                     nofsync_pipelined.errors +
                                     repl_async.errors + repl_sync.errors +
                                     replay.errors;
  if (total_errors != 0) {
    return 1;
  }
  if (min_durable_speedup > 0 && durable_speedup < min_durable_speedup) {
    std::fprintf(stderr,
                 "svc_churn: durable pipelined speedup %.2fx below the "
                 "%.0fx floor\n",
                 durable_speedup, min_durable_speedup);
    return 1;
  }
  if (min_nofsync_speedup > 0 && nofsync_speedup < min_nofsync_speedup) {
    std::fprintf(stderr,
                 "svc_churn: nofsync pipelined speedup %.2fx below the "
                 "%.0fx floor\n",
                 nofsync_speedup, min_nofsync_speedup);
    return 1;
  }
  if (max_obs_overhead_pct > 0 && obs_overhead_pct > max_obs_overhead_pct) {
    std::fprintf(stderr,
                 "svc_churn: sampler+conformance overhead %.2f%% above "
                 "the %.2f%% ceiling\n",
                 obs_overhead_pct, max_obs_overhead_pct);
    return 1;
  }
  return 0;
}
