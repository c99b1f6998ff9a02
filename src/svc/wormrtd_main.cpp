// wormrtd — the online admission-control daemon.
//
// Serves the newline-delimited JSON protocol of DESIGN.md §7 over a
// Unix-domain socket (--socket PATH) or loopback TCP (--port N; 0 picks
// an ephemeral port).  Each REQUEST is decided by the incremental
// analysis engine; metrics accumulate in one registry that the METRICS
// verb exposes, and the METRICS reply goes to stderr as one JSON line on
// clean shutdown (SIGTERM/SIGINT or the SHUTDOWN verb).
//
//   ./wormrtd --socket /tmp/wormrtd.sock --mesh 8 --threads 0
//   ./wormrtd --port 0 --mesh 16x16 --workers 8
//
// After a successful listen the daemon prints a single line
//   READY unix /tmp/wormrtd.sock      (or: READY tcp 127.0.0.1:PORT)
// to stdout so scripts and tests can synchronise on startup.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "svc/json.hpp"
#include "svc/replication.hpp"
#include "svc/server.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "util/cli.hpp"

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

/// One mesh radix: a whole number from 2 to INT_MAX.
bool parse_radix(const std::string& text, long long* radix) {
  char* end = nullptr;
  *radix = std::strtoll(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && *radix >= 2 &&
         *radix <= std::numeric_limits<int>::max();
}

/// "--mesh 8" -> 8x8, "--mesh 16x16" -> 16x16.  False unless both radixes
/// and the node count fit an int.
bool parse_mesh(const std::string& spec, int* cols, int* rows) {
  const std::size_t x = spec.find('x');
  long long c = 0, r = 0;
  if (!parse_radix(spec.substr(0, x), &c) ||
      !parse_radix(x == std::string::npos ? spec : spec.substr(x + 1), &r) ||
      c * r > std::numeric_limits<int>::max()) {
    return false;
  }
  *cols = static_cast<int>(c);
  *rows = static_cast<int>(r);
  return true;
}

int usage(const char* program) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --port N) [--mesh CxR] [--threads N]\n"
      "          [--workers N] [--event-threads N] [--trace FILE]\n"
      "          [--state-dir DIR] [--compact-every N] [--no-journal-fsync]\n"
      "          [--max-connections N] [--idle-timeout-ms N]\n"
      "          [--buffer-depth N] [--no-credit-slack-guard]\n"
      "          [--sample-interval-ms N] [--audit-log FILE]\n"
      "          [--audit-max-bytes N]\n"
      "  --socket PATH  listen on a Unix-domain socket\n"
      "  --port N       listen on 127.0.0.1:N (0 = ephemeral, printed on "
      "READY)\n"
      "  --mesh CxR     mesh topology, e.g. 8 or 16x16 (default 8x8)\n"
      "  --threads N    analysis threads per decision (0 = all cores, "
      "default 0)\n"
      "  --workers N    dispatch workers running verbs (default 4)\n"
      "  --event-threads N  epoll event-loop threads (default 2)\n"
      "  --trace FILE   record trace spans; written as Chrome trace_event "
      "JSON on shutdown\n"
      "  --state-dir DIR  write-ahead journal + snapshots; admitted state "
      "survives crashes\n"
      "  --compact-every N  snapshot-compact the journal every N appends "
      "(default 256)\n"
      "  --no-journal-fsync  skip the per-append fsync (crash durability "
      "becomes best-effort)\n"
      "  --max-connections N  concurrent connection cap; excess clients "
      "are shed (default 64)\n"
      "  --idle-timeout-ms N  drop connections idle for N ms (0 = never, "
      "default 30000)\n"
      "  --buffer-depth N  per-VC flit-buffer depth of the fabric "
      "(default 2; depth < 2 is rejected — the analysis model needs "
      "one-flit-per-cycle pipelining, see EXPERIMENTS.md); a state dir "
      "or primary under another depth, guard or mesh is refused\n"
      "  --no-credit-slack-guard  admit zero-slack streams (U+2 > T) "
      "even though their bounds do not survive credit flow control "
      "(paper-table reproduction mode)\n"
      "  --sample-interval-ms N  history sampler period for the HISTORY "
      "verb (0 = off, default 1000)\n"
      "  --audit-log FILE  append a JSONL audit record per admission "
      "decision, removal, and link mutation\n"
      "  --audit-max-bytes N  rotate the audit log to FILE.1 past N "
      "bytes (default 64 MiB)\n"
      "  --follow ENDPOINT  replicate from a primary (unix:PATH or "
      "HOST:PORT) instead of accepting mutations; requires --state-dir. "
      "Reads (QUERY/METRICS/HEALTH/...) are served locally, "
      "mutations answer error \"not primary\" until PROMOTE\n"
      "  --follower-id ID  identity reported to the primary (default "
      "pid-<pid>)\n"
      "  --sync-replication  withhold mutation acks until at least one "
      "follower reported the record durable (degrades to async on "
      "timeout, counted + HEALTH-visible)\n"
      "  --sync-replication-timeout-ms N  per-ack follower wait before "
      "degrading (default 5000)\n"
      "  --repl-lag-degraded N  HEALTH degrades when a follower lags "
      "more than N records (default 1024)\n",
      program);
  return 2;
}

/// Pre-flight handshake for --follow: learn the primary's fencing epoch
/// and fence LSN so the local journal open can detect (and refuse) a
/// deposed primary's unreplicated tail, and hard-fail on a contract
/// fingerprint mismatch or a malformed endpoint before any replay
/// happens.  Retries until the primary answers or a signal arrives.
bool follower_preflight(const std::string& endpoint,
                        std::uint64_t fingerprint,
                        wormrt::svc::HelloReply* reply, bool* fatal) {
  using namespace wormrt;
  *fatal = false;
  const std::string follower_id = "preflight-" + std::to_string(::getpid());
  bool warned = false;
  while (g_signalled == 0) {
    svc::Client client;
    client.set_timeout_ms(5000);
    std::string error;
    if (client.connect_spec(endpoint, &error) &&
        svc::hello(svc::primary_at(client), follower_id, fingerprint, 1, 0,
                   reply, &error)) {
      return true;
    }
    if (error.rfind("bad endpoint", 0) == 0) {
      std::fprintf(stderr, "wormrtd: bad --follow endpoint: %s\n",
                   endpoint.c_str());
      *fatal = true;
      return false;
    }
    if (error.find("fingerprint mismatch") != std::string::npos) {
      std::fprintf(stderr,
                   "wormrtd: primary at %s runs a different fabric: %s\n",
                   endpoint.c_str(), error.c_str());
      *fatal = true;
      return false;
    }
    if (!warned) {
      std::fprintf(stderr, "wormrtd: waiting for primary at %s (%s)\n",
                   endpoint.c_str(), error.c_str());
      warned = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wormrt;

  const util::Args args(argc, argv);
  if (args.has("help")) {
    return usage(args.program().c_str());
  }
  const std::string socket_path = args.get_string("socket", "");
  const std::int64_t tcp_port = args.get_int("port", -1);
  if (socket_path.empty() && tcp_port < 0) {
    return usage(args.program().c_str());
  }
  if (args.has("port") && (tcp_port < 0 || tcp_port > 65535)) {
    std::fprintf(stderr, "wormrtd: bad --port (want 0-65535)\n");
    return 2;
  }

  int cols = 8, rows = 8;
  if (!parse_mesh(args.get_string("mesh", "8x8"), &cols, &rows)) {
    std::fprintf(stderr, "wormrtd: bad --mesh (want e.g. 8 or 16x16)\n");
    return 2;
  }

  core::AnalysisConfig config;
  config.num_threads = static_cast<int>(args.get_int("threads", 0));
  // PR-7 soundness findings (EXPERIMENTS.md): the daemon defaults to the
  // flit-valid admission domain — zero-slack streams are rejected unless
  // the operator explicitly opts back into the paper's model — and the
  // modelled buffer depth is validated against the latency model.
  config.credit_slack_guard = !args.has("no-credit-slack-guard");
  config.vc_buffer_depth =
      static_cast<int>(args.get_int("buffer-depth", 2));
  const std::string config_error = core::validate_analysis_config(config);
  if (!config_error.empty()) {
    std::fprintf(stderr, "wormrtd: %s\n", config_error.c_str());
    return 2;
  }

  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    obs::Tracer::set_enabled(true);
  }

  svc::ServiceOptions service_options;
  service_options.state_dir = args.get_string("state-dir", "");
  service_options.compact_every =
      static_cast<std::uint64_t>(args.get_int("compact-every", 256));
  service_options.journal_fsync = !args.has("no-journal-fsync");
  service_options.sample_interval_ms =
      static_cast<int>(args.get_int("sample-interval-ms", 1000));
  service_options.audit_path = args.get_string("audit-log", "");
  service_options.audit_max_bytes =
      static_cast<std::uint64_t>(args.get_int("audit-max-bytes", 64 << 20));
  service_options.sync_replication = args.has("sync-replication");
  service_options.sync_replication_timeout_ms =
      static_cast<int>(args.get_int("sync-replication-timeout-ms", 5000));
  service_options.repl_lag_degraded =
      static_cast<std::uint64_t>(args.get_int("repl-lag-degraded", 1024));

  const std::string follow_endpoint = args.get_string("follow", "");
  service_options.follower = !follow_endpoint.empty();
  if (service_options.follower && service_options.state_dir.empty()) {
    std::fprintf(stderr,
                 "wormrtd: --follow requires --state-dir (the follower "
                 "journals replicated records before applying them)\n");
    return 2;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  topo::Mesh mesh(cols, rows);  // mutable: LINK_DOWN/LINK_UP drive faults
  const route::XYRouting routing;

  if (service_options.follower) {
    // Fencing pre-flight: learn the primary's epoch + fence so replay
    // refuses a deposed primary's unreplicated tail (DESIGN.md §15).
    bool fatal = false;
    svc::HelloReply primary;
    if (!follower_preflight(follow_endpoint,
                            core::contract_fingerprint(mesh, config), &primary,
                            &fatal)) {
      return fatal ? 1 : 0;  // signal during wait = clean exit
    }
    service_options.repl_min_epoch = primary.epoch;
    service_options.repl_fence_lsn = primary.fence_lsn;
  }

  svc::Service service(mesh, routing, config, service_options);

  std::string error;
  if (!service.open_state(&error)) {
    if (service_options.follower &&
        error.find("deposed primary") != std::string::npos) {
      // This state dir carries mutations a newer primary never saw.
      // They are unrecoverable by design (the failover already moved on
      // without them) — discard and re-bootstrap from a snapshot.
      std::fprintf(stderr,
                   "wormrtd: %s\n"
                   "wormrtd: discarding fenced state in %s and "
                   "re-bootstrapping from the primary\n",
                   error.c_str(), service_options.state_dir.c_str());
      ::unlink((service_options.state_dir + "/journal.wal").c_str());
      ::unlink((service_options.state_dir + "/snapshot.bin").c_str());
      error.clear();
      if (!service.open_state(&error)) {
        std::fprintf(stderr, "wormrtd: cannot open state dir: %s\n",
                     error.c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "wormrtd: cannot open state dir: %s\n",
                   error.c_str());
      return 1;
    }
  }
  if (!service_options.state_dir.empty()) {
    const svc::Service::RecoveryInfo& rec = service.recovery_info();
    std::fprintf(stderr,
                 "wormrtd: recovered %llu snapshot entries + %llu journal "
                 "records (%llu stale skipped, %llu torn tail bytes "
                 "discarded, %llu topology mutations), population %zu\n",
                 static_cast<unsigned long long>(rec.snapshot_entries),
                 static_cast<unsigned long long>(rec.journal_records),
                 static_cast<unsigned long long>(rec.skipped_records),
                 static_cast<unsigned long long>(rec.discarded_bytes),
                 static_cast<unsigned long long>(rec.topology_mutations),
                 service.population());
  }

  svc::ServerConfig server_config;
  server_config.unix_path = socket_path;
  server_config.tcp_port = static_cast<int>(tcp_port);
  server_config.workers = static_cast<int>(args.get_int("workers", 4));
  server_config.event_threads =
      static_cast<int>(args.get_int("event-threads", 2));
  server_config.max_connections =
      static_cast<int>(args.get_int("max-connections", 64));
  server_config.idle_timeout_ms =
      static_cast<int>(args.get_int("idle-timeout-ms", 30000));

  svc::Server server(service, server_config);
  if (!server.start(&error)) {
    std::fprintf(stderr, "wormrtd: %s\n", error.c_str());
    return 1;
  }

  std::unique_ptr<svc::ReplicaSession> replica;
  if (service_options.follower) {
    svc::ReplicaConfig replica_config;
    replica_config.endpoint = follow_endpoint;
    replica_config.follower_id = args.get_string("follower-id", "");
    replica = std::make_unique<svc::ReplicaSession>(service,
                                                    replica_config);
    // PROMOTE tears the pull loop down before the epoch bump, so no
    // replicated apply can race the role flip.
    service.set_promote_hook([&replica] {
      if (replica != nullptr) {
        replica->stop();
      }
    });
    replica->start();
    std::fprintf(stderr, "wormrtd: following %s (follower mode: "
                 "mutations answer \"not primary\" until PROMOTE)\n",
                 follow_endpoint.c_str());
  }

  if (!socket_path.empty()) {
    std::printf("READY unix %s\n", socket_path.c_str());
  } else {
    std::printf("READY tcp 127.0.0.1:%d\n", server.port());
  }
  std::fflush(stdout);

  while (g_signalled == 0 && !service.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (replica != nullptr) {
    replica->stop();
  }
  server.stop();
  if (!trace_path.empty()) {
    // Atomic tmp+rename write: a reader racing the shutdown (or a crash
    // mid-write) sees either no file or a complete, parseable trace.
    std::string trace_error;
    if (obs::Tracer::export_json_to_file(trace_path, &trace_error)) {
      std::fprintf(stderr, "wormrtd: wrote %zu trace events to %s\n",
                   obs::Tracer::event_count(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "wormrtd: cannot write trace to %s: %s\n",
                   trace_path.c_str(), trace_error.c_str());
    }
  }
  std::fprintf(stderr, "%s\n",
               service.handle_line(R"({"verb":"METRICS"})").c_str());
  return 0;
}
