// admit_200 and service_20: closed-loop clients in this process against
// a real wormrtd built from the same checkout.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/feasibility.hpp"
#include "layers.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "topo/mesh.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace wormrt;
using svc::Json;

namespace {

// Dispatch workers (wormrtd's default).  Mutating connections stay below
// it: under --sync-replication an ack holds a worker until a follower's
// REPL_PULL, which needs a free worker itself.  Each workload here has
// one mutating connection.  The daemon serves connections one at a
// time, and on one CPU a second one only added its turns to the first
// one's latency: service_20's p90 read 40-61 us with two against
// 31-35 us with one, at the same decisions/s.
constexpr int kWorkers = 4;
// Engine threads (--threads), fixed: the hardware default varies.
constexpr int kAdmitThreads = 1;
constexpr int kServiceThreads = 1;
// service_20 set-ups per run; its set-up time is their interquartile
// mean.  One admit_200 set-up is seconds of engine work, so it runs once.
constexpr int kServiceSetups = 31;
// Journal appends between snapshot compactions: more than a run makes,
// so no compaction runs.  On ext4 a compaction's rename over the old
// snapshot and its WAL truncation start writeback: service_20's p99.9
// read 7-27 ms, and its throughput fell from 12k to 7.3k decisions/s.
constexpr std::uint64_t kCompactEvery = 1ull << 40;
// Host speed samples (HostSpeed), taken between calls and left out of
// the timings: one every this many REQUESTs of a set-up or an admit_200
// pass, and one every this many seconds of service_20's churn.
constexpr std::size_t kSampleEvery = 10;
constexpr double kSampleInterval_s = 0.5;
// service_20's scraper reads HEALTH + METRICS this often, per second: a
// dashboard's refresh.  At 20 Hz each scrape's hold on the service lock
// queued ~0.5% of decisions, so p99 and p99.9 moved with the host's
// METRICS render time (p99.9 3.6-9.9 ms across ten runs).
constexpr int kScrapeHz = 1;

// One admit_200 pass takes about 18 s at --threads 1 on a 4-vCPU 2.1 GHz
// VM.  The pass count depends on --seconds only, never on how fast the
// machine is: a run that squeezed in a second pass did different work.
int admit_passes(int seconds) { return std::max(1, seconds / 20); }

/// wormrtd's analysis config for \p threads (wormrtd_main.cpp).
core::AnalysisConfig daemon_config(int threads) {
  core::AnalysisConfig config;
  config.num_threads = threads;
  config.credit_slack_guard = true;
  config.vc_buffer_depth = 2;
  return config;
}

/// Connects \p client to a daemon's socket.  A reply never takes longer
/// than an admission decision; 30 s means the daemon is stuck.
bool connect(svc::Client& client, const std::string& socket,
             std::string* error) {
  client.set_timeout_ms(30000);
  return client.connect_unix(socket, error);
}

/// One call; false on a transport or parse error.
bool call(svc::Client& client, const std::string& line, Json* reply,
          std::string* error) {
  std::string text;
  if (!client.call(line, &text, error)) {
    return false;
  }
  *reply = Json::parse(text, error);
  return error->empty();
}

/// Per-connection tallies, merged after the threads join.
struct Tally {
  std::vector<double> request_us;
  std::vector<double> read_us;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string first_error;

  void fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) {
      first_error = what;
    }
  }
  void merge(const Tally& other) {
    request_us.insert(request_us.end(), other.request_us.begin(),
                      other.request_us.end());
    read_us.insert(read_us.end(), other.read_us.begin(), other.read_us.end());
    attempted += other.attempted;
    failed += other.failed;
    if (first_error.empty()) {
      first_error = other.first_error;
    }
  }
};

/// A timed call that counts as attempted and, on any error or ok:false,
/// as failed.  Returns the reply when it arrived with ok:true.
std::optional<Json> tallied(svc::Client& client, const std::string& line,
                            Tally& tally, std::vector<double>* latency_us,
                            Spans& spans, const char* span_name) {
  ++tally.attempted;
  Json reply;
  std::string error;
  const double t0 = now_s();
  bool sent = false;
  {
    Span span(spans, span_name, tally.attempted);
    sent = call(client, line, &reply, &error);
  }
  const double t1 = now_s();
  if (!sent) {
    tally.fail(std::string(span_name) + ": " + error);
    return std::nullopt;
  }
  if (!reply_ok(reply)) {
    const Json* what = reply.get("error");
    tally.fail(std::string(span_name) + " refused: " +
               (what != nullptr ? what->as_string() : "?"));
    return std::nullopt;
  }
  if (latency_us != nullptr) {
    latency_us->push_back((t1 - t0) * 1e6);
  }
  return reply;
}

/// One daemon set-up: wormrtd in its own working directory, the
/// connection that admitted the population, and the handles it holds.
struct Deployment {
  std::string dir;
  Daemon daemon;
  svc::Client client;  // the set-up connection, kept for control calls
  std::vector<std::int64_t> held;  // slot -> handle (-1 none)
  std::vector<CoreDecision> setup_decisions;
  double setup_s = 0.0;

  std::string socket() const { return dir + "/p.sock"; }
};

/// Launches wormrtd and admits the population, one REQUEST per call,
/// over one connection.  setup_s runs from launch until the population
/// stands.  The journal is written but not fsync'd: see README.md.
bool deploy(const Options& o, const InputShape& shape, int threads,
            const std::vector<Row>& population, int index, Deployment* d,
            Tally& tally, Spans& spans, HostSpeed& host, std::string* error) {
  d->dir = o.run_dir + "/deploy" + std::to_string(index);
  remove_tree(d->dir);
  if (!make_dirs(d->dir, error)) {
    return false;
  }
  const std::vector<std::string> argv = {
      o.wormrtd,     "--socket",   "p.sock",
      "--mesh",      std::to_string(shape.cols) + "x" + std::to_string(shape.rows),
      "--threads",   std::to_string(threads),
      "--workers",   std::to_string(kWorkers),
      "--state-dir", "state",      "--no-journal-fsync",
      "--compact-every", std::to_string(kCompactEvery)};
  Span span(spans, "e2e.setup", index);
  const double t0 = now_s();
  if (!d->daemon.start(argv, d->dir, d->dir + "/wormrtd.log", 60.0, error) ||
      !connect(d->client, d->socket(), error)) {
    return false;
  }
  d->held.assign(population.size(), -1);
  double sampling_s = 0.0;
  for (std::size_t slot = 0; slot < population.size(); ++slot) {
    if (slot % kSampleEvery == 0) {
      sampling_s += host.sample();
    }
    const std::optional<Json> reply =
        tallied(d->client, request_line(population[slot]), tally, nullptr,
                spans, "e2e.setup_request");
    const CoreDecision decision =
        reply.has_value() ? decision_of(*reply) : CoreDecision{};
    d->setup_decisions.push_back(decision);
    d->held[slot] = decision.handle;
  }
  d->setup_s = now_s() - t0 - sampling_s;
  return true;
}

/// Scrapes METRICS; empty string on failure.
std::string scrape(svc::Client& client) {
  std::string text;
  std::string error;
  return client.call(verb_line("METRICS", -1), &text, &error) ? text : "";
}

double counter_delta(const std::string& before, const std::string& after,
                     const std::string& name) {
  return metric_value(after, name).value_or(0.0) -
         metric_value(before, name).value_or(0.0);
}

/// The final population's bounds, read over \p client, must equal a
/// from-scratch determine_feasibility of that population.
void check_population(svc::Client& client, const InputShape& shape,
                      const std::vector<Row>& population,
                      const std::vector<std::int64_t>& held, int threads,
                      Report& report) {
  Json snap;
  std::string error;
  if (!call(client, verb_line("SNAPSHOT", -1), &snap, &error) ||
      !reply_ok(snap) || snap.get("csv") == nullptr) {
    report.mismatch("SNAPSHOT failed: " + error);
    return;
  }
  std::istringstream in(snap.get("csv")->as_string());
  std::string line;
  std::getline(in, line);  // header: id,src,dst,priority,period,length,deadline
  std::vector<Row> rows;
  std::vector<std::int64_t> handles;
  while (std::getline(in, line)) {
    Row r;
    long long id = 0;
    if (std::sscanf(line.c_str(), "%lld,%ld,%ld,%ld,%ld,%ld,%ld", &id, &r.src,
                    &r.dst, &r.priority, &r.period, &r.length,
                    &r.deadline) != 7) {
      report.mismatch("SNAPSHOT row unparsable: " + line);
      return;
    }
    // Sources are unique per population, so the source names the slot.
    std::int64_t handle = -1;
    for (std::size_t slot = 0; slot < population.size(); ++slot) {
      if (population[slot].src == r.src) {
        handle = held[slot];
      }
    }
    if (handle < 0) {
      report.mismatch("SNAPSHOT holds a stream the clients do not");
      return;
    }
    rows.push_back(r);
    handles.push_back(handle);
  }
  const auto live = static_cast<std::size_t>(
      std::count_if(held.begin(), held.end(), [](auto h) { return h >= 0; }));
  if (rows.size() != live) {
    report.mismatch("SNAPSHOT has " + std::to_string(rows.size()) +
                    " streams, clients hold " + std::to_string(live));
    return;
  }
  const topo::Mesh mesh(shape.cols, shape.rows);
  const core::FeasibilityReport expected = core::determine_feasibility(
      to_stream_set(rows, mesh), daemon_config(threads));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Json q;
    if (!call(client, verb_line("QUERY", handles[i]), &q, &error) ||
        !reply_ok(q)) {
      report.mismatch("QUERY of a held handle failed: " + error);
      return;
    }
    const Json* bound = q.get("bound");
    if (bound == nullptr || bound->as_int(-2) != expected.streams[i].bound) {
      report.mismatch("bound of handle " + std::to_string(handles[i]) +
                      " differs from determine_feasibility");
    }
  }
}

void report_latency(Report& report, const std::string& what,
                    const std::vector<double>& us) {
  const auto n = static_cast<std::int64_t>(us.size());
  report.info(what + "_p50_us", percentile(us, 50), "us", n);
  report.info(what + "_p90_us", percentile(us, 90), "us", n);
  report.info(what + "_p99_us", percentile(us, 99), "us", n);
  report.info(what + "_p999_us", percentile(us, 99.9), "us", n);
}

/// The end-to-end set, scaled to the reference host's speed, plus the
/// measured figures under their workload names.
/// The tail is p90: on service_20, p99 spread 0.19 (IQR / median) over
/// five runs of 100k+ samples each, p90 0.07.
void finish(Report& report, const Tally& tally, double setup_s, int setups,
            double decisions_per_s, double rss_mib, const HostSpeed& host) {
  report.attempted = tally.attempted;
  report.failed += tally.failed;
  if (!tally.first_error.empty()) {
    std::fprintf(stderr, "perfbench: first failure: %s\n",
                 tally.first_error.c_str());
  }
  const std::vector<double>& us = tally.request_us;
  const auto decisions = static_cast<std::int64_t>(us.size());
  report.e2e("setup_s", setup_s, "s", setups);
  report.e2e("throughput_per_s", decisions_per_s, "1/s", decisions);
  report.e2e("latency_mid_us", interquartile_mean(us), "us", decisions);
  report.e2e("latency_tail_us", percentile(us, 90), "us", decisions);
  report.info("decisions_per_s", decisions_per_s, "1/s", decisions);
  report_latency(report, "decision", us);
  report.info("peak_rss_mb", rss_mib, "MiB", 1);
  report.normalize(host);
}

/// Journal counters over the measured phase, from the daemon's METRICS.
void journal_counters(const std::string& before, const std::string& after,
                      std::size_t decisions, LayerInput* in) {
  in->journal = JournalCounts{
      counter_delta(before, after, "wormrt_journal_appends_total"),
      counter_delta(before, after, "wormrt_journal_group_commits_total"),
      static_cast<double>(decisions)};
}

std::size_t count_held(const std::vector<std::int64_t>& held) {
  return static_cast<std::size_t>(
      std::count_if(held.begin(), held.end(), [](auto h) { return h >= 0; }));
}

}  // namespace

bool run_admit_200(const Options& o, Spans& spans, Report& report) {
  std::vector<Row> population;
  std::string error;
  const InputShape& shape = kAdmit200Shape;
  if (!load_rows(o.inputs + "/" + shape.file, &population, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  Tally tally;
  HostSpeed host;
  Deployment d;
  if (!deploy(o, shape, kAdmitThreads, population, 0, &d, tally, spans, host,
              &error)) {
    std::fprintf(stderr, "perfbench: admit_200 set-up: %s\n", error.c_str());
    return false;
  }
  const std::size_t n = population.size();
  const std::size_t admitted_at_setup = count_held(d.held);
  const std::string before = scrape(d.client);

  // Whole passes over the 200 slots, each visiting every slot once in
  // slot order.  The order is NOT seeded: a re-admitted stream moves to
  // the end of the engine's population order, analysis tie-breaks follow
  // that order, so the pass order changes later decisions and the pass
  // cost (10-13 decisions/s across seeds at --threads 1).  The seed
  // therefore changes nothing here; the inputs are the pinned population.
  std::vector<int> steps;
  std::vector<CoreDecision> step_decisions;
  std::vector<int> step_removes;
  double sampling_s = 0.0;
  const double t0 = now_s();
  for (int p = 0; p < admit_passes(o.seconds); ++p) {
    for (std::size_t s = 0; s < n; ++s) {
      if (s % kSampleEvery == 0) {
        sampling_s += host.sample();
      }
      int removed = -1;
      if (d.held[s] >= 0) {
        removed = tallied(d.client, verb_line("REMOVE", d.held[s]), tally,
                          nullptr, spans, "e2e.remove")
                      ? 1
                      : 0;
        d.held[s] = -1;
      }
      const std::optional<Json> reply =
          tallied(d.client, request_line(population[s]), tally,
                  &tally.request_us, spans, "e2e.request");
      const CoreDecision decision =
          reply.has_value() ? decision_of(*reply) : CoreDecision{};
      d.held[s] = decision.handle;
      steps.push_back(static_cast<int>(s));
      step_decisions.push_back(decision);
      step_removes.push_back(removed);
    }
  }
  const double elapsed = now_s() - t0 - sampling_s;
  const std::string after = scrape(d.client);
  const double rss = peak_rss_mib(d.daemon.pid());
  d.client.close();
  if (!d.daemon.stop()) {
    tally.fail("wormrtd did not shut down cleanly");
  }

  // Every decision must equal an in-process AdmissionController replay
  // with the daemon's config; traced runs time it as core.*.
  const core::AnalysisConfig config = daemon_config(kAdmitThreads);
  const CoreLog log = core_replay(population, shape.cols, shape.rows, steps,
                                  config, spans);
  for (std::size_t i = 0; i < log.requests.size(); ++i) {
    const CoreDecision& got =
        i < n ? d.setup_decisions[i] : step_decisions[i - n];
    if (!(got == log.requests[i])) {
      report.mismatch("decision " + std::to_string(i) +
                      " differs from the in-process replay");
    }
  }
  for (std::size_t i = 0; i < log.removes.size(); ++i) {
    if (log.removes[i] != step_removes[i]) {
      report.mismatch("REMOVE " + std::to_string(i) +
                      " differs from the in-process replay");
    }
  }

  finish(report, tally, d.setup_s, 1,
         static_cast<double>(tally.request_us.size()) / elapsed, rss, host);
  report.info("admitted_at_setup", static_cast<double>(admitted_at_setup),
              "count", static_cast<std::int64_t>(n));
  report.info("standing_after_passes", static_cast<double>(count_held(d.held)),
              "count", static_cast<std::int64_t>(n));

  if (o.trace) {
    LayerInput in;
    in.cols = shape.cols;
    in.rows = shape.rows;
    in.population = population;
    in.steps = steps;
    in.config = config;
    in.engine_bound = true;
    in.scratch = o.run_dir + "/layers";
    journal_counters(before, after, tally.request_us.size(), &in);
    if (!make_dirs(in.scratch, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return false;
    }
    measure_layers(in, spans, report, &log);
  }
  return true;
}

namespace {

/// service_20's mutating connection: churns every slot in seeded whole
/// passes until \p stop_at.  A step is REMOVE (when held), REQUEST, and
/// QUERY of the new handle.  \p steps records the slot order; host
/// samples taken between steps add their time to \p sampling_s.
void churn_connection(const Options& o, const std::string& socket,
                      const std::vector<Row>& population,
                      std::vector<std::int64_t>& held, double stop_at,
                      Tally& tally, Spans& spans, std::vector<int>* steps,
                      HostSpeed& host, double* sampling_s) {
  svc::Client client;
  std::string error;
  if (!connect(client, socket, &error)) {
    tally.fail("connect: " + error);
    return;
  }
  Rng rng(o.seed);
  double next_sample = now_s();
  while (now_s() < stop_at) {
    for (const int k : rng.permutation(static_cast<int>(population.size()))) {
      if (now_s() >= next_sample) {
        *sampling_s += host.sample();
        next_sample = now_s() + kSampleInterval_s;
      }
      const auto s = static_cast<std::size_t>(k);
      if (held[s] >= 0) {
        (void)tallied(client, verb_line("REMOVE", held[s]), tally, nullptr,
                      spans, "e2e.remove");
        held[s] = -1;
      }
      const std::optional<Json> reply =
          tallied(client, request_line(population[s]), tally,
                  &tally.request_us, spans, "e2e.request");
      const CoreDecision decision =
          reply.has_value() ? decision_of(*reply) : CoreDecision{};
      held[s] = decision.handle;
      steps->push_back(k);
      if (decision.admitted) {
        (void)tallied(client, verb_line("QUERY", decision.handle), tally,
                      &tally.read_us, spans, "e2e.query");
      }
    }
  }
}

/// The operator's scraper: HEALTH + METRICS on its own connection at a
/// fixed rate, so the read load does not scale with write throughput.
void scrape_connection(const std::string& socket, double stop_at,
                       Tally& tally) {
  svc::Client client;
  std::string error;
  if (!connect(client, socket, &error)) {
    tally.fail("connect: " + error);
    return;
  }
  Spans quiet(false);
  for (double next = now_s(); next < stop_at; next += 1.0 / kScrapeHz) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, next - now_s())));
    (void)tallied(client, verb_line("HEALTH", -1), tally, &tally.read_us,
                  quiet, "e2e.health");
    (void)tallied(client, verb_line("METRICS", -1), tally, &tally.read_us,
                  quiet, "e2e.metrics");
  }
}

}  // namespace

bool run_service_20(const Options& o, Spans& spans, Report& report) {
  std::vector<Row> population;
  std::string error;
  const InputShape& shape = kService20Shape;
  if (!load_rows(o.inputs + "/" + shape.file, &population, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  Tally tally;
  HostSpeed host;
  // Several set-ups, each a fresh daemon and state dir; the last one
  // serves the measured phase.  Earlier ones only time the launch.
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  for (int k = 0; k < kServiceSetups; ++k) {
    if (d != nullptr) {
      d->daemon.kill();
    }
    d = std::make_unique<Deployment>();
    if (!deploy(o, shape, kServiceThreads, population, k, d.get(), tally,
                spans, host, &error)) {
      std::fprintf(stderr, "perfbench: service_20 set-up: %s\n",
                   error.c_str());
      return false;
    }
    setups.push_back(d->setup_s);
  }
  const std::string before = scrape(d->client);

  // The mutating connection plus the scraper, for o.seconds.  Spans are
  // single-threaded: only the mutating connection records them.
  Tally scraped;
  std::vector<int> steps;
  const double t0 = now_s();
  std::thread scraper(
      [&] { scrape_connection(d->socket(), t0 + o.seconds, scraped); });
  double sampling_s = 0.0;
  churn_connection(o, d->socket(), population, d->held, t0 + o.seconds,
                   tally, spans, &steps, host, &sampling_s);
  const double elapsed = now_s() - t0 - sampling_s;
  scraper.join();
  tally.merge(scraped);

  const std::string after = scrape(d->client);
  check_population(d->client, shape, population, d->held, kServiceThreads,
                   report);
  const double rss = peak_rss_mib(d->daemon.pid());
  d->client.close();
  if (!d->daemon.stop()) {
    tally.fail("wormrtd did not shut down cleanly");
  }
  finish(report, tally, interquartile_mean(setups), kServiceSetups,
         static_cast<double>(tally.request_us.size()) / elapsed, rss, host);
  report_latency(report, "read", tally.read_us);

  if (o.trace) {
    LayerInput in;
    in.cols = shape.cols;
    in.rows = shape.rows;
    in.population = population;
    // One churn pass: the first population.size() steps.
    steps.resize(std::min(steps.size(), population.size()));
    in.steps = steps;
    in.config = daemon_config(kServiceThreads);
    in.scratch = o.run_dir + "/layers";
    journal_counters(before, after, tally.request_us.size(), &in);
    if (!make_dirs(in.scratch, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return false;
    }
    measure_layers(in, spans, report, nullptr);
  }
  return true;
}

}  // namespace perfbench
