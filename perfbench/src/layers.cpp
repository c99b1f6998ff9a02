#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "core/admission.hpp"
#include "core/delay_bound.hpp"
#include "core/feasibility.hpp"
#include "core/workload.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/mesh.hpp"

namespace perfbench {

using namespace wormrt;
using svc::Json;

std::string request_line(const Row& r) {
  Json rq = Json::object();
  rq.set("verb", "REQUEST");
  rq.set("src", r.src);
  rq.set("dst", r.dst);
  rq.set("priority", r.priority);
  rq.set("period", r.period);
  rq.set("length", r.length);
  rq.set("deadline", r.deadline);
  return rq.dump();
}

std::string verb_line(const char* verb, std::int64_t handle) {
  Json rq = Json::object();
  rq.set("verb", verb);
  if (handle >= 0) {
    rq.set("handle", handle);
  }
  return rq.dump();
}

bool reply_ok(const Json& reply) {
  const Json* ok = reply.get("ok");
  return ok != nullptr && ok->as_bool();
}

CoreDecision decision_of(const Json& reply) {
  CoreDecision d;
  const Json* admitted = reply.get("admitted");
  const Json* bound = reply.get("bound");
  const Json* handle = reply.get("handle");
  const Json* order = reply.get("route_order");
  d.admitted = admitted != nullptr && admitted->as_bool();
  d.bound = bound != nullptr ? bound->as_int(-1) : -1;
  d.handle = d.admitted && handle != nullptr ? handle->as_int(-1) : -1;
  d.route_order = d.admitted && order != nullptr ? order->as_int(0) : 0;
  return d;
}

namespace {

// Steps the service and follower replays cover (see measure_layers).
constexpr std::size_t kLayerSteps = 50;

svc::JournalEntry entry_of(const Row& r, std::int64_t handle,
                           std::int64_t route_order) {
  svc::JournalEntry e;
  e.handle = handle;
  e.src = r.src;
  e.dst = r.dst;
  e.priority = r.priority;
  e.period = r.period;
  e.length = r.length;
  e.deadline = r.deadline;
  e.route_order = route_order;
  return e;
}

/// Element-wise a - b over the common prefix.
std::vector<double> minus(const std::vector<double>& a,
                          const std::vector<double>& b) {
  std::vector<double> out;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    out.push_back(a[i] - b[i]);
  }
  return out;
}

void layer_p(Report& report, const std::string& name,
             const std::vector<double>& us, double q) {
  report.layer(name, percentile(us, q), "us",
               static_cast<std::int64_t>(us.size()));
}

}  // namespace

CoreLog core_replay(const std::vector<Row>& population, int cols, int rows,
                    const std::vector<int>& steps,
                    const core::AnalysisConfig& config, Spans& spans) {
  topo::Mesh mesh(cols, rows);
  const route::XYRouting xy;
  core::AdmissionController ctrl(mesh, xy, config);
  CoreLog log;
  std::vector<std::int64_t> held(population.size(), -1);
  std::uint64_t lsn = 0;
  std::int64_t request_id = 0;

  const auto request = [&](std::size_t slot, const char* span_name,
                           int parent) {
    const Row& r = population[slot];
    core::AdmissionController::Decision d;
    {
      Span span(spans, span_name, request_id, parent);
      d = ctrl.request(static_cast<topo::NodeId>(r.src),
                       static_cast<topo::NodeId>(r.dst),
                       static_cast<Priority>(r.priority), r.period, r.length,
                       r.deadline);
    }
    CoreDecision cd;
    cd.admitted = d.admitted;
    cd.bound = d.bound;
    cd.handle = d.admitted ? d.handle : -1;
    cd.route_order = d.admitted ? d.route_order : 0;
    log.requests.push_back(cd);
    log.rejected.push_back(!d.admitted);
    if (d.admitted) {
      held[slot] = d.handle;
      log.records.push_back({svc::JournalRecord::Type::kAdd, ++lsn,
                             entry_of(r, d.handle, d.route_order)});
    }
    return cd;
  };

  {
    Span setup(spans, "core.admit_population");
    for (std::size_t slot = 0; slot < population.size(); ++slot) {
      request(slot, "core.setup_request", setup.index());
      ++request_id;
    }
  }
  log.setup_records = log.records.size();
  for (const int step_slot : steps) {
    const auto slot = static_cast<std::size_t>(step_slot);
    const std::uint64_t before = ctrl.engine().stats().bound_recomputes;
    int removed = -1;
    if (held[slot] >= 0) {
      bool ok = false;
      {
        Span span(spans, "core.remove", request_id);
        ok = ctrl.remove(held[slot]);
      }
      removed = ok ? 1 : 0;
      if (ok) {
        svc::JournalEntry e;
        e.handle = held[slot];
        log.records.push_back({svc::JournalRecord::Type::kRemove, ++lsn, e});
      }
      held[slot] = -1;
    }
    log.removes.push_back(removed);
    const CoreDecision d = request(slot, "core.request", -1);
    if (d.admitted) {
      Span span(spans, "core.query", request_id);
      (void)ctrl.bound_of(d.handle);
    }
    log.step_recomputes.push_back(
        static_cast<double>(ctrl.engine().stats().bound_recomputes - before));
    log.records_after_step.push_back(log.records.size());
    ++request_id;
  }
  log.standing = ctrl.snapshot();
  return log;
}

std::optional<double> metric_value(const std::string& metrics_reply,
                                   const std::string& name) {
  std::string error;
  const Json reply = Json::parse(metrics_reply, &error);
  const Json* outer = error.empty() ? reply.get("metrics") : nullptr;
  const Json* list = outer != nullptr ? outer->get("metrics") : nullptr;
  if (list == nullptr || !list->is_array()) {
    return std::nullopt;
  }
  std::optional<double> total;
  for (const Json& m : list->items()) {
    const Json* n = m.get("name");
    if (n == nullptr || n->as_string() != name) {
      continue;
    }
    const Json* v = m.get("value");
    if (v == nullptr) {
      v = m.get("count");
    }
    if (v != nullptr) {
      total = total.value_or(0.0) + v->as_double();
    }
  }
  return total;
}

void measure_layers(const LayerInput& in, Spans& spans, Report& report,
                    const CoreLog* core) {
  const std::size_t n = in.population.size();
  const CoreLog log =
      core != nullptr ? *core
                      : core_replay(in.population, in.cols, in.rows, in.steps,
                                    in.config, spans);

  // --- core: the online engine ---
  const std::vector<double> core_request = spans.durations_us("core.request");
  const std::vector<double> core_remove = spans.durations_us("core.remove");
  const std::vector<double> core_query = spans.durations_us("core.query");
  layer_p(report, "core.request_p50_us", core_request, 50);
  layer_p(report, "core.request_p90_us", core_request, 90);
  layer_p(report, "core.remove_p50_us", core_remove, 50);
  report.layer("core.bounds_per_step", mean(log.step_recomputes), "count",
               static_cast<std::int64_t>(log.step_recomputes.size()));
  double rejected_us = 0.0;
  for (std::size_t i = 0; i < core_request.size(); ++i) {
    if (log.rejected[n + i]) {
      rejected_us += core_request[i];
    }
  }
  const double request_total = sum(core_request);
  report.layer("core.rejected_work_share",
               request_total > 0 ? rejected_us / request_total : 0.0, "ratio",
               static_cast<std::int64_t>(core_request.size()));
  report.layer("core.admit_population_s",
               sum(spans.durations_us("core.admit_population")) / 1e6, "s", 1);

  std::vector<double> horizons;
  {
    const core::BlockingAnalysis blocking(
        log.standing, core::BlockingOptions{in.config.same_priority_blocks,
                                            in.config.ejection_port_overlap,
                                            in.config.injection_port_overlap});
    const core::DelayBoundCalculator calc(log.standing, blocking, in.config);
    for (std::size_t j = 0; j < log.standing.size(); ++j) {
      Span span(spans, "core.calu", static_cast<std::int64_t>(j));
      horizons.push_back(static_cast<double>(
          calc.calc(static_cast<StreamId>(j)).horizon_used));
    }
  }
  layer_p(report, "core.calu_p50_us", spans.durations_us("core.calu"), 50);
  report.layer("core.horizon_slots", mean(horizons), "slots",
               static_cast<std::int64_t>(horizons.size()));

  // --- offline planning and flitsim, unless the workload times them ---
  std::vector<double> iterations = in.adjust_iterations;
  std::vector<double> events = in.flit_events;
  if (in.plan_and_simulate) {
    topo::Mesh mesh(in.cols, in.rows);
    core::StreamSet plan = to_stream_set(in.population, mesh);
    {
      Span span(spans, "core.plan_adjust");
      iterations.push_back(
          static_cast<double>(core::adjust_periods_to_bounds(plan).iterations));
    }
    {
      Span span(spans, "core.plan_feasibility");
      (void)core::determine_feasibility(plan);
    }
    flitsim::FlitSimConfig fc;
    fc.duration = 30000;
    fc.warmup = 2000;
    fc.vc_buffer_depth = 2;
    flitsim::FlitSimulator sim(mesh, log.standing, fc);
    flitsim::FlitSimResult result;
    {
      Span span(spans, "flitsim.run");
      result = sim.run();
    }
    events.push_back(static_cast<double>(result.events_processed));
    if (result.flits_injected != result.flits_delivered) {
      report.mismatch("flitsim on the standing population lost flits");
    }
  }
  const std::vector<double> adjust_us = spans.durations_us("core.plan_adjust");
  const std::vector<double> feas_us =
      spans.durations_us("core.plan_feasibility");
  const std::vector<double> flit_us = spans.durations_us("flitsim.run");
  report.layer("core.plan_adjust_ms", percentile(adjust_us, 50) / 1e3, "ms",
               static_cast<std::int64_t>(adjust_us.size()));
  report.layer("core.plan_feasibility_ms", percentile(feas_us, 50) / 1e3, "ms",
               static_cast<std::int64_t>(feas_us.size()));
  report.layer("core.adjust_iterations", mean(iterations), "count",
               static_cast<std::int64_t>(iterations.size()));
  report.layer("flitsim.run_ms", percentile(flit_us, 50) / 1e3, "ms",
               static_cast<std::int64_t>(flit_us.size()));
  report.layer("flitsim.events_per_set", mean(events), "count",
               static_cast<std::int64_t>(events.size()));
  report.layer("flitsim.events_per_s",
               sum(flit_us) > 0 ? sum(events) / (sum(flit_us) / 1e6) : 0.0,
               "1/s", static_cast<std::int64_t>(events.size()));

  // --- svc.service + svc.json: the same operations as protocol lines ---
  bool ok = true;
  const route::XYRouting xy;
  topo::Mesh svc_mesh(in.cols, in.rows);
  svc::ServiceOptions options;
  options.state_dir = in.scratch + "/service";
  options.journal_fsync = false;  // as the daemons run
  remove_tree(options.state_dir);
  svc::Service service(svc_mesh, xy, in.config, options);
  std::string error;
  if (!service.open_state(&error)) {
    report.mismatch("in-process service: " + error);
    return;
  }
  std::int64_t request_id = 0;
  const auto call = [&](const char* span_name, const std::string& line) {
    std::string parse_error;
    {
      Span span(spans, "svc.json.parse", request_id);
      (void)Json::parse(line, &parse_error);
    }
    std::string reply_line;
    {
      Span span(spans, span_name, request_id);
      reply_line = service.handle_line(line);
    }
    Json reply;
    {
      Span span(spans, "svc.json.parse", request_id);
      reply = Json::parse(reply_line, &parse_error);
    }
    {
      Span span(spans, "svc.json.dump", request_id);
      (void)reply.dump();
    }
    return reply;
  };
  std::vector<std::int64_t> held(n, -1);
  std::size_t decision = 0;
  const auto request = [&](std::size_t slot, const char* span_name) {
    const Json reply = call(span_name, request_line(in.population[slot]));
    const CoreDecision d = decision_of(reply);
    if (!reply_ok(reply) || !(d == log.requests[decision])) {
      report.mismatch("in-process service decision " +
                      std::to_string(decision) + " differs from the core");
      ok = false;
    }
    ++decision;
    held[slot] = d.handle;
    return d;
  };
  for (std::size_t slot = 0; slot < n; ++slot) {
    request(slot, "svc.service.setup_request");
    ++request_id;
  }
  // The service and follower replays cover the setup and the first
  // kLayerSteps steps: on admit_200 each replays seconds of engine work.
  const std::size_t steps = std::min(in.steps.size(), kLayerSteps);
  for (std::size_t i = 0; i < steps; ++i) {
    const auto slot = static_cast<std::size_t>(in.steps[i]);
    if (held[slot] >= 0) {
      if (!reply_ok(call("svc.service.remove", verb_line("REMOVE", held[slot])))) {
        report.mismatch("in-process service REMOVE failed");
        ok = false;
      }
      held[slot] = -1;
    }
    const CoreDecision d = request(slot, "svc.service.request");
    if (d.admitted) {
      (void)call("svc.service.query", verb_line("QUERY", d.handle));
    }
    ++request_id;
  }
  if (!ok) {
    return;
  }
  layer_p(report, "svc.json.parse_p50_us", spans.durations_us("svc.json.parse"),
          50);
  layer_p(report, "svc.json.dump_p50_us", spans.durations_us("svc.json.dump"),
          50);
  for (const auto& [verb, core_us] :
       {std::pair{"request", &core_request}, std::pair{"remove", &core_remove},
        std::pair{"query", &core_query}}) {
    layer_p(report, std::string("svc.service.") + verb + "_self_p50_us",
            minus(spans.durations_us(std::string("svc.service.") + verb),
                  *core_us),
            50);
    if (in.engine_bound) {
      report.per_layer.back().note =
          "unresolved: engine jitter exceeds the service's self time";
    }
  }

  // --- obs: the exposition and HEALTH an operator scrapes ---
  for (int k = 0; k < 50; ++k) {
    {
      Span span(spans, "obs.metrics_render", k);
      (void)service.prometheus_text();
    }
    Span span(spans, "obs.health", k);
    (void)service.handle_line(verb_line("HEALTH", -1));
  }
  layer_p(report, "obs.metrics_render_p50_us",
          spans.durations_us("obs.metrics_render"), 50);
  layer_p(report, "obs.health_p50_us", spans.durations_us("obs.health"), 50);

  // --- svc.server: socket round trip minus in-process handle_line ---
  {
    svc::ServerConfig sc;
    sc.unix_path = in.scratch + "/layers.sock";
    svc::Server server(service, sc);
    svc::Client client;
    client.set_timeout_ms(30000);
    if (!server.start(&error) || !client.connect_unix(sc.unix_path, &error)) {
      report.mismatch("in-process server: " + error);
      return;
    }
    std::vector<std::int64_t> live;
    for (const std::int64_t h : held) {
      if (h >= 0) {
        live.push_back(h);
      }
    }
    std::vector<double> wire;
    for (int k = 0; k < 2000 && !live.empty(); ++k) {
      const std::string line =
          verb_line("QUERY", live[static_cast<std::size_t>(k) % live.size()]);
      const double t0 = now_s();
      (void)service.handle_line(line);
      const double t1 = now_s();
      std::string reply;
      Span span(spans, "svc.server.roundtrip", k);
      if (!client.call(line, &reply, &error)) {
        report.mismatch("in-process server call: " + error);
        return;
      }
      wire.push_back((now_s() - t1 - (t1 - t0)) * 1e6);
    }
    client.close();
    server.stop();
    layer_p(report, "svc.server.wire_p50_us", wire, 50);
    layer_p(report, "svc.server.wire_p99_us", wire, 99);
  }

  // --- svc.journal: append of this history's records ---
  {
    svc::JournalConfig jc;
    jc.dir = in.scratch + "/journal";
    jc.fsync_data = false;  // as the daemons run
    remove_tree(jc.dir);
    jc.fingerprint = topo::Mesh(in.cols, in.rows).fingerprint();
    svc::Journal journal(jc);
    svc::RecoveredState state;
    if (!journal.open(&state, &error)) {
      report.mismatch("journal open: " + error);
      return;
    }
    for (const svc::JournalRecord& r : log.records) {
      Span span(spans, "svc.journal.append", static_cast<std::int64_t>(r.lsn));
      if (!journal.append(r.type, r.entry, &error)) {
        report.mismatch("journal append: " + error);
        return;
      }
    }
  }
  layer_p(report, "svc.journal.append_p50_us",
          spans.durations_us("svc.journal.append"), 50);
  const JournalCounts counts = in.journal.value_or(JournalCounts{
      static_cast<double>(
          service.registry().counter("wormrt_journal_appends_total", {})
              .value()),
      static_cast<double>(
          service.registry()
              .counter("wormrt_journal_group_commits_total", {})
              .value()),
      static_cast<double>(n + steps)});  // the in-process service's
  report.layer("svc.journal.records_per_commit",
               counts.commits > 0 ? counts.appends / counts.commits : 0.0,
               "ratio", static_cast<std::int64_t>(counts.commits));
  report.layer("svc.journal.commits_per_decision",
               counts.decisions > 0 ? counts.commits / counts.decisions : 0.0,
               "ratio", static_cast<std::int64_t>(counts.decisions));

  // --- svc.replication: a follower applying the primary's records ---
  {
    topo::Mesh follower_mesh(in.cols, in.rows);
    svc::ServiceOptions fo;
    fo.state_dir = in.scratch + "/follower";
    fo.follower = true;
    // fsync stays on here: it is what follower_fsyncs_per_record counts.
    remove_tree(fo.state_dir);
    svc::Service follower(follower_mesh, xy, in.config, fo);
    if (!follower.open_state(&error)) {
      report.mismatch("in-process follower: " + error);
      return;
    }
    const std::size_t records =
        steps > 0 ? log.records_after_step[steps - 1] : log.setup_records;
    for (std::size_t i = 0; i < records; ++i) {
      const svc::JournalRecord& r = log.records[i];
      Span span(spans, "svc.replication.apply",
                static_cast<std::int64_t>(r.lsn));
      if (!follower.apply_replicated(r, &error)) {
        report.mismatch("follower apply: " + error);
        return;
      }
    }
    const double fsyncs = static_cast<double>(
        follower.registry()
            .histogram("wormrt_journal_fsync_us", 0.0, 50000.0, 1000, {})
            .count());
    report.layer("svc.replication.follower_fsyncs_per_record",
                 fsyncs / static_cast<double>(records), "ratio",
                 static_cast<std::int64_t>(records));
  }
  layer_p(report, "svc.replication.apply_p50_us",
          spans.durations_us("svc.replication.apply"), 50);
}

}  // namespace perfbench
