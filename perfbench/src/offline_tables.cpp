// offline_tables: the paper's offline path in process.  Each pinned raw
// draw (Table-5-shaped: 10x10 mesh, 60 streams, 15 levels) is planned
// with adjust_periods_to_bounds + determine_feasibility at the paper's
// horizon, then validated with flitsim at buffer depth 2 through the
// conformance monitor.

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "core/feasibility.hpp"
#include "core/workload.hpp"
#include "flitsim/flit_sim.hpp"
#include "layers.hpp"
#include "obs/conformance.hpp"
#include "obs/metrics.hpp"
#include "topo/mesh.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace wormrt;

namespace {

// Set-up probes per run: each one is a fresh process, so its time is
// dominated by process start.  setup_s is their interquartile mean.
constexpr int kSetupProbes = 31;

bool load_draws(const std::string& inputs,
                std::vector<std::vector<Row>>* sets, std::string* error) {
  std::vector<Row> rows;
  if (!load_rows(inputs + "/" + kOfflineShape.file, &rows, error)) {
    return false;
  }
  *sets = split_sets(rows);
  return true;
}

}  // namespace

int probe_offline_setup(const std::string& inputs) {
  std::vector<std::vector<Row>> sets;
  std::string error;
  if (!load_draws(inputs, &sets, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  const topo::Mesh mesh(kOfflineShape.cols, kOfflineShape.rows);
  std::size_t streams = 0;
  for (const std::vector<Row>& set : sets) {
    streams += to_stream_set(set, mesh).size();
  }
  std::printf("READY %zu streams\n", streams);
  std::fflush(stdout);
  return 0;
}

bool run_offline_tables(const Options& o, Spans& spans, Report& report) {
  std::vector<std::vector<Row>> sets;
  std::string error;
  if (!load_draws(o.inputs, &sets, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }

  // Set-up: process start until the first plan call would begin.
  HostSpeed host;
  std::vector<double> setups;
  for (int k = 0; k < kSetupProbes; ++k) {
    host.sample();
    Daemon probe;
    Span span(spans, "e2e.setup", k);
    const double t0 = now_s();
    if (!probe.start({o.self, "--probe-setup", "--inputs", o.inputs}, ".",
                     o.run_dir + "/probe.log", 60.0, &error)) {
      std::fprintf(stderr, "perfbench: set-up probe: %s\n", error.c_str());
      return false;
    }
    setups.push_back(now_s() - t0);
    probe.stop();
  }

  const topo::Mesh mesh(kOfflineShape.cols, kOfflineShape.rows);
  obs::Registry registry;
  obs::ConformanceMonitor monitor(registry);
  std::vector<double> plan_us;
  std::vector<double> validate_us;
  std::vector<double> set_us;
  std::vector<double> iterations;
  std::vector<double> events;
  std::vector<Row> first_planned;
  std::int64_t handle = 0;
  Rng rng(o.seed);
  double sampling_s = 0.0;
  const double t0 = now_s();
  // Whole passes over the pinned draws, each in a seeded order.  One pass
  // takes 8-12 s on a 4-vCPU 2.1 GHz VM; the pass count depends on
  // --seconds only, so every run does the same work.
  const int passes = std::max(1, o.seconds / 10);
  for (int pass = 0; pass < passes; ++pass) {
    for (const int k : rng.permutation(static_cast<int>(sets.size()))) {
      const std::vector<Row>& draw = sets[static_cast<std::size_t>(k)];
      ++report.attempted;
      sampling_s += host.sample();
      const double s0 = now_s();
      core::StreamSet streams = to_stream_set(draw, mesh);
      core::FeasibilityReport feasibility;
      {
        Span span(spans, "core.plan_adjust", k);
        iterations.push_back(static_cast<double>(
            core::adjust_periods_to_bounds(streams).iterations));
      }
      {
        Span span(spans, "core.plan_feasibility", k);
        feasibility = core::determine_feasibility(streams);
      }
      const double s1 = now_s();
      flitsim::FlitSimConfig fc;
      fc.duration = 30000;
      fc.warmup = 2000;
      fc.vc_buffer_depth = 2;
      flitsim::FlitSimulator sim(mesh, streams, fc);
      flitsim::FlitSimResult result;
      {
        Span span(spans, "flitsim.run", k);
        result = sim.run();
      }
      std::uint64_t violations = 0;
      for (const core::MessageStream& s : streams) {
        const Time bound =
            feasibility.streams[static_cast<std::size_t>(s.id)].bound;
        const Time worst = result.per_stream[static_cast<std::size_t>(s.id)].worst;
        if (worst == kNoTime) {
          continue;  // no message completed inside the window
        }
        // The validity domain: U + 2 <= T (DESIGN.md §13).
        const bool flit_valid = bound != kNoTime && bound + 2 <= s.period;
        violations += monitor
                          .report(handle++, static_cast<double>(worst),
                                  static_cast<double>(bound),
                                  static_cast<double>(s.period), flit_valid)
                          .violation
                          ? 1
                          : 0;
      }
      const double s2 = now_s();
      events.push_back(static_cast<double>(result.events_processed));
      plan_us.push_back((s1 - s0) * 1e6);
      validate_us.push_back((s2 - s1) * 1e6);
      set_us.push_back((s2 - s0) * 1e6);
      if (violations != 0) {
        report.mismatch("set " + std::to_string(k) + ": " +
                        std::to_string(violations) +
                        " conformance violations on the flit-valid domain");
      }
      if (result.flits_injected != result.flits_delivered || !result.drained) {
        report.mismatch("set " + std::to_string(k) + ": flits injected " +
                        std::to_string(result.flits_injected) +
                        " != delivered " +
                        std::to_string(result.flits_delivered));
      }
      if (first_planned.empty()) {
        for (const core::MessageStream& s : streams) {
          first_planned.push_back({0, s.src, s.dst, s.priority, s.period,
                                   s.length, s.deadline});
        }
      }
    }
  }
  const double elapsed = now_s() - t0 - sampling_s;

  const auto n = static_cast<std::int64_t>(set_us.size());
  const double rss = peak_rss_mib(::getpid());
  const double setup_s = interquartile_mean(setups);
  report.e2e("setup_s", setup_s, "s", kSetupProbes);
  report.e2e("throughput_per_s", static_cast<double>(n) / elapsed, "1/s", n);
  report.e2e("latency_mid_us", interquartile_mean(set_us), "us", n);
  report.e2e("latency_tail_us", percentile(set_us, 90), "us", n);
  report.info("sets_per_s", static_cast<double>(n) / elapsed, "1/s", n);
  report.info("plan_p50_ms", percentile(plan_us, 50) / 1e3, "ms", n);
  report.info("validate_p50_ms", percentile(validate_us, 50) / 1e3, "ms", n);
  report.info("peak_rss_mb", rss, "MiB", 1);
  report.normalize(host);

  if (o.trace) {
    // The remaining layers replay the first planned set: admitted one
    // stream at a time, then one churn pass in seeded order.
    LayerInput in;
    in.cols = kOfflineShape.cols;
    in.rows = kOfflineShape.rows;
    in.population = first_planned;
    in.steps = Rng(o.seed).permutation(static_cast<int>(first_planned.size()));
    core::AnalysisConfig config;
    config.credit_slack_guard = true;
    in.config = config;
    in.scratch = o.run_dir + "/layers";
    in.plan_and_simulate = false;
    in.adjust_iterations = iterations;
    in.flit_events = events;
    if (!make_dirs(in.scratch, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return false;
    }
    measure_layers(in, spans, report, nullptr);
  }
  return true;
}

}  // namespace perfbench
