// Measured slack distribution on the paper's Table 1-5 workloads: how
// much headroom separates the flit-accurate worst observed latency of
// every stream from its analytic bound U_i?
//
//   ./bench/slack_report [--replications 5] [--depth 2] [--seed 1]
//
// Pipeline per table: the Section 5 workload draw (10x10 mesh, X-Y
// routing), the paper's period adjustment, then a flitsim run whose
// per-stream worst generation-to-delivery delays are fed through
// obs::ConformanceMonitor exactly the way wormrtd's REPORT verb feeds
// it — so this bench is also an end-to-end check that the monitor
// counts zero violations on sound populations (exit 1 otherwise).
//
// Two slack views per stream:
//   analytic  (T_i - U_i) / T_i  — admission headroom after adjustment,
//   measured  (U_i - worst) / U_i — the pessimism the bound carries over
//                                   the exact flit-level worst case.
// The measured column is the empirical groundwork for tighter analysis
// backends (ROADMAP item 1): it is the gap a less pessimistic bound
// could reclaim.  Distributions are reported as min/p10/p50/p90/max
// across streams x replications (EXPERIMENTS.md "measured slack").

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/admission.hpp"
#include "core/delay_bound.hpp"
#include "core/workload.hpp"
#include "flitsim/flit_sim.hpp"
#include "obs/conformance.hpp"
#include "obs/metrics.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace wormrt {
namespace {

struct TableConfig {
  const char* name;
  int streams;
  int levels;
};

constexpr TableConfig kTables[] = {
    {"Table 1 (1x20)", 20, 1},  {"Table 2 (1x60)", 60, 1},
    {"Table 3 (4x20)", 20, 4},  {"Table 4 (5x20)", 20, 5},
    {"Table 5 (15x60)", 60, 15},
};

double pct(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
  return v[std::min(rank, n - 1)];
}

}  // namespace

int run(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int replications = static_cast<int>(args.get_int("replications", 5));
  const int depth = static_cast<int>(args.get_int("depth", 2));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  topo::Mesh mesh(10, 10);
  const route::XYRouting xy;

  std::printf("slack_report: 10x10 mesh, X-Y routing, flit-accurate "
              "backend (depth %d), %d replications\n",
              depth, replications);
  util::Table table({"workload", "streams", "flit-valid", "analytic p50",
                     "measured min", "p10", "p50", "p90", "max"});

  obs::Registry registry;
  obs::ConformanceMonitor monitor(registry);
  std::int64_t handle = 0;
  bool failed = false;

  for (const TableConfig& cfg : kTables) {
    std::vector<double> analytic;   // (T - U) / T, flit-valid streams
    std::vector<double> measured;   // (U - worst) / U, flit-valid streams
    int measured_streams = 0;
    int valid_streams = 0;

    for (int rep = 0; rep < replications; ++rep) {
      core::WorkloadParams wp;
      wp.num_streams = cfg.streams;
      wp.priority_levels = cfg.levels;
      wp.seed = seed + static_cast<std::uint64_t>(rep) * 0x9e37u;
      core::StreamSet streams = core::generate_workload(mesh, xy, wp);
      const core::AdjustResult adjusted =
          core::adjust_periods_to_bounds(streams);

      flitsim::FlitSimConfig fc;
      fc.duration = 30000;
      fc.warmup = 2000;
      fc.vc_buffer_depth = depth;
      flitsim::FlitSimulator sim(mesh, streams, fc);
      const flitsim::FlitSimResult fr = sim.run();

      for (const auto& s : streams) {
        const Time bound = adjusted.bounds[static_cast<std::size_t>(s.id)];
        const Time worst =
            fr.per_stream[static_cast<std::size_t>(s.id)].worst;
        // The monitor's validity domain: the bound survives credit flow
        // control only with a round-trip of slack (DESIGN.md §13).
        const bool flit_valid = core::flit_valid(bound, s.period);
        valid_streams += flit_valid ? 1 : 0;
        if (worst == kNoTime) {
          continue;  // silent stream: period adjusted past the window
        }
        const auto outcome = monitor.report(
            handle++, static_cast<double>(worst),
            static_cast<double>(bound), static_cast<double>(s.period),
            flit_valid);
        if (outcome.violation) {
          std::fprintf(stderr,
                       "%s rep %d stream %d: worst %lld EXCEEDS bound "
                       "%lld (T %lld)\n",
                       cfg.name, rep, static_cast<int>(s.id),
                       static_cast<long long>(worst),
                       static_cast<long long>(bound),
                       static_cast<long long>(s.period));
          failed = true;
        }
        if (!flit_valid) {
          continue;  // no claim outside the validity domain
        }
        ++measured_streams;
        analytic.push_back(static_cast<double>(s.period - bound) /
                           static_cast<double>(s.period));
        measured.push_back(static_cast<double>(bound - worst) /
                           static_cast<double>(bound));
      }
    }

    if (measured.empty()) {
      continue;
    }
    table.row()
        .cell(cfg.name)
        .cell(static_cast<std::int64_t>(measured_streams))
        .cell(static_cast<std::int64_t>(valid_streams))
        .cell(pct(analytic, 0.5), 3)
        .cell(pct(measured, 0.0), 3)
        .cell(pct(measured, 0.1), 3)
        .cell(pct(measured, 0.5), 3)
        .cell(pct(measured, 0.9), 3)
        .cell(pct(measured, 1.0), 3);
  }

  std::printf("%s", table.to_ascii().c_str());
  std::printf("slack = (U - worst_observed) / U on flit-valid streams; "
              "conformance violations: %llu\n",
              static_cast<unsigned long long>(monitor.total_violations()));
  if (failed || monitor.total_violations() != 0) {
    std::fprintf(stderr, "slack_report: bound violations detected\n");
    return 1;
  }
  return 0;
}

}  // namespace wormrt

int main(int argc, char** argv) { return wormrt::run(argc, argv); }
