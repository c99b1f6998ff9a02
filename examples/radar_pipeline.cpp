// Domain scenario: a phased-array radar processing pipeline mapped onto
// a 4x4 multicomputer — the kind of hard-real-time workload the paper's
// introduction motivates.  Four antenna front-ends stream pulse data to
// beamformers, beamformers feed a tracker, the tracker reports to a
// display and issues steering commands back to the front-ends.  Every
// flow has a deadline; the host-processor feasibility test accepts or
// rejects the mapping, and a simulation confirms the accepted bounds.
//
//   ./examples/radar_pipeline [--tighten N]
//
// --tighten N scales all periods down by N percent to find the point
// where the mapping stops being schedulable.

#include <cstdio>

#include "core/feasibility.hpp"
#include "core/message_stream.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "util/cli.hpp"

using namespace wormrt;

namespace {

struct Flow {
  const char* name;
  std::int32_t sx, sy, dx, dy;
  Priority priority;
  Time period, length, deadline;
};

// Node map (4x4): column 0 = antenna front-ends, column 1 = beamformers,
// (2,1) = tracker, (3,0) = display, (3,3) = recorder.
constexpr Flow kFlows[] = {
    // Steering commands: small, urgent, highest priority.
    {"steer->fe0", 2, 1, 0, 0, 5, 200, 4, 40},
    {"steer->fe1", 2, 1, 0, 1, 5, 200, 4, 40},
    {"steer->fe2", 2, 1, 0, 2, 5, 200, 4, 40},
    {"steer->fe3", 2, 1, 0, 3, 5, 200, 4, 40},
    // Pulse data: antenna -> beamformer, tight periodic flows.
    {"pulse0", 0, 0, 1, 0, 4, 100, 20, 100},
    {"pulse1", 0, 1, 1, 1, 4, 100, 20, 100},
    {"pulse2", 0, 2, 1, 2, 4, 100, 20, 100},
    {"pulse3", 0, 3, 1, 3, 4, 100, 20, 100},
    // Beams: beamformer -> tracker.
    {"beam0", 1, 0, 2, 1, 3, 100, 16, 120},
    {"beam1", 1, 1, 2, 1, 3, 100, 16, 120},
    {"beam2", 1, 2, 2, 1, 3, 100, 16, 120},
    {"beam3", 1, 3, 2, 1, 3, 100, 16, 120},
    // Track reports: tracker -> display.
    {"tracks", 2, 1, 3, 0, 2, 250, 30, 250},
    // Bulk recording: lowest priority, soft deadline.
    {"record", 2, 1, 3, 3, 1, 400, 60, 2000},
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto tighten = args.get_int("tighten", 0);  // percent

  topo::Mesh mesh(4, 4);
  const route::XYRouting xy;
  core::StreamSet streams;
  StreamId id = 0;
  for (const Flow& f : kFlows) {
    const Time period = f.period * (100 - tighten) / 100;
    const Time deadline = f.deadline * (100 - tighten) / 100;
    streams.add(core::make_stream(mesh, xy, id++, mesh.node_at({f.sx, f.sy}),
                                  mesh.node_at({f.dx, f.dy}), f.priority,
                                  period, f.length, deadline));
  }

  std::printf("Radar pipeline on a %s (%d flows%s)\n\n",
              mesh.name().c_str(), static_cast<int>(streams.size()),
              tighten ? ", periods tightened" : "");

  const core::FeasibilityReport report =
      core::determine_feasibility(streams);
  std::printf("%-12s %-9s %-7s %-7s %-9s %s\n", "flow", "priority",
              "deadline", "bound U", "verdict", "HP (direct+indirect)");
  for (const auto& r : report.streams) {
    const auto& s = streams[r.id];
    std::printf("%-12s %-9d %-7lld %-7lld %-9s %d+%d\n",
                kFlows[r.id].name, s.priority,
                static_cast<long long>(s.deadline),
                static_cast<long long>(r.bound),
                r.ok ? "ok" : "MISS", r.hp_direct, r.hp_indirect);
  }
  std::printf("\nMapping is %s.\n",
              report.feasible ? "SCHEDULABLE" : "NOT schedulable");

  if (report.feasible) {
    flitsim::FlitSimConfig cfg;
    cfg.duration = 50000;
    cfg.warmup = 1000;
    cfg.vc_mode = flitsim::VcMode::kPerPriority;
    cfg.num_vcs = 6;
    cfg.vc_buffer_depth = 2;
    flitsim::FlitSimulator simulator(mesh, streams, cfg);
    const flitsim::FlitSimResult result = simulator.run();
    std::printf("\nSimulation check (50000 flit times):\n");
    bool all_met = true;
    for (const auto& s : streams) {
      const auto& st = result.per_stream[static_cast<std::size_t>(s.id)];
      const bool met = st.worst <= s.deadline;
      all_met = all_met && met;
      std::printf("  %-12s worst delay %5lld vs deadline %lld %s\n",
                  kFlows[s.id].name, static_cast<long long>(st.worst),
                  static_cast<long long>(s.deadline),
                  met ? "" : "  <-- MISSED");
    }
    std::printf("%s\n", all_met ? "All deadlines met in simulation."
                                : "Deadline misses observed!");
    return all_met ? 0 : 1;
  }
  return 1;
}
