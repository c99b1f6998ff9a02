// Quickstart: define a set of real-time message streams on a mesh, test
// their feasibility, and cross-check the computed delay upper bounds
// against a flit-accurate router simulation.  The stream set is the paper's
// Section 4.4 worked example.
//
//   ./examples/quickstart

#include <cstdio>

#include "core/feasibility.hpp"
#include "core/paper_example.hpp"
#include "flitsim/flit_sim.hpp"

using namespace wormrt;

int main() {
  // 1. Build the network and the streams.  make_stream() routes each
  //    stream with X-Y routing and derives its network latency.
  const core::paper::Section44 example = core::paper::section44();
  const core::StreamSet& streams = example.streams;

  std::printf("Network: %s, %d nodes, %zu directed channels\n",
              example.mesh->name().c_str(), example.mesh->num_nodes(),
              example.mesh->num_channels());
  for (const auto& s : streams) {
    std::printf(
        "  M_%d: %s -> %s  priority %d, period %lld, length %lld flits, "
        "deadline %lld, network latency %lld\n",
        s.id, topo::to_string(example.mesh->coord_of(s.src)).c_str(),
        topo::to_string(example.mesh->coord_of(s.dst)).c_str(), s.priority,
        static_cast<long long>(s.period), static_cast<long long>(s.length),
        static_cast<long long>(s.deadline),
        static_cast<long long>(s.latency));
  }

  // 2. Feasibility test: computes every stream's transmission-delay
  //    upper bound U_i and checks U_i <= D_i.
  const core::FeasibilityReport report = core::determine_feasibility(streams);
  std::printf("\nFeasibility: %s\n", report.feasible ? "success" : "fail");
  for (const auto& r : report.streams) {
    std::printf("  M_%d: U = %lld (deadline %lld) — %s   [HP: %d direct, "
                "%d indirect]\n",
                r.id, static_cast<long long>(r.bound),
                static_cast<long long>(streams[r.id].deadline),
                r.ok ? "guaranteed" : "NOT guaranteed", r.hp_direct,
                r.hp_indirect);
  }

  // 3. Cross-check with the flit-level simulator: run 30000 flit times
  //    of the periodic traffic through routers with one VC per priority
  //    (depth-2 buffers, credit flow control) and flit-level preemptive
  //    switching, and compare observed worst cases against the bounds.
  flitsim::FlitSimConfig cfg;
  cfg.duration = 30000;
  cfg.warmup = 2000;
  cfg.vc_mode = flitsim::VcMode::kPerPriority;
  cfg.num_vcs = 6;  // priorities 1..5 in this example
  cfg.vc_buffer_depth = 2;
  flitsim::FlitSimulator simulator(*example.mesh, streams, cfg);
  const flitsim::FlitSimResult result = simulator.run();

  std::printf("\nSimulation (%lld cycles, warm-up %lld):\n",
              static_cast<long long>(result.cycles_run),
              static_cast<long long>(cfg.warmup));
  bool all_within = true;
  for (const auto& s : streams) {
    const auto& st = result.per_stream[static_cast<std::size_t>(s.id)];
    const Time bound = report.streams[static_cast<std::size_t>(s.id)].bound;
    const bool ok = st.worst <= bound;
    all_within = all_within && ok;
    std::printf("  M_%d: %lld messages, delay avg %.1f / max %lld — bound "
                "%lld %s\n",
                s.id, static_cast<long long>(st.completed),
                st.latency.mean(), static_cast<long long>(st.worst),
                static_cast<long long>(bound), ok ? "(respected)" : "(!)");
  }
  std::printf("\n%s\n", all_within
                            ? "Every observed delay is within its computed "
                              "upper bound."
                            : "Some observed delay exceeded its bound — "
                              "see EXPERIMENTS.md for the analysis' "
                              "limitations.");
  return report.feasible && all_within ? 0 : 1;
}
