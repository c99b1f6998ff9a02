// Figure 2 of the paper: priority inversion in classical wormhole
// switching.  A low-priority worm (message 1, priority 2) holds the
// contended outgoing channel; a queue of medium-priority worms
// (messages 2..n, priority 3) waits FCFS; the highest-priority message B
// (priority 4) arrives last and — without preemption — is blocked behind
// all of them.  With the paper's flit-level preemptive VCs, B sails
// through at its contention-free latency.
//
// Exits 1 when the expected shape breaks: B must arrive at exactly its
// contention-free latency under both preemptive modes and later under
// FCFS and Li's scheme.

#include <algorithm>
#include <cstdio>

#include "core/message_stream.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "util/table.hpp"

namespace {

using namespace wormrt;

struct Outcome {
  Time latency_b;     // the priority-4 message
  Time latency_low;   // the priority-2 holder
  Time worst_medium;  // worst of the priority-3 queue
};

Outcome run(const topo::Mesh& mesh, const core::StreamSet& set,
            flitsim::VcMode mode) {
  flitsim::FlitSimConfig cfg;
  cfg.duration = 31;
  cfg.warmup = 0;
  cfg.vc_mode = mode;
  cfg.num_vcs = 5;  // priorities 0..4
  cfg.vc_buffer_depth = 2;
  cfg.explicit_phases = {0, 5, 10, 30};
  const flitsim::FlitSimResult r = flitsim::FlitSimulator(mesh, set, cfg).run();
  return Outcome{r.per_stream[3].worst, r.per_stream[0].worst,
                 std::max(r.per_stream[1].worst, r.per_stream[2].worst)};
}

}  // namespace

int main() {
  // A 1x8 row: every stream funnels into the channel (4,0)->(5,0).
  const topo::Mesh mesh(8, 1);
  const route::XYRouting xy;
  core::StreamSet set;
  const Time kLong = 1 << 20;  // single-shot messages
  // Message 1 (priority 2): long worm released first, holds the channel.
  set.add(core::make_stream(mesh, xy, 0, mesh.node_at({0, 0}),
                            mesh.node_at({7, 0}), 2, kLong, 50, kLong));
  // Messages 2..3 (priority 3): queue up behind it.
  set.add(core::make_stream(mesh, xy, 1, mesh.node_at({1, 0}),
                            mesh.node_at({6, 0}), 3, kLong, 30, kLong));
  set.add(core::make_stream(mesh, xy, 2, mesh.node_at({2, 0}),
                            mesh.node_at({6, 0}), 3, kLong, 30, kLong));
  // Message B (priority 4): released last, should go first.
  set.add(core::make_stream(mesh, xy, 3, mesh.node_at({3, 0}),
                            mesh.node_at({5, 0}), 4, kLong, 6, kLong));
  const Time free_b = set[3].latency;

  std::printf(
      "Figure 2 — priority inversion at a contended switch output\n"
      "message B: priority 4, 6 flits, 2 hops (contention-free latency "
      "%lld); released after a 50-flit priority-2 worm and two 30-flit "
      "priority-3 worms claim the channel\n\n",
      static_cast<long long>(free_b));
  util::Table table({"policy", "B (prio 4)", "worst prio 3", "prio 2"});
  bool shape_ok = true;
  for (const auto mode :
       {flitsim::VcMode::kFcfs, flitsim::VcMode::kLiVc,
        flitsim::VcMode::kPerPriority, flitsim::VcMode::kPerStreamLane}) {
    const Outcome o = run(mesh, set, mode);
    table.row()
        .cell(flitsim::to_string(mode))
        .cell(o.latency_b)
        .cell(o.worst_medium)
        .cell(o.latency_low);
    const bool preemptive = mode == flitsim::VcMode::kPerPriority ||
                            mode == flitsim::VcMode::kPerStreamLane;
    if (preemptive ? o.latency_b != free_b : o.latency_b <= free_b) {
      std::fprintf(stderr, "shape broken: B = %lld under %s\n",
                   static_cast<long long>(o.latency_b),
                   flitsim::to_string(mode));
      shape_ok = false;
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "\nExpected shape: under non-preemptive FCFS the priority-4 message "
      "is inverted (delay ~an order of magnitude above %lld) and Li's "
      "round-robin channel sharing slows it too; flit-level preemption "
      "delivers it at exactly its contention-free latency at the expense "
      "of the lower-priority worms.  Shape %s.\n",
      static_cast<long long>(free_b), shape_ok ? "holds" : "BROKEN");
  return shape_ok ? 0 : 1;
}
