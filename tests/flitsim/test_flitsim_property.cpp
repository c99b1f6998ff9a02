// Property tests for the flit-level simulator.  The heavy lifting is
// FlitSimConfig::validate: with it on, the simulator re-checks flit
// conservation (injected == delivered + resident) and the credit
// invariant (0 <= credits, occupancy <= depth, credits + in-flight +
// occupancy + returning == depth for every VC) after EVERY event, and
// throws on the first violation.  Quiescence (every tail released its
// VCs, no stranded waiters) is checked unconditionally at the end of a
// drained run.  The tests here drive randomized workloads through that
// instrumented engine.

#include <gtest/gtest.h>

#include "core/workload.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"

namespace wormrt {
namespace {

core::StreamSet random_workload(const topo::Topology& topo,
                                std::uint64_t seed, int num_streams,
                                int levels) {
  const route::XYRouting xy;
  core::WorkloadParams wp;
  wp.num_streams = num_streams;
  wp.priority_levels = levels;
  wp.seed = seed;
  // Short periods relative to lengths: keep the network busy so VC
  // contention, backpressure, and successor-message blocking all occur.
  wp.period_min = 30;
  wp.period_max = 80;
  wp.length_min = 1;
  wp.length_max = 24;
  return core::generate_workload(topo, xy, wp);
}

TEST(FlitSimProperty, InvariantsHoldOnRandomMeshWorkloads) {
  const topo::Mesh mesh(4, 4);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const int depth : {1, 2, 4}) {
      const core::StreamSet set =
          random_workload(mesh, seed, /*num_streams=*/12, /*levels=*/3);
      flitsim::FlitSimConfig fc;
      fc.duration = 1200;
      fc.warmup = 0;
      fc.vc_buffer_depth = depth;
      fc.validate = true;
      flitsim::FlitSimulator sim(mesh, set, fc);
      flitsim::FlitSimResult r;
      ASSERT_NO_THROW(r = sim.run())
          << "seed " << seed << " depth " << depth;
      ASSERT_TRUE(r.drained) << "seed " << seed << " depth " << depth;
      EXPECT_EQ(r.flits_injected, r.flits_delivered);
      // Every measured release eventually completed (nothing lost).
      for (const auto& ss : r.per_stream) {
        EXPECT_EQ(ss.generated, ss.completed);
      }
    }
  }
}

TEST(FlitSimProperty, InvariantsHoldInPerPriorityMode) {
  const topo::Mesh mesh(4, 4);
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    const core::StreamSet set =
        random_workload(mesh, seed, /*num_streams=*/10, /*levels=*/4);
    flitsim::FlitSimConfig fc;
    fc.duration = 1200;
    fc.warmup = 0;
    fc.vc_mode = flitsim::VcMode::kPerPriority;
    fc.vc_buffer_depth = 2;
    fc.validate = true;
    flitsim::FlitSimulator sim(mesh, set, fc);
    flitsim::FlitSimResult r;
    ASSERT_NO_THROW(r = sim.run()) << "seed " << seed;
    ASSERT_TRUE(r.drained) << "seed " << seed;
    EXPECT_EQ(r.flits_injected, r.flits_delivered);
  }
}

// The baseline switching policies run on the same instrumented engine:
// FCFS and Li hold VCs across preemption-free waits, and
// throttle-and-preempt tears whole worms out of the network, so the
// credit and conservation invariants see every discard.
TEST(FlitSimProperty, InvariantsHoldInBaselineModes) {
  const topo::Mesh mesh(4, 4);
  for (const auto mode : {flitsim::VcMode::kFcfs, flitsim::VcMode::kLiVc,
                          flitsim::VcMode::kThrottlePreempt}) {
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
      for (const int num_vcs : {1, 3}) {
        const core::StreamSet set =
            random_workload(mesh, seed, /*num_streams=*/12, /*levels=*/3);
        flitsim::FlitSimConfig fc;
        fc.duration = 1200;
        fc.warmup = 0;
        fc.vc_mode = mode;
        fc.num_vcs = num_vcs;
        fc.vc_buffer_depth = seed % 2 == 0 ? 2 : 1;
        fc.validate = true;
        flitsim::FlitSimulator sim(mesh, set, fc);
        flitsim::FlitSimResult r;
        ASSERT_NO_THROW(r = sim.run())
            << flitsim::to_string(mode) << " seed " << seed << " vcs "
            << num_vcs;
        ASSERT_TRUE(r.drained) << flitsim::to_string(mode) << " seed " << seed;
        EXPECT_EQ(r.flits_injected, r.flits_delivered + r.flits_dropped);
        for (const auto& ss : r.per_stream) {
          EXPECT_EQ(ss.generated, ss.completed);
        }
        if (mode != flitsim::VcMode::kThrottlePreempt) {
          EXPECT_EQ(r.retransmissions, 0);
        }
      }
    }
  }
}

TEST(FlitSimProperty, RandomPhasesPreserveInvariants) {
  const topo::Mesh mesh(4, 4);
  const core::StreamSet set =
      random_workload(mesh, /*seed=*/42, /*num_streams=*/12, /*levels=*/2);
  for (std::uint64_t phase_seed = 1; phase_seed <= 4; ++phase_seed) {
    flitsim::FlitSimConfig fc;
    fc.duration = 1200;
    fc.warmup = 0;
    fc.random_phase = true;
    fc.phase_seed = phase_seed;
    fc.validate = true;
    flitsim::FlitSimulator sim(mesh, set, fc);
    flitsim::FlitSimResult r;
    ASSERT_NO_THROW(r = sim.run()) << "phase seed " << phase_seed;
    ASSERT_TRUE(r.drained);
    EXPECT_EQ(r.flits_injected, r.flits_delivered);
  }
}

// Saturating a single column with more demand than the channel can
// carry forces deep backlogs; drainage still completes (releases stop
// at duration) and every invariant holds along the way.
TEST(FlitSimProperty, OverloadedChannelStillDrainsCleanly) {
  const topo::Mesh mesh(2, 4);
  const route::XYRouting xy;
  core::StreamSet set;
  // Three streams funnel into the same final column edge.
  set.add(core::make_stream(mesh, xy, 0, 0, 6, 0, /*period=*/10,
                            /*length=*/8, 100));
  set.add(core::make_stream(mesh, xy, 1, 2, 6, 1, /*period=*/10,
                            /*length=*/8, 100));
  set.add(core::make_stream(mesh, xy, 2, 4, 6, 2, /*period=*/10,
                            /*length=*/8, 100));
  flitsim::FlitSimConfig fc;
  fc.duration = 300;
  fc.warmup = 0;
  fc.vc_buffer_depth = 2;
  fc.validate = true;
  flitsim::FlitSimulator sim(mesh, set, fc);
  flitsim::FlitSimResult r;
  ASSERT_NO_THROW(r = sim.run());
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.flits_injected, r.flits_delivered);
  for (const auto& ss : r.per_stream) {
    EXPECT_EQ(ss.generated, ss.completed);
  }
  // The drain ran past the injection window (backlog existed).
  EXPECT_GT(r.cycles_run, 300);
}

}  // namespace
}  // namespace wormrt
