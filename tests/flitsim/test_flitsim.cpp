#include "flitsim/flit_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "core/message_stream.hpp"
#include "obs/metrics.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"

namespace wormrt {
namespace {

core::StreamSet line_stream(const topo::Topology& topo, Time length,
                            Time period, topo::NodeId src, topo::NodeId dst) {
  const route::XYRouting xy;
  core::StreamSet set;
  set.add(core::make_stream(topo, xy, 0, src, dst, /*priority=*/0, period,
                            length, /*deadline=*/period));
  return set;
}

flitsim::FlitSimConfig one_shot_config() {
  flitsim::FlitSimConfig fc;
  fc.duration = 10;  // one release per stream (periods are larger below)
  fc.warmup = 0;
  fc.validate = true;
  return fc;
}

// A single uncontended worm with buffers deep enough to hide the credit
// round trip pipelines perfectly: tail delivery at h + C - 1, the
// paper's L_i.
TEST(FlitSimTest, UncontendedLatencyMatchesIdealPipeline) {
  const topo::Mesh mesh(4, 1);
  const core::StreamSet set =
      line_stream(mesh, /*length=*/5, /*period=*/1000, 0, 3);
  for (const int depth : {2, 4, 8}) {
    flitsim::FlitSimConfig fc = one_shot_config();
    fc.vc_buffer_depth = depth;
    flitsim::FlitSimulator sim(mesh, set, fc);
    const flitsim::FlitSimResult r = sim.run();
    ASSERT_TRUE(r.drained);
    EXPECT_EQ(r.per_stream[0].completed, 1);
    EXPECT_EQ(r.per_stream[0].worst, 3 + 5 - 1) << "depth " << depth;
  }
}

// Depth-1 buffers expose the 2-cycle credit round trip: after the
// header, every flit waits a cycle for its predecessor's credit, so the
// uncontended tail arrives at h + 2(C - 1), a fidelity axis the
// analysis' lumped h + C - 1 pipeline does not express.
TEST(FlitSimTest, DepthOneExposesCreditRoundTrip) {
  const topo::Mesh mesh(4, 1);
  const core::StreamSet set =
      line_stream(mesh, /*length=*/5, /*period=*/1000, 0, 3);
  flitsim::FlitSimConfig fc = one_shot_config();
  fc.vc_buffer_depth = 1;
  flitsim::FlitSimulator sim(mesh, set, fc);
  const flitsim::FlitSimResult r = sim.run();
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.per_stream[0].worst, 3 + 2 * (5 - 1));
}

TEST(FlitSimTest, SingleFlitMessageTakesOneCyclePerHop) {
  const topo::Mesh mesh(5, 1);
  const core::StreamSet set =
      line_stream(mesh, /*length=*/1, /*period=*/1000, 0, 4);
  flitsim::FlitSimConfig fc = one_shot_config();
  fc.vc_buffer_depth = 1;  // a 1-flit worm never waits on credits
  flitsim::FlitSimulator sim(mesh, set, fc);
  const flitsim::FlitSimResult r = sim.run();
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.per_stream[0].worst, 4);
}

TEST(FlitSimTest, FlitConservationAndLinkUtilization) {
  const topo::Mesh mesh(4, 1);
  const core::StreamSet set =
      line_stream(mesh, /*length=*/7, /*period=*/20, 0, 3);
  flitsim::FlitSimConfig fc;
  fc.duration = 100;  // five releases
  fc.warmup = 0;
  fc.validate = true;
  flitsim::FlitSimulator sim(mesh, set, fc);
  const flitsim::FlitSimResult r = sim.run();
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.per_stream[0].generated, 5);
  EXPECT_EQ(r.per_stream[0].completed, 5);
  EXPECT_EQ(r.flits_injected, 5 * 7);
  EXPECT_EQ(r.flits_delivered, 5 * 7);
  // Every channel of the path carries every flit exactly once.
  const auto& path = set[0].path;
  for (topo::ChannelId c : path.channels) {
    EXPECT_EQ(r.flits_per_channel[static_cast<std::size_t>(c)], 5 * 7);
  }
  std::int64_t moved = 0;
  for (const auto n : r.flits_per_channel) moved += n;
  EXPECT_EQ(moved, 5 * 7 * path.hops());
}

// Two same-length worms contending for one channel: the high-priority
// one is served as if alone; the low-priority one waits out the
// interference but still completes.
TEST(FlitSimTest, HigherPriorityPreemptsSharedChannel) {
  const topo::Mesh mesh(4, 1);
  const route::XYRouting xy;
  core::StreamSet set;
  // Both cross channel 1->2; stream 0 is low priority, stream 1 high.
  set.add(core::make_stream(mesh, xy, 0, 0, 3, /*priority=*/0,
                            /*period=*/1000, /*length=*/10, 1000));
  set.add(core::make_stream(mesh, xy, 1, 1, 3, /*priority=*/1,
                            /*period=*/1000, /*length=*/10, 1000));
  flitsim::FlitSimConfig fc = one_shot_config();
  fc.vc_buffer_depth = 4;
  flitsim::FlitSimulator sim(mesh, set, fc);
  const flitsim::FlitSimResult r = sim.run();
  ASSERT_TRUE(r.drained);
  // High priority: h=2 hops, uncontended pipeline.
  EXPECT_EQ(r.per_stream[1].worst, 2 + 10 - 1);
  // Low priority: delayed by the interferer, but bounded by its flits.
  EXPECT_GT(r.per_stream[0].worst, 3 + 10 - 1);
  EXPECT_LE(r.per_stream[0].worst, 3 + 10 - 1 + 10 + 4);
  EXPECT_EQ(r.per_stream[0].completed, 1);
}

// Back-to-back messages of one stream contend for their own private
// lane; the successor's header must wait for the tail's credits, which
// shows up as VC-blocking time.
TEST(FlitSimTest, SuccessorMessageBlocksOnOwnLane) {
  const topo::Mesh mesh(4, 1);
  const core::StreamSet set =
      line_stream(mesh, /*length=*/12, /*period=*/12, 0, 3);
  flitsim::FlitSimConfig fc;
  fc.duration = 25;  // three releases, back-to-back
  fc.warmup = 0;
  fc.validate = true;
  flitsim::FlitSimulator sim(mesh, set, fc);
  const flitsim::FlitSimResult r = sim.run();
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.per_stream[0].completed, 3);
  EXPECT_GT(r.per_stream[0].vc_block_cycles, 0);
  EXPECT_EQ(r.vc_block_cycles, r.per_stream[0].vc_block_cycles);
}

TEST(FlitSimTest, ExplicitPhasesShiftReleases) {
  const topo::Mesh mesh(3, 1);
  const core::StreamSet set =
      line_stream(mesh, /*length=*/4, /*period=*/1000, 0, 2);
  flitsim::FlitSimConfig fc = one_shot_config();
  fc.duration = 20;
  fc.explicit_phases = {7};
  fc.record_arrivals = true;
  flitsim::FlitSimulator sim(mesh, set, fc);
  const flitsim::FlitSimResult r = sim.run();
  ASSERT_TRUE(r.drained);
  ASSERT_EQ(r.arrivals.size(), 1u);
  EXPECT_EQ(r.arrivals[0].generated, 7);
  EXPECT_EQ(r.arrivals[0].delivered, 7 + 2 + 4 - 1);
}

TEST(FlitSimTest, PerPriorityModeSharesVcWithinLevel) {
  const topo::Mesh mesh(4, 1);
  const route::XYRouting xy;
  core::StreamSet set;
  set.add(core::make_stream(mesh, xy, 0, 0, 3, /*priority=*/0,
                            /*period=*/1000, /*length=*/6, 1000));
  set.add(core::make_stream(mesh, xy, 1, 1, 3, /*priority=*/0,
                            /*period=*/1000, /*length=*/6, 1000));
  flitsim::FlitSimConfig fc = one_shot_config();
  fc.vc_mode = flitsim::VcMode::kPerPriority;
  flitsim::FlitSimulator sim(mesh, set, fc);
  const flitsim::FlitSimResult r = sim.run();
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(r.per_stream[0].completed, 1);
  EXPECT_EQ(r.per_stream[1].completed, 1);
  // Sharing the single priority-0 VC serialises the worms on the shared
  // channel; somebody must have waited for the VC.
  EXPECT_GT(r.vc_block_cycles, 0);
}

TEST(FlitSimTest, RunIsSingleUse) {
  const topo::Mesh mesh(3, 1);
  const core::StreamSet set = line_stream(mesh, 2, 1000, 0, 2);
  flitsim::FlitSimulator sim(mesh, set, one_shot_config());
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

TEST(FlitSimTest, RejectsInvalidConfiguration) {
  const topo::Mesh mesh(3, 1);
  const core::StreamSet set = line_stream(mesh, 2, 1000, 0, 2);
  {
    flitsim::FlitSimConfig fc;
    fc.vc_buffer_depth = 0;
    EXPECT_THROW(flitsim::FlitSimulator(mesh, set, fc),
                 std::invalid_argument);
  }
  {
    flitsim::FlitSimConfig fc;
    fc.explicit_phases = {1, 2};  // wrong arity
    EXPECT_THROW(flitsim::FlitSimulator(mesh, set, fc),
                 std::invalid_argument);
  }
  {
    flitsim::FlitSimConfig fc;
    fc.vc_mode = flitsim::VcMode::kPerPriority;
    fc.num_vcs = 1;
    const route::XYRouting xy;
    core::StreamSet high;
    high.add(core::make_stream(mesh, xy, 0, 0, 2, /*priority=*/3,
                               /*period=*/10, /*length=*/2, 10));
    EXPECT_THROW(flitsim::FlitSimulator(mesh, high, fc),
                 std::invalid_argument);
  }
}

TEST(FlitSimTest, EventCountAndCyclesReported) {
  const topo::Mesh mesh(4, 1);
  const core::StreamSet set = line_stream(mesh, 5, 50, 0, 3);
  flitsim::FlitSimConfig fc;
  fc.duration = 100;
  fc.warmup = 0;
  flitsim::FlitSimulator sim(mesh, set, fc);
  const flitsim::FlitSimResult r = sim.run();
  ASSERT_TRUE(r.drained);
  EXPECT_GT(r.events_processed, 0);
  EXPECT_GE(r.cycles_run, 50 + 3 + 5 - 1);
  EXPECT_LT(r.cycles_run, 200);
}

TEST(FlitSimTest, MetricsLandInRegistry) {
  const topo::Mesh mesh(4, 1);
  const core::StreamSet set = line_stream(mesh, 5, 50, 0, 3);
  obs::Registry reg;
  flitsim::FlitSimConfig fc;
  fc.duration = 100;
  fc.warmup = 0;
  fc.metrics = &reg;
  flitsim::FlitSimulator sim(mesh, set, fc);
  const flitsim::FlitSimResult r = sim.run();
  ASSERT_TRUE(r.drained);
  EXPECT_EQ(reg.counter("wormrt_flitsim_runs_total").value(), 1u);
  EXPECT_EQ(reg.counter("wormrt_flitsim_events_total").value(),
            static_cast<std::uint64_t>(r.events_processed));
  EXPECT_EQ(reg.counter("wormrt_flitsim_flits_injected_total").value(),
            static_cast<std::uint64_t>(r.flits_injected));
  EXPECT_EQ(reg.counter("wormrt_flitsim_flits_delivered_total").value(),
            static_cast<std::uint64_t>(r.flits_delivered));
  // One histogram observation per delivered packet.
  EXPECT_EQ(
      reg.histogram("wormrt_flitsim_packet_latency_flits", 0.0, 4096.0, 64)
          .count(),
      static_cast<std::uint64_t>(r.per_stream[0].completed));
}

}  // namespace
}  // namespace wormrt
