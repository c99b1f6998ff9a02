// Flit-accurate soundness: the event-driven router simulator — real
// per-VC buffers, credit flow control, single injection/ejection ports —
// must never observe a transmission delay above the analytic bound U_i,
// under the analysis-consistent service model (per-stream lanes, ports
// modelled, buffers deep enough to hide the credit round trip).
//
// It also pins the fidelity gap versus the analysis' pipeline model:
// depth-1 buffers couple the pipeline through the 2-cycle credit round
// trip, which L_i = h + C - 1 does not contain — the committed
// regression scenario for the buffer-depth axis.

#include <gtest/gtest.h>

#include "core/workload.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"

namespace wormrt {
namespace {

const route::XYRouting kXy;

struct PipelineCase {
  std::uint64_t seed;
  int streams;
  int levels;
};

class FlitSimBoundSoundness : public ::testing::TestWithParam<PipelineCase> {};

// The Table 1-5 shapes (10x10 mesh, uniform traffic, 1..20 priority
// levels) with periods adjusted so every stream is feasible: the flit
// simulator's observed worst case stays within every bound.
TEST_P(FlitSimBoundSoundness, FlitDelaysNeverExceedBounds) {
  const auto param = GetParam();
  topo::Mesh mesh(10, 10);
  core::WorkloadParams wp;
  wp.num_streams = param.streams;
  wp.priority_levels = param.levels;
  wp.seed = param.seed;
  core::StreamSet streams = generate_workload(mesh, kXy, wp);
  const core::AdjustResult adjusted = adjust_periods_to_bounds(streams);

  flitsim::FlitSimConfig fc;
  fc.duration = 12000;
  fc.warmup = 0;
  fc.vc_buffer_depth = 4;  // >= 2 hides the credit round trip
  fc.record_arrivals = true;
  flitsim::FlitSimulator sim(mesh, streams, fc);
  const flitsim::FlitSimResult result = sim.run();
  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.flits_injected, result.flits_delivered);

  std::int64_t measured = 0;
  for (const auto& a : result.arrivals) {
    ++measured;
    const Time bound = adjusted.bounds[static_cast<std::size_t>(a.stream)];
    EXPECT_LE(a.delivered - a.generated, bound)
        << "stream " << a.stream << " message generated at " << a.generated;
  }
  EXPECT_GT(measured, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FlitSimBoundSoundness,
    ::testing::Values(PipelineCase{1, 20, 4}, PipelineCase{2, 20, 4},
                      PipelineCase{3, 20, 1}, PipelineCase{4, 20, 5},
                      PipelineCase{5, 30, 8}, PipelineCase{6, 12, 2},
                      PipelineCase{7, 40, 10}, PipelineCase{8, 20, 20}));

// Random release phases must stay within the bound too: the
// synchronized release the analysis assumes is the worst case.
TEST(FlitSimBoundSoundness, RandomPhasesStayWithinBounds) {
  topo::Mesh mesh(10, 10);
  core::WorkloadParams wp;
  wp.num_streams = 20;
  wp.priority_levels = 5;
  wp.seed = 17;
  core::StreamSet streams = generate_workload(mesh, kXy, wp);
  const core::AdjustResult adjusted = adjust_periods_to_bounds(streams);

  for (const std::uint64_t phase_seed : {1u, 2u, 3u}) {
    flitsim::FlitSimConfig fc;
    fc.duration = 12000;
    fc.warmup = 0;
    fc.vc_buffer_depth = 4;
    fc.random_phase = true;
    fc.phase_seed = phase_seed;
    fc.record_arrivals = true;
    flitsim::FlitSimulator sim(mesh, streams, fc);
    const flitsim::FlitSimResult result = sim.run();
    ASSERT_TRUE(result.drained);
    for (const auto& a : result.arrivals) {
      EXPECT_LE(a.delivered - a.generated,
                adjusted.bounds[static_cast<std::size_t>(a.stream)])
          << "phase seed " << phase_seed << " stream " << a.stream;
    }
  }
}

// Deeper buffers also admit more in-network slack under contention;
// worst-case latency must be monotonically no worse as depth grows on
// an uncontended path, and exactly the ideal pipeline L_i = h + C - 1
// at depth >= 2.
TEST(FlitSimRegression, BufferDepthChangesLatencyVsIdealSim) {
  topo::Mesh mesh(10, 10);
  const route::XYRouting xy;
  core::StreamSet streams;
  // One uncontended stream crossing 9 + 9 = 18 hops, 30 flits.
  streams.add(core::make_stream(mesh, xy, 0, 0, 99, /*priority=*/0,
                                /*period=*/1000, /*length=*/30, 1000));
  const int hops = streams[0].path.hops();
  ASSERT_EQ(hops, 18);

  // Reference: the analysis' fully pipelined network latency.
  const Time ideal_worst = hops + 30 - 1;  // L_i = h + C - 1
  EXPECT_EQ(streams[0].latency, ideal_worst);

  const auto flit_worst = [&](int depth) {
    flitsim::FlitSimConfig fc;
    fc.duration = 100;
    fc.warmup = 0;
    fc.vc_buffer_depth = depth;
    flitsim::FlitSimulator sim(mesh, streams, fc);
    return sim.run().per_stream[0].worst;
  };

  // Depth 1: the credit round trip halves the flit rate — a real
  // hardware effect the analysis' pipeline cannot show.
  EXPECT_EQ(flit_worst(1), hops + 2 * (30 - 1));
  EXPECT_GT(flit_worst(1), ideal_worst);
  // Depth >= 2 restores full pipelining: flit-accurate == idealized.
  EXPECT_EQ(flit_worst(2), ideal_worst);
  EXPECT_EQ(flit_worst(8), ideal_worst);
}

}  // namespace
}  // namespace wormrt
