// End-to-end validation of the paper's pipeline: random workloads are
// generated, periods adjusted, bounds computed, and the flit-level
// simulator must never observe a transmission delay above the computed
// upper bound (with ports modelled, the analysis-consistent service
// model, and depth-2 buffers — the shallowest that hides the credit
// round trip; the ablation benches quantify what happens without them).
// Depth-4 runs of the same workloads live in test_flit_vs_bound.cpp.

#include <gtest/gtest.h>

#include "core/delay_bound.hpp"
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

class BoundSoundness : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(BoundSoundness, SimulatedDelaysNeverExceedBounds) {
  const auto param = GetParam();
  topo::Mesh mesh(10, 10);
  core::WorkloadParams wp;
  wp.num_streams = param.streams;
  wp.priority_levels = param.levels;
  wp.seed = param.seed;
  core::StreamSet streams = generate_workload(mesh, kXy, wp);
  const core::AdjustResult adjusted = adjust_periods_to_bounds(streams);

  flitsim::FlitSimConfig cfg;
  cfg.duration = 12000;
  cfg.warmup = 0;
  cfg.vc_buffer_depth = 2;
  cfg.record_arrivals = true;
  flitsim::FlitSimulator simulator(mesh, streams, cfg);
  const flitsim::FlitSimResult result = simulator.run();
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
    Workloads, BoundSoundness,
    ::testing::Values(PipelineCase{1, 20, 4}, PipelineCase{2, 20, 4},
                      PipelineCase{3, 20, 1}, PipelineCase{4, 20, 5},
                      PipelineCase{5, 30, 8}, PipelineCase{6, 12, 2},
                      PipelineCase{7, 40, 10}, PipelineCase{8, 20, 20}));

// The strict per-priority-VC hardware with distinct priorities per
// stream behaves like per-stream lanes (no same-priority VC sharing
// possible), so bounds hold there too.
TEST(BoundSoundness, StrictVcPolicyWithDistinctPriorities) {
  topo::Mesh mesh(10, 10);
  core::WorkloadParams wp;
  wp.num_streams = 16;
  wp.priority_levels = 16;
  wp.seed = 99;
  core::StreamSet streams = generate_workload(mesh, kXy, wp);
  const core::AdjustResult adjusted = adjust_periods_to_bounds(streams);

  flitsim::FlitSimConfig cfg;
  cfg.duration = 12000;
  cfg.warmup = 0;
  cfg.vc_mode = flitsim::VcMode::kPerPriority;
  cfg.num_vcs = 16;
  cfg.vc_buffer_depth = 2;
  cfg.record_arrivals = true;
  const flitsim::FlitSimResult result =
      flitsim::FlitSimulator(mesh, streams, cfg).run();
  EXPECT_TRUE(result.drained);
  for (const auto& a : result.arrivals) {
    EXPECT_LE(a.delivered - a.generated,
              adjusted.bounds[static_cast<std::size_t>(a.stream)])
        << "stream " << a.stream;
  }
}

// Random release phases must also respect the bound: the synchronized
// critical instant assumed by the analysis is the worst case.
TEST(BoundSoundness, RandomPhasesStayWithinBounds) {
  topo::Mesh mesh(10, 10);
  core::WorkloadParams wp;
  wp.num_streams = 20;
  wp.priority_levels = 5;
  wp.seed = 17;
  core::StreamSet streams = generate_workload(mesh, kXy, wp);
  const core::AdjustResult adjusted = adjust_periods_to_bounds(streams);

  for (const std::uint64_t phase_seed : {1u, 2u, 3u}) {
    flitsim::FlitSimConfig cfg;
    cfg.duration = 12000;
    cfg.warmup = 0;
    cfg.vc_buffer_depth = 2;
    cfg.random_phase = true;
    cfg.phase_seed = phase_seed;
    cfg.record_arrivals = true;
    const flitsim::FlitSimResult result =
        flitsim::FlitSimulator(mesh, streams, cfg).run();
    for (const auto& a : result.arrivals) {
      EXPECT_LE(a.delivered - a.generated,
                adjusted.bounds[static_cast<std::size_t>(a.stream)])
          << "phase seed " << phase_seed << " stream " << a.stream;
    }
  }
}

}  // namespace
}  // namespace wormrt
