// The bench harness end-to-end: the table pipeline produces sane,
// violation-free, deterministic results, and the Section 4.4 example
// behaves correctly under every switching policy.

#include <gtest/gtest.h>

#include "common/experiment.hpp"
#include "core/paper_example.hpp"
#include "flitsim/flit_sim.hpp"

namespace wormrt {
namespace {

TEST(ExperimentPipeline, Table3ShapeAndSoundness) {
  bench::ExperimentParams params;
  params.num_streams = 20;
  params.priority_levels = 4;
  params.replications = 2;
  params.sim_duration = 15000;
  const bench::ExperimentResult r = bench::run_experiment(params);
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.bound_violations, 0);
  EXPECT_GT(r.messages_measured, 1000);
  // Rows come highest priority first and every ratio is in (0, 1].
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(r.rows[i].priority, r.rows[i - 1].priority);
    }
    EXPECT_GT(r.rows[i].ratio_mean, 0.0);
    EXPECT_LE(r.rows[i].ratio_max, 1.0 + 1e-9);
    EXPECT_LE(r.rows[i].ratio_min, r.rows[i].ratio_mean);
    EXPECT_LE(r.rows[i].ratio_mean, r.rows[i].ratio_max);
    EXPECT_GT(r.rows[i].streams, 0);
  }
  // The top level's bound is the tightest of the table.
  EXPECT_GE(r.rows.front().ratio_mean, r.rows.back().ratio_mean);
}

TEST(ExperimentPipeline, DeterministicAcrossRuns) {
  bench::ExperimentParams params;
  params.num_streams = 15;
  params.priority_levels = 3;
  params.replications = 1;
  params.sim_duration = 8000;
  const bench::ExperimentResult a = bench::run_experiment(params);
  const bench::ExperimentResult b = bench::run_experiment(params);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rows[i].ratio_mean, b.rows[i].ratio_mean);
    EXPECT_DOUBLE_EQ(a.rows[i].actual_mean, b.rows[i].actual_mean);
  }
  EXPECT_EQ(a.messages_measured, b.messages_measured);
}

TEST(ExperimentPipeline, FormatTableMentionsSetupAndRows) {
  bench::ExperimentParams params;
  params.num_streams = 10;
  params.priority_levels = 2;
  params.replications = 1;
  params.sim_duration = 5000;
  const bench::ExperimentResult r = bench::run_experiment(params);
  const std::string text = bench::format_table(params, r, "My Title");
  EXPECT_NE(text.find("My Title"), std::string::npos);
  EXPECT_NE(text.find("10x10 mesh"), std::string::npos);
  EXPECT_NE(text.find("per-stream-lane, depth-2 buffers"), std::string::npos);
  EXPECT_NE(text.find("bound violations: 0"), std::string::npos);
}

// Every delivery is checked against its bound — the warm-up messages
// too, since the synchronized t = 0 release is the analysis' critical
// instant — while the ratio columns and "messages measured" keep to the
// post-warm-up window.  Here the warm-up covers the whole run: nothing
// is measured, everything is still checked.
TEST(ExperimentPipeline, WarmupMessagesAreCheckedNotMeasured) {
  bench::ExperimentParams params;
  params.num_streams = 15;
  params.priority_levels = 3;
  params.replications = 1;
  params.sim_duration = 4000;
  params.sim_warmup = 2000;
  const bench::ExperimentResult half = bench::run_experiment(params);
  EXPECT_GT(half.messages_measured, 0);
  EXPECT_GT(half.messages_checked, half.messages_measured);
  EXPECT_EQ(half.bound_violations, 0);

  params.sim_warmup = params.sim_duration;
  const bench::ExperimentResult all = bench::run_experiment(params);
  EXPECT_EQ(all.messages_measured, 0);
  EXPECT_TRUE(all.rows.empty());
  EXPECT_EQ(all.messages_checked, half.messages_checked);
  EXPECT_EQ(all.bound_violations, 0);
}

// The paper's worked example delivered under every switching policy:
// all messages arrive, flits are conserved, and the preemptive policies
// respect every bound.
class Section44UnderPolicy
    : public ::testing::TestWithParam<flitsim::VcMode> {};

TEST_P(Section44UnderPolicy, DeliversAndConserves) {
  const auto ex = core::paper::section44();
  flitsim::FlitSimConfig cfg;
  cfg.duration = 10000;
  cfg.warmup = 0;
  cfg.vc_mode = GetParam();
  cfg.num_vcs = 6;
  cfg.vc_buffer_depth = 2;
  const flitsim::FlitSimResult r =
      flitsim::FlitSimulator(*ex.mesh, ex.streams, cfg).run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.flits_injected, r.flits_delivered + r.flits_dropped);
  const Time bounds[5] = {7, 8, 26, 30, 33};
  const bool preemptive = GetParam() != flitsim::VcMode::kLiVc &&
                          GetParam() != flitsim::VcMode::kFcfs;
  for (const auto& s : ex.streams) {
    const auto& st = r.per_stream[static_cast<std::size_t>(s.id)];
    EXPECT_EQ(st.generated, st.completed) << "M_" << s.id;
    if (preemptive) {
      EXPECT_LE(st.worst, bounds[s.id])
          << "M_" << s.id << " under " << flitsim::to_string(GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, Section44UnderPolicy,
    ::testing::Values(flitsim::VcMode::kPerPriority,
                      flitsim::VcMode::kPerStreamLane,
                      flitsim::VcMode::kThrottlePreempt,
                      flitsim::VcMode::kLiVc, flitsim::VcMode::kFcfs),
    [](const ::testing::TestParamInfo<flitsim::VcMode>& info) {
      switch (info.param) {
        case flitsim::VcMode::kPerPriority: return "priority_preemptive";
        case flitsim::VcMode::kPerStreamLane: return "ideal_preemptive";
        case flitsim::VcMode::kThrottlePreempt: return "throttle_preempt";
        case flitsim::VcMode::kLiVc: return "li_vc";
        case flitsim::VcMode::kFcfs: return "non_preemptive_fcfs";
      }
      return "unknown";
    });

}  // namespace
}  // namespace wormrt
