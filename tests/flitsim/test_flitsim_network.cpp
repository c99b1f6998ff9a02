// Network-level behaviour of the flit simulator on every topology:
// contention-free latency, pipelining, flit conservation, warm-up and
// random-phase accounting, per-channel flit counts, and the hot-channel
// report.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/message_stream.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "route/ecube.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/torus.hpp"

namespace wormrt::flitsim {
namespace {

using core::StreamSet;
using core::make_stream;

const route::XYRouting kXy;

FlitSimConfig quiet_config(Time duration) {
  FlitSimConfig cfg;
  cfg.duration = duration;
  cfg.warmup = 0;
  cfg.record_arrivals = true;
  cfg.validate = true;
  return cfg;
}

// ---------------------------------------------------------------------
// A single uncontended message must arrive exactly at the analytical
// network latency L = hops + C - 1, for any hop count and length.
struct LatencyCase {
  std::int32_t sx, sy, dx, dy;
  Time length;
};

class ContentionFreeLatency : public ::testing::TestWithParam<LatencyCase> {};

TEST_P(ContentionFreeLatency, MatchesAnalyticalModel) {
  const auto p = GetParam();
  topo::Mesh mesh(8, 8);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({p.sx, p.sy}),
                      mesh.node_at({p.dx, p.dy}), /*priority=*/0,
                      /*period=*/100000, p.length, /*deadline=*/100000));
  const FlitSimResult r = FlitSimulator(mesh, set, quiet_config(1)).run();
  ASSERT_EQ(r.per_stream[0].completed, 1);
  EXPECT_EQ(r.per_stream[0].worst, set[0].latency);
  EXPECT_TRUE(r.drained);
}

INSTANTIATE_TEST_SUITE_P(
    HopsAndLengths, ContentionFreeLatency,
    ::testing::Values(LatencyCase{0, 0, 1, 0, 1},   // 1 hop, single flit
                      LatencyCase{0, 0, 7, 0, 1},   // 7 hops, single flit
                      LatencyCase{0, 0, 1, 0, 9},   // 1 hop, long worm
                      LatencyCase{0, 0, 7, 7, 5},   // full diagonal
                      LatencyCase{3, 4, 6, 1, 12},  // X then Y
                      LatencyCase{7, 7, 0, 0, 40},  // paper's max length
                      LatencyCase{2, 2, 3, 3, 2}));

TEST(HypercubeSim, ContentionFreeLatencyMatches) {
  const topo::Hypercube cube(5);
  const route::EcubeRouting ecube;
  StreamSet set;
  set.add(make_stream(cube, ecube, 0, 0b00000, 0b10111, 0, 1 << 20, 7,
                      1 << 20));
  const FlitSimResult r = FlitSimulator(cube, set, quiet_config(1)).run();
  ASSERT_EQ(r.per_stream[0].completed, 1);
  EXPECT_EQ(r.per_stream[0].worst, set[0].latency);  // 4 hops + 7 - 1 = 10
}

// ---------------------------------------------------------------------
// Back-to-back instances of one stream pipeline at full bandwidth: with
// a period leaving room for the 2-cycle credit round trip between worms
// (T >= C + 2), the k-th message still arrives at k*T + L.
TEST(Pipelining, PeriodicStreamSustainsFullRate) {
  topo::Mesh mesh(8, 1);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({7, 0}), 0, /*period=*/12, /*length=*/10,
                      /*deadline=*/100));
  const FlitSimResult r = FlitSimulator(mesh, set, quiet_config(120)).run();
  ASSERT_EQ(r.per_stream[0].completed, 10);
  for (const auto& a : r.arrivals) {
    EXPECT_EQ(a.delivered - a.generated, set[0].latency);
  }
}

// ---------------------------------------------------------------------
// Flit conservation over contended workloads on a mesh and a hypercube.
TEST(Conservation, EveryInjectedFlitIsEjected) {
  topo::Mesh mesh(6, 6);
  StreamSet set;
  StreamId id = 0;
  for (std::int32_t i = 0; i < 6; ++i) {
    set.add(make_stream(mesh, kXy, id++, mesh.node_at({i, 0}),
                        mesh.node_at({5 - i, 5}), /*priority=*/i % 3,
                        /*period=*/17 + 3 * i, /*length=*/4 + i,
                        /*deadline=*/100000));
  }
  FlitSimConfig cfg = quiet_config(2000);
  cfg.vc_mode = VcMode::kPerPriority;
  const FlitSimResult r = FlitSimulator(mesh, set, cfg).run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.flits_injected, r.flits_delivered);
  std::int64_t expected_flits = 0;
  for (const auto& s : set) {
    const auto messages = (cfg.duration + s.period - 1) / s.period;
    expected_flits += messages * s.length;
  }
  EXPECT_EQ(r.flits_delivered, expected_flits);
  for (const auto& st : r.per_stream) {
    EXPECT_EQ(st.generated, st.completed);
  }
}

TEST(HypercubeSim, ContendedTrafficConservesFlits) {
  const topo::Hypercube cube(4);
  const route::EcubeRouting ecube;
  StreamSet set;
  for (StreamId i = 0; i < 6; ++i) {
    set.add(make_stream(cube, ecube, i, i, 15 - i, i % 3, 23 + i, 6,
                        100000));
  }
  FlitSimConfig cfg = quiet_config(1000);
  cfg.vc_mode = VcMode::kPerPriority;
  const FlitSimResult r = FlitSimulator(cube, set, cfg).run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.flits_injected, r.flits_delivered);
}

TEST(TorusSim, NonWrappingRoutesStayAcyclic) {
  const topo::Torus torus(8, 8);
  const route::DimensionOrderRouting dor;
  StreamSet set;
  // Short hops that never take wraparound channels.
  set.add(make_stream(torus, dor, 0, torus.node_at({1, 1}),
                      torus.node_at({3, 1}), 0, 50, 5, 1000));
  set.add(make_stream(torus, dor, 1, torus.node_at({2, 2}),
                      torus.node_at({2, 4}), 0, 50, 5, 1000));
  FlitSimConfig cfg = quiet_config(200);
  cfg.vc_mode = VcMode::kFcfs;
  const FlitSimResult r = FlitSimulator(torus, set, cfg).run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.per_stream[0].worst, set[0].latency);
}

// ---------------------------------------------------------------------
// Warm-up and random-phase accounting.
TEST(Accounting, WarmupExcludesEarlyMessages) {
  topo::Mesh mesh(4, 4);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({3, 3}), 0, /*period=*/50, /*length=*/5,
                      /*deadline=*/1000));
  FlitSimConfig cfg = quiet_config(500);
  cfg.warmup = 250;
  const FlitSimResult r = FlitSimulator(mesh, set, cfg).run();
  // Releases at 0,50,...,450; only the five at 250..450 count.
  EXPECT_EQ(r.per_stream[0].generated, 5);
  EXPECT_EQ(r.per_stream[0].completed, 5);
  // All ten are still simulated, drained, and recorded.
  EXPECT_EQ(r.flits_delivered, 10 * 5);
  EXPECT_EQ(r.arrivals.size(), 10u);
}

TEST(Accounting, RandomPhaseIsDeterministicPerSeed) {
  topo::Mesh mesh(4, 4);
  StreamSet set;
  for (StreamId i = 0; i < 4; ++i) {
    set.add(make_stream(mesh, kXy, i, mesh.node_at({i, 0}),
                        mesh.node_at({i, 3}), 0, /*period=*/31 + i,
                        /*length=*/3, /*deadline=*/1000));
  }
  FlitSimConfig cfg = quiet_config(400);
  cfg.random_phase = true;
  cfg.phase_seed = 7;
  const FlitSimResult a = FlitSimulator(mesh, set, cfg).run();
  const FlitSimResult b = FlitSimulator(mesh, set, cfg).run();
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  bool shifted = false;
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].generated, b.arrivals[i].generated);
    EXPECT_EQ(a.arrivals[i].delivered, b.arrivals[i].delivered);
    const Time period = set[a.arrivals[i].stream].period;
    shifted = shifted || a.arrivals[i].generated % period != 0;
  }
  EXPECT_TRUE(shifted);  // the phases really moved some release
}

// ---------------------------------------------------------------------
// Per-channel flit counts and the hot-channel report built from them.
TEST(ChannelUtilization, CountsMatchTraffic) {
  const topo::Hypercube cube(3);
  const route::EcubeRouting ecube;
  StreamSet set;
  set.add(make_stream(cube, ecube, 0, 0, 7, 0, /*T=*/20, /*C=*/5,
                      100000));
  const FlitSimResult r = FlitSimulator(cube, set, quiet_config(200)).run();
  // 10 messages x 5 flits over 3 hops = 150 channel traversals.
  std::int64_t total = 0;
  int used_channels = 0;
  for (const auto f : r.flits_per_channel) {
    total += f;
    used_channels += f > 0 ? 1 : 0;
  }
  EXPECT_EQ(total, 150);
  EXPECT_EQ(used_channels, 3);
  // Each of the three path channels carried all 50 flits.
  for (const auto cid : set[0].path.channels) {
    EXPECT_EQ(r.flits_per_channel[static_cast<std::size_t>(cid)], 50);
  }
  const std::string hot = render_hot_channels(
      r,
      [&](std::size_t c) {
        const auto& ch =
            cube.channels().channel(static_cast<topo::ChannelId>(c));
        return std::pair<std::string, std::string>(std::to_string(ch.src),
                                                   std::to_string(ch.dst));
      },
      2);
  // Exactly the two requested lines, each a 50-flit path channel.
  EXPECT_EQ(std::count(hot.begin(), hot.end(), '\n'), 2);
  EXPECT_EQ(hot.find(" -> "), 1u);
  EXPECT_NE(hot.find(": 50 flits (util 0.2"), std::string::npos);
}

}  // namespace
}  // namespace wormrt::flitsim
