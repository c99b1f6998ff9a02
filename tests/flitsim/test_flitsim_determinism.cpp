// Determinism of the flit simulator: one run is a pure function of
// (topology, streams, config), and parallel replications produce
// bitwise-identical results at any thread count because each
// replication is an independent single-threaded simulation writing into
// its own pre-sized slot (the repo-wide parallel_for pattern).
//
// FlitSimGolden pins the simulator's output event for event: every
// FlitSimResult field of small fixed runs, in all five VC modes, against
// constants recorded before the event loop was last rewritten.
//
// This test intentionally exercises util::ThreadPool from multiple
// threads and is part of the TSan CI filter.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "topo/torus.hpp"
#include "util/fnv1a.hpp"

namespace wormrt {
namespace {

constexpr flitsim::VcMode kAllModes[] = {
    flitsim::VcMode::kPerPriority, flitsim::VcMode::kLiVc,
    flitsim::VcMode::kFcfs, flitsim::VcMode::kPerStreamLane,
    flitsim::VcMode::kThrottlePreempt};

core::StreamSet busy_workload(const topo::Topology& topo) {
  const route::XYRouting xy;
  core::WorkloadParams wp;
  wp.num_streams = 14;
  wp.priority_levels = 3;
  wp.seed = 7;
  wp.period_min = 30;
  wp.period_max = 70;
  wp.length_min = 2;
  wp.length_max = 20;
  return core::generate_workload(topo, xy, wp);
}

void expect_identical(const flitsim::FlitSimResult& a,
                      const flitsim::FlitSimResult& b) {
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.flits_dropped, b.flits_dropped);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.vc_block_cycles, b.vc_block_cycles);
  EXPECT_EQ(a.drained, b.drained);
  ASSERT_EQ(a.per_stream.size(), b.per_stream.size());
  for (std::size_t i = 0; i < a.per_stream.size(); ++i) {
    const auto& sa = a.per_stream[i];
    const auto& sb = b.per_stream[i];
    EXPECT_EQ(sa.worst, sb.worst) << "stream " << i;
    EXPECT_EQ(sa.generated, sb.generated) << "stream " << i;
    EXPECT_EQ(sa.completed, sb.completed) << "stream " << i;
    EXPECT_EQ(sa.vc_block_cycles, sb.vc_block_cycles) << "stream " << i;
    EXPECT_EQ(sa.latency.count(), sb.latency.count()) << "stream " << i;
    // Welford updates run in the same order in both runs, so the means
    // are bitwise equal, not just approximately equal.
    EXPECT_EQ(sa.latency.mean(), sb.latency.mean()) << "stream " << i;
  }
  EXPECT_EQ(a.flits_per_channel, b.flits_per_channel);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].stream, b.arrivals[i].stream) << "arrival " << i;
    EXPECT_EQ(a.arrivals[i].generated, b.arrivals[i].generated)
        << "arrival " << i;
    EXPECT_EQ(a.arrivals[i].delivered, b.arrivals[i].delivered)
        << "arrival " << i;
  }
}

TEST(FlitSimDeterminism, RepeatedRunsAreBitwiseIdentical) {
  const topo::Mesh mesh(4, 4);
  const core::StreamSet set = busy_workload(mesh);
  for (const flitsim::VcMode mode : kAllModes) {
    SCOPED_TRACE(flitsim::to_string(mode));
    flitsim::FlitSimConfig fc;
    fc.duration = 1500;
    fc.warmup = 200;
    fc.random_phase = true;
    fc.phase_seed = 3;
    fc.vc_mode = mode;
    fc.num_vcs = mode == flitsim::VcMode::kPerPriority ? 0 : 2;
    fc.record_arrivals = true;
    flitsim::FlitSimulator sim_a(mesh, set, fc);
    flitsim::FlitSimulator sim_b(mesh, set, fc);
    const flitsim::FlitSimResult a = sim_a.run();
    const flitsim::FlitSimResult b = sim_b.run();
    expect_identical(a, b);
  }
}

TEST(FlitSimDeterminism, ReplicationsIdenticalAcrossThreadCounts) {
  const topo::Mesh mesh(4, 4);
  const core::StreamSet set = busy_workload(mesh);
  flitsim::FlitSimConfig fc;
  fc.duration = 1000;
  fc.warmup = 100;
  fc.record_arrivals = true;
  constexpr int kReps = 6;

  const auto serial = flitsim::run_replications(mesh, set, fc, kReps,
                                                /*num_threads=*/1);
  const auto two = flitsim::run_replications(mesh, set, fc, kReps,
                                             /*num_threads=*/2);
  const auto hw = flitsim::run_replications(mesh, set, fc, kReps,
                                            /*num_threads=*/0);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kReps));
  ASSERT_EQ(two.size(), serial.size());
  ASSERT_EQ(hw.size(), serial.size());
  for (int rep = 0; rep < kReps; ++rep) {
    SCOPED_TRACE("replication " + std::to_string(rep));
    expect_identical(serial[static_cast<std::size_t>(rep)],
                     two[static_cast<std::size_t>(rep)]);
    expect_identical(serial[static_cast<std::size_t>(rep)],
                     hw[static_cast<std::size_t>(rep)]);
  }
}

TEST(FlitSimDeterminism, ReplicationsVaryPhasesButShareWorkload) {
  const topo::Mesh mesh(4, 4);
  const core::StreamSet set = busy_workload(mesh);
  flitsim::FlitSimConfig fc;
  fc.duration = 1000;
  fc.warmup = 0;
  const auto reps = flitsim::run_replications(mesh, set, fc, 4,
                                              /*num_threads=*/2);
  ASSERT_EQ(reps.size(), 4u);
  for (const auto& r : reps) {
    EXPECT_TRUE(r.drained);
    EXPECT_EQ(r.flits_injected, r.flits_delivered);
  }
  // Replication 0 keeps the caller's (synchronized) phases; later
  // replications draw random phases, so at least one differs.
  bool any_differs = false;
  for (std::size_t rep = 1; rep < reps.size(); ++rep) {
    if (reps[rep].events_processed != reps[0].events_processed ||
        reps[rep].vc_block_cycles != reps[0].vc_block_cycles) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

// ---------------------------------------------------------------------
// Golden runs.  Each case is a short, busy run (every node of a 4x4
// mesh or torus sources one stream, three priority levels) whose every
// FlitSimResult field is compared against a recorded value.  One
// overloaded case (periods from 6) makes two VCs of one channel free
// up in the same cycle, so the order credits are applied in shows.
// The vector fields are compared by length and an FNV-1a digest of
// their raw contents: per_stream (generated, completed, worst,
// vc_block_cycles, latency count and the bits of the latency mean),
// flits_per_channel, and arrivals (stream, generated, delivered) in
// delivery order.  A mismatch names the first differing field and
// prints the whole recorded line to paste when a change to the
// simulator's behaviour is intended.

enum class Fabric { kMesh, kTorus };

struct GoldenCase {
  const char* name;
  Fabric fabric;
  flitsim::VcMode mode;
  int num_vcs;
  int depth;
  bool random_phase;
  Time period_min;
  // Recorded results, in the order golden_fields() lists them.
  std::int64_t events, injected, delivered, dropped, retransmissions,
      cycles, vc_block, drained;
  std::uint64_t per_stream_digest, channel_digest;
  std::int64_t arrivals;
  std::uint64_t arrivals_digest;
};

// Names the ctest case: "Runs/FlitSimGolden.<test>/<case name>".
void PrintTo(const GoldenCase& g, std::ostream* os) { *os << g.name; }

using util::Fnv1a;

struct Field {
  const char* name;
  std::uint64_t recorded;
  std::uint64_t actual;
  bool digest = false;
};

std::vector<Field> golden_fields(const GoldenCase& g,
                                 const flitsim::FlitSimResult& r) {
  const auto u = [](auto v) { return static_cast<std::uint64_t>(v); };
  Fnv1a per_stream;
  for (const auto& s : r.per_stream) {
    per_stream.add(u(s.generated));
    per_stream.add(u(s.completed));
    per_stream.add(u(s.worst));
    per_stream.add(u(s.vc_block_cycles));
    per_stream.add(u(s.latency.count()));
    per_stream.add(std::bit_cast<std::uint64_t>(s.latency.mean()));
  }
  Fnv1a channels;
  for (const std::int64_t f : r.flits_per_channel) channels.add(u(f));
  Fnv1a arrivals;
  for (const auto& a : r.arrivals) {
    arrivals.add(u(a.stream));
    arrivals.add(u(a.generated));
    arrivals.add(u(a.delivered));
  }
  return {
      {"events_processed", u(g.events), u(r.events_processed)},
      {"flits_injected", u(g.injected), u(r.flits_injected)},
      {"flits_delivered", u(g.delivered), u(r.flits_delivered)},
      {"flits_dropped", u(g.dropped), u(r.flits_dropped)},
      {"retransmissions", u(g.retransmissions), u(r.retransmissions)},
      {"cycles_run", u(g.cycles), u(r.cycles_run)},
      {"vc_block_cycles", u(g.vc_block), u(r.vc_block_cycles)},
      {"drained", u(g.drained), u(r.drained)},
      {"per_stream", g.per_stream_digest, per_stream.value(), true},
      {"flits_per_channel", g.channel_digest, channels.value(), true},
      {"arrivals.size", u(g.arrivals), u(r.arrivals.size())},
      {"arrivals", g.arrivals_digest, arrivals.value(), true},
  };
}

/// The run's fields as a kGolden initializer tail.
std::string recorded_line(const std::vector<Field>& fields) {
  std::string line;
  for (const Field& f : fields) {
    char buf[32];
    if (f.digest) {
      std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", f.actual);
    } else {
      std::snprintf(buf, sizeof buf, "%" PRIu64, f.actual);
    }
    line += (line.empty() ? "" : ", ") + std::string(buf);
  }
  return line;
}

using flitsim::VcMode;

// clang-format off
constexpr GoldenCase kGolden[] = {
  // name, fabric, mode, VCs, depth, random phase, shortest period, then
  // the recorded events, injected, delivered, dropped, retransmissions,
  // cycles, vc_block, drained, per_stream, flits_per_channel, arrivals,
  // arrivals digest.
  {"lanes_d1_sync", Fabric::kMesh, VcMode::kPerStreamLane, 0, 1, false, 16,
   10043, 2695, 2695, 0, 0, 861, 279, 1,
   0x1e6f3ab7b5b52193ull, 0x55e8ade954b1d441ull, 269, 0xf60322ff71eacb46ull},
  {"lanes_d2_random", Fabric::kMesh, VcMode::kPerStreamLane, 0, 2, true, 16,
   9735, 2582, 2582, 0, 0, 758, 682, 1,
   0x090bbf912a6fe7b1ull, 0x975f75a37efdb422ull, 259, 0x5fe6cea8e8bd10e2ull},
  {"priority_d1_random", Fabric::kMesh, VcMode::kPerPriority, 0, 1, true, 16,
   11351, 2582, 2582, 0, 0, 1023, 2078, 1,
   0xfcc4e4503fc234abull, 0x975f75a37efdb422ull, 259, 0x503a2f24093e0138ull},
  {"priority_d2_sync", Fabric::kMesh, VcMode::kPerPriority, 0, 2, false, 16,
   10920, 2695, 2695, 0, 0, 817, 2257, 1,
   0xbdc3e29ebc91dd1eull, 0x55e8ade954b1d441ull, 269, 0x12eddb6863e5ae9bull},
  {"li2_d1_sync", Fabric::kMesh, VcMode::kLiVc, 2, 1, false, 16,
   11017, 2695, 2695, 0, 0, 861, 966, 1,
   0x3234d652424e76b3ull, 0x55e8ade954b1d441ull, 269, 0x13a9968676b50d3aull},
  {"li2_d2_random", Fabric::kMesh, VcMode::kLiVc, 2, 2, true, 16,
   9809, 2582, 2582, 0, 0, 751, 231, 1,
   0xb54aa75795a77559ull, 0x975f75a37efdb422ull, 259, 0x340e49c1cfb0ded1ull},
  {"fcfs_d1_random", Fabric::kMesh, VcMode::kFcfs, 0, 1, true, 16,
   13431, 2582, 2582, 0, 0, 1178, 4383, 1,
   0xddb7a99c55eee558ull, 0x975f75a37efdb422ull, 259, 0x6463a6488dfc7b8eull},
  {"fcfs_d2_sync", Fabric::kMesh, VcMode::kFcfs, 0, 2, false, 16,
   11079, 2695, 2695, 0, 0, 868, 3611, 1,
   0xab006fa2cabeb441ull, 0x55e8ade954b1d441ull, 269, 0x99bbd5fc10cdeb96ull},
  {"throttle2_d1_random", Fabric::kMesh, VcMode::kThrottlePreempt, 2, 1, true, 16,
   10009, 2604, 2582, 22, 3, 903, 0, 1,
   0xaf3f3f52ce91a322ull, 0x2e69648f7ec1c572ull, 259, 0x466d8f13a61c85d3ull},
  {"throttle2_d2_sync", Fabric::kMesh, VcMode::kThrottlePreempt, 2, 2, false, 16,
   10244, 2705, 2695, 10, 1, 788, 1, 1,
   0x17b3b4360ad7f55dull, 0xee0f9087473ced33ull, 269, 0x0ac8b548721dabf7ull},
  {"torus_lanes_d2_random", Fabric::kTorus, VcMode::kPerStreamLane, 0, 2, true, 16,
   8140, 2582, 2582, 0, 0, 757, 282, 1,
   0x26d701824903248aull, 0xd64fce5cbcb98c53ull, 259, 0x82df63d6728a7ffeull},
  {"torus_li2_d1_sync", Fabric::kTorus, VcMode::kLiVc, 2, 1, false, 16,
   9693, 2695, 2695, 0, 0, 846, 822, 1,
   0xdc1bc2e7c2c3c4a9ull, 0x5d3dca99ea0b8680ull, 269, 0x47ab01983e8a9fd8ull},
  {"torus_li2_d2_overload", Fabric::kTorus, VcMode::kLiVc, 2, 2, false, 6,
   12903, 4456, 4456, 0, 0, 1147, 4662, 1,
   0x354ef57012a006dcull, 0x98ecce6f2cc7fde4ull, 459, 0xd73900758e7d9c07ull},
};
// clang-format on

class FlitSimGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(FlitSimGolden, EveryResultFieldMatchesRecording) {
  const GoldenCase& g = GetParam();
  std::unique_ptr<topo::Topology> fabric;
  if (g.fabric == Fabric::kMesh) {
    fabric = std::make_unique<topo::Mesh>(4, 4);
  } else {
    fabric = std::make_unique<topo::Torus>(4, 4);
  }
  const route::DimensionOrderRouting dor;
  core::WorkloadParams wp;
  wp.num_streams = 16;
  wp.priority_levels = 3;
  wp.seed = 11;
  wp.period_min = g.period_min;
  wp.period_max = 60;
  wp.length_min = 2;
  wp.length_max = 16;
  const core::StreamSet set = core::generate_workload(*fabric, dor, wp);

  flitsim::FlitSimConfig fc;
  fc.duration = 600;
  fc.warmup = 100;
  fc.drain_limit = 4000;
  fc.vc_mode = g.mode;
  fc.num_vcs = g.num_vcs;
  fc.vc_buffer_depth = g.depth;
  fc.random_phase = g.random_phase;
  fc.phase_seed = 5;
  fc.record_arrivals = true;
  const flitsim::FlitSimResult r = flitsim::FlitSimulator(*fabric, set, fc).run();

  const std::vector<Field> fields = golden_fields(g, r);
  for (const Field& f : fields) {
    if (f.recorded != f.actual) {
      ADD_FAILURE() << g.name << ": first differing field is " << f.name
                    << " (recorded " << f.recorded << ", got " << f.actual
                    << ")\n  this run records as: " << recorded_line(fields);
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Runs, FlitSimGolden, ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace wormrt
