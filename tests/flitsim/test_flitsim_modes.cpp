// Switching-policy behaviour of the flit simulator: flit-level
// preemption against the Fig. 2 baselines (classical FCFS wormhole, Li &
// Mutka's VCs), per-priority VC holding versus per-stream lanes, port
// and source arbitration, a single-VC ring deadlock, and Song's
// throttle-and-preempt (whole-message discard, source throttling,
// retransmission).

#include <gtest/gtest.h>

#include "core/message_stream.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "topo/torus.hpp"

namespace wormrt::flitsim {
namespace {

using core::StreamSet;
using core::make_stream;

const route::XYRouting kXy;

FlitSimConfig mode_config(Time duration, VcMode mode, int num_vcs) {
  FlitSimConfig cfg;
  cfg.duration = duration;
  cfg.warmup = 0;
  cfg.vc_mode = mode;
  cfg.num_vcs = num_vcs;
  cfg.record_arrivals = true;
  cfg.validate = true;
  return cfg;
}

// ---------------------------------------------------------------------
// Flit-level preemption: a high-priority message crossing a channel held
// by a long low-priority worm is delayed by at most one flit time beyond
// its contention-free latency, while under classical non-preemptive
// switching it must wait for the whole worm (Fig. 2's priority-inversion
// effect).
class PreemptionScenario : public ::testing::Test {
 protected:
  PreemptionScenario() : mesh_(8, 1) {
    // Low priority: long worm 0 -> 7 released at t = 0.
    set_.add(make_stream(mesh_, kXy, 0, mesh_.node_at({0, 0}),
                         mesh_.node_at({7, 0}), /*priority=*/0,
                         /*period=*/100000, /*length=*/60,
                         /*deadline=*/100000));
    // High priority: short worm 2 -> 6 released at t = 10, when the low
    // worm owns every channel it needs.
    set_.add(make_stream(mesh_, kXy, 1, mesh_.node_at({2, 0}),
                         mesh_.node_at({6, 0}), /*priority=*/1,
                         /*period=*/100000, /*length=*/4,
                         /*deadline=*/100000));
  }

  FlitSimResult run(VcMode mode, int num_vcs) {
    FlitSimConfig cfg = mode_config(/*duration=*/11, mode, num_vcs);
    cfg.explicit_phases = {0, 10};
    return FlitSimulator(mesh_, set_, cfg).run();
  }

  topo::Mesh mesh_;
  StreamSet set_;
};

TEST_F(PreemptionScenario, PreemptiveDeliversHighPriorityAtOnce) {
  const FlitSimResult r = run(VcMode::kPerPriority, 2);
  ASSERT_EQ(r.per_stream[1].completed, 1);
  // 4 hops + 4 flits - 1 = 7; preemption may cost one extra cycle at the
  // instant the header displaces the low worm mid-transfer.
  EXPECT_LE(r.per_stream[1].worst, set_[1].latency + 1);
  // The low worm pays for it.
  EXPECT_GT(r.per_stream[0].worst, set_[0].latency);
}

TEST_F(PreemptionScenario, NonPreemptiveInvertsPriorities) {
  const FlitSimResult r = run(VcMode::kFcfs, 1);
  ASSERT_EQ(r.per_stream[1].completed, 1);
  // The high-priority worm waits behind ~50 remaining low-priority
  // flits: an order of magnitude above its contention-free latency.
  EXPECT_GT(r.per_stream[1].worst, 40);
  // The low worm is unharmed.
  EXPECT_EQ(r.per_stream[0].worst, set_[0].latency);
}

TEST_F(PreemptionScenario, LiSchemeSharesBandwidthRoundRobin) {
  const FlitSimResult r = run(VcMode::kLiVc, 2);
  ASSERT_EQ(r.per_stream[1].completed, 1);
  // Li's scheme lets the high worm in immediately (a free VC <= its
  // priority exists) but the physical channel is shared round-robin, so
  // it travels at roughly half bandwidth: slower than preemptive,
  // far faster than non-preemptive.
  EXPECT_GT(r.per_stream[1].worst, set_[1].latency + 1);
  EXPECT_LT(r.per_stream[1].worst, 40);
  EXPECT_GT(r.per_stream[0].worst, set_[0].latency);
}

// ---------------------------------------------------------------------
// Priority isolation: the top-priority stream's worst observed latency
// is independent of any amount of lower-priority cross traffic.
TEST(PriorityIsolation, TopPriorityUnaffectedByCrossTraffic) {
  topo::Mesh mesh(6, 6);
  StreamSet with_cross;
  with_cross.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 2}),
                             mesh.node_at({5, 2}), /*priority=*/2,
                             /*period=*/40, /*length=*/8, /*deadline=*/4000));
  for (StreamId i = 1; i <= 4; ++i) {
    with_cross.add(make_stream(mesh, kXy, i, mesh.node_at({i, 0}),
                               mesh.node_at({i, 5}), /*priority=*/(i - 1) % 2,
                               /*period=*/13, /*length=*/11,
                               /*deadline=*/4000));
  }
  const FlitSimResult r =
      FlitSimulator(mesh, with_cross,
                    mode_config(/*duration=*/4000, VcMode::kPerPriority, 3))
          .run();
  ASSERT_GT(r.per_stream[0].completed, 0);
  // The cross streams' Y columns cut the hot row at every router it
  // crosses; top priority wins each of them, so its worst latency stays
  // at the contention-free value (+1 for a displacement cycle).
  EXPECT_LE(r.per_stream[0].worst, with_cross[0].latency + 1);
}

// Two equal-priority streams sharing a channel: under the per-priority
// VC policy one holds the shared VC for its whole traversal and the
// other's header waits (hold-and-wait); under per-stream lanes no header
// ever waits for a VC, and the trailing worm finishes no later.
TEST(SamePriorityContention, VcPolicySerializesLanePolicyShares) {
  topo::Mesh mesh(8, 1);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({7, 0}), 1, 1 << 20, 30, 1 << 20));
  set.add(make_stream(mesh, kXy, 1, mesh.node_at({1, 0}),
                      mesh.node_at({6, 0}), 1, 1 << 20, 30, 1 << 20));

  FlitSimConfig cfg = mode_config(5, VcMode::kPerPriority, 2);
  cfg.explicit_phases = {0, 1};
  const FlitSimResult vc = FlitSimulator(mesh, set, cfg).run();
  // Stream 1 waits for stream 0's tail to release the shared VC.
  EXPECT_GT(vc.per_stream[1].worst, 55);
  EXPECT_GT(vc.per_stream[1].vc_block_cycles, 0);
  EXPECT_EQ(vc.per_stream[0].worst, set[0].latency);

  cfg.vc_mode = VcMode::kPerStreamLane;
  const FlitSimResult lane = FlitSimulator(mesh, set, cfg).run();
  EXPECT_EQ(lane.vc_block_cycles, 0);
  EXPECT_LE(lane.per_stream[1].worst, vc.per_stream[1].worst);
  // Equal priorities break the channel tie towards the lower stream id.
  EXPECT_EQ(lane.per_stream[0].worst, set[0].latency);
}

// Li's scheme: a priority-0 message may only use VC 0; priority-1 may
// take VC 1 or 0.  With VC 0 held by a long priority-0 worm, a second
// priority-0 worm waits while a priority-1 worm still gets through.
TEST(LiScheme, HighPriorityFindsAFreeVcLowWaits) {
  topo::Mesh mesh(8, 1);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({7, 0}), 0, 1 << 20, 60, 1 << 20));
  set.add(make_stream(mesh, kXy, 1, mesh.node_at({1, 0}),
                      mesh.node_at({6, 0}), 0, 1 << 20, 6, 1 << 20));
  set.add(make_stream(mesh, kXy, 2, mesh.node_at({2, 0}),
                      mesh.node_at({5, 0}), 1, 1 << 20, 6, 1 << 20));

  FlitSimConfig cfg = mode_config(12, VcMode::kLiVc, 2);
  cfg.explicit_phases = {0, 10, 10};
  const FlitSimResult r = FlitSimulator(mesh, set, cfg).run();
  // The priority-1 worm shares bandwidth but is admitted immediately;
  // the second priority-0 worm cannot enter until the first tail
  // releases VC 0 somewhere around t = 60+.
  EXPECT_LT(r.per_stream[2].worst, 40);
  EXPECT_EQ(r.per_stream[2].vc_block_cycles, 0);
  EXPECT_GT(r.per_stream[1].worst, 50);
}

// Ejection port: two streams delivering to the same node; the higher
// priority one wins the port every cycle.
TEST(EjectionArbitration, HigherPriorityWinsThePort) {
  topo::Mesh mesh(3, 3);
  StreamSet set;
  // Both eject at (1,1) via different incoming channels.
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 1}),
                      mesh.node_at({1, 1}), 0, /*T=*/20, /*C=*/18,
                      1 << 20));
  set.add(make_stream(mesh, kXy, 1, mesh.node_at({1, 0}),
                      mesh.node_at({1, 1}), 1, /*T=*/20, /*C=*/10,
                      1 << 20));
  const FlitSimResult r =
      FlitSimulator(mesh, set, mode_config(200, VcMode::kPerPriority, 2))
          .run();
  ASSERT_GT(r.per_stream[1].completed, 0);
  // High priority is nearly unaffected (its flits always win the port).
  EXPECT_LE(r.per_stream[1].worst, set[1].latency + 1);
  // Low priority is throttled well beyond its contention-free latency.
  EXPECT_GT(r.per_stream[0].worst, set[0].latency + 5);
}

// Consecutive instances of one stream are FIFO through the source
// queue: arrivals never reorder and each instance's delay reflects the
// queueing behind its predecessor.
TEST(SourceQueue, InstancesStayOrdered) {
  topo::Mesh mesh(6, 1);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({5, 0}), 0, /*T=*/4, /*C=*/12,
                      1 << 20));  // period << service time: backlog
  const FlitSimResult r =
      FlitSimulator(mesh, set, mode_config(40, VcMode::kPerPriority, 1))
          .run();
  ASSERT_GE(r.arrivals.size(), 3u);
  for (std::size_t i = 1; i < r.arrivals.size(); ++i) {
    EXPECT_LT(r.arrivals[i - 1].generated, r.arrivals[i].generated);
    EXPECT_LT(r.arrivals[i - 1].delivered, r.arrivals[i].delivered);
  }
  // Backlog grows: instance k departs roughly when k predecessors have
  // drained at 12 flits each.
  const auto& last = r.arrivals.back();
  EXPECT_GT(last.delivered - last.generated, set[0].latency);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.flits_injected, r.flits_delivered);
}

// FCFS switching has a single VC per channel whatever num_vcs asks for.
TEST(NonPreemptive, ForcesSingleVc) {
  topo::Mesh mesh(4, 1);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({3, 0}), 3, 1 << 20, 4, 1 << 20));
  StreamSet two = set;
  two.add(make_stream(mesh, kXy, 1, mesh.node_at({1, 0}),
                      mesh.node_at({3, 0}), 0, 1 << 20, 4, 1 << 20));
  FlitSimConfig cfg = mode_config(2, VcMode::kFcfs, 7);
  EXPECT_EQ(FlitSimulator(mesh, set, cfg).run().per_stream[0].completed, 1);
  // With one VC the later header waits even though 7 were requested.
  cfg.explicit_phases = {0, 1};
  EXPECT_GT(FlitSimulator(mesh, two, cfg).run().vc_block_cycles, 0);
}

// Three overlapping 3-hop routes whose channel dependencies chain all
// the way around a ring: 4->1, 0->3, 2->5 close the cycle
// 4-5 -> 5-0 -> 0-1 -> 1-2 -> 2-3 -> 3-4 -> 4-5.  With a single VC per
// channel this is the textbook wormhole deadlock: each header waits on a
// channel held by the next worm.  The simulator must reproduce it and
// give up at the drain limit rather than hang (the paper's Section 3
// assumes deadlock-free routing for exactly this reason).
TEST(TorusSim, SingleVcRingTrafficDeadlocks) {
  const topo::Torus torus(6, 1);
  const route::DimensionOrderRouting dor;
  StreamSet set;
  set.add(make_stream(torus, dor, 0, 4, 1, 0, 50, 5, 1000));
  set.add(make_stream(torus, dor, 1, 0, 3, 0, 50, 5, 1000));
  set.add(make_stream(torus, dor, 2, 2, 5, 0, 50, 5, 1000));
  FlitSimConfig cfg = mode_config(500, VcMode::kFcfs, 1);
  cfg.vc_buffer_depth = 2;  // a 5-flit worm spans three buffers
  cfg.drain_limit = 2000;
  const FlitSimResult r = FlitSimulator(torus, set, cfg).run();
  EXPECT_FALSE(r.drained);                          // deadlocked
  EXPECT_LT(r.flits_delivered, r.flits_injected);   // worms stuck mid-route
  for (const auto& st : r.per_stream) {
    EXPECT_EQ(st.completed, 0);
  }
}

// ---------------------------------------------------------------------
// Song-style throttle-and-preempt.
TEST(ThrottlePreempt, UncontendedStreamBehavesLikeWormhole) {
  topo::Mesh mesh(8, 1);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({7, 0}), 2, /*T=*/40, /*C=*/10,
                      100000));
  const FlitSimResult r =
      FlitSimulator(mesh, set, mode_config(400, VcMode::kThrottlePreempt, 2))
          .run();
  EXPECT_EQ(r.per_stream[0].completed, 10);
  EXPECT_EQ(r.per_stream[0].worst, set[0].latency);
  EXPECT_EQ(r.retransmissions, 0);
  EXPECT_EQ(r.flits_dropped, 0);
  EXPECT_EQ(r.flits_injected, r.flits_delivered);
}

// Two low-priority worms hold both VCs of the contended channel
// (4,0)->(5,0) — they overlap nowhere else, so both headers are there
// by t = 15; a high-priority header then preempts the lowest one, which
// retransmits.
TEST(ThrottlePreempt, HighPriorityPreemptsAndVictimRetransmits) {
  topo::Mesh mesh(8, 1);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({5, 0}), 0, 1 << 20, 40, 1 << 20));
  set.add(make_stream(mesh, kXy, 1, mesh.node_at({4, 0}),
                      mesh.node_at({7, 0}), 1, 1 << 20, 40, 1 << 20));
  set.add(make_stream(mesh, kXy, 2, mesh.node_at({3, 0}),
                      mesh.node_at({6, 0}), 2, 1 << 20, 4, 1 << 20));
  FlitSimConfig cfg = mode_config(/*duration=*/16, VcMode::kThrottlePreempt,
                                  /*num_vcs=*/2);
  cfg.explicit_phases = {0, 0, 15};  // both VCs busy when prio 2 fires
  const FlitSimResult r = FlitSimulator(mesh, set, cfg).run();
  // The urgent message arrives essentially contention-free.
  ASSERT_EQ(r.per_stream[2].completed, 1);
  EXPECT_LE(r.per_stream[2].worst, set[2].latency + 2);
  // Exactly one victim was preempted — the priority-0 worm — and it
  // still completed after retransmitting.
  EXPECT_EQ(r.retransmissions, 1);
  EXPECT_GT(r.flits_dropped, 0);
  EXPECT_EQ(r.per_stream[0].completed, 1);
  EXPECT_EQ(r.per_stream[1].completed, 1);
  EXPECT_EQ(r.flits_injected, r.flits_delivered + r.flits_dropped);
  EXPECT_TRUE(r.drained);
  // The untouched priority-1 worm kept its VC: no extra delay beyond
  // sharing the channel with the short urgent worm.
  EXPECT_GT(r.per_stream[0].worst, r.per_stream[1].worst);
}

TEST(ThrottlePreempt, EqualPriorityNeverPreempts) {
  topo::Mesh mesh(8, 1);
  StreamSet set;
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({7, 0}), 1, 1 << 20, 30, 1 << 20));
  set.add(make_stream(mesh, kXy, 1, mesh.node_at({1, 0}),
                      mesh.node_at({6, 0}), 1, 1 << 20, 30, 1 << 20));
  set.add(make_stream(mesh, kXy, 2, mesh.node_at({2, 0}),
                      mesh.node_at({5, 0}), 1, 1 << 20, 4, 1 << 20));
  FlitSimConfig cfg = mode_config(12, VcMode::kThrottlePreempt, 2);
  cfg.explicit_phases = {0, 0, 10};
  const FlitSimResult r = FlitSimulator(mesh, set, cfg).run();
  EXPECT_EQ(r.retransmissions, 0);
  EXPECT_EQ(r.flits_dropped, 0);
  // The latecomer waits for a VC instead.
  EXPECT_GT(r.per_stream[2].worst, set[2].latency + 5);
  EXPECT_GT(r.per_stream[2].vc_block_cycles, 0);
}

// Periodic high-priority cross traffic repeatedly preempts a bulk
// stream; throughput degrades but order and conservation hold.
TEST(ThrottlePreempt, RepeatedPreemptionKeepsOrderAndConservation) {
  topo::Mesh mesh(6, 2);
  StreamSet set;
  // Bulk along row 0.
  set.add(make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                      mesh.node_at({5, 0}), 0, /*T=*/30, /*C=*/20,
                      1 << 20));
  // Urgent bursts over the bulk stream's last three row-0 channels,
  // then down the last column.
  set.add(make_stream(mesh, kXy, 1, mesh.node_at({2, 0}),
                      mesh.node_at({5, 1}), 3, /*T=*/25, /*C=*/6,
                      1 << 20));
  // A single VC: preempt or wait.
  const FlitSimResult r =
      FlitSimulator(mesh, set, mode_config(1000, VcMode::kThrottlePreempt, 1))
          .run();
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.flits_injected, r.flits_delivered + r.flits_dropped);
  EXPECT_GT(r.retransmissions, 0);
  EXPECT_EQ(r.per_stream[1].generated, r.per_stream[1].completed);
  EXPECT_EQ(r.per_stream[0].generated, r.per_stream[0].completed);
  // Arrivals of each stream stay in generation order.
  Time last_gen[2] = {-1, -1};
  for (const auto& a : r.arrivals) {
    EXPECT_GT(a.generated, last_gen[static_cast<std::size_t>(a.stream)]);
    last_gen[static_cast<std::size_t>(a.stream)] = a.generated;
  }
  // The urgent stream is barely affected by the bulk victim.
  EXPECT_LE(r.per_stream[1].worst, set[1].latency + 4);
}

}  // namespace
}  // namespace wormrt::flitsim
