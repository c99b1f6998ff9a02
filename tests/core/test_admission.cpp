// Online admission control: channel establishment, rejection, teardown.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "core/delay_bound.hpp"
#include "core/workload.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "util/fnv1a.hpp"

namespace wormrt::core {
namespace {

const route::XYRouting kXy;

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest() : mesh_(10, 2), ctrl_(mesh_, kXy) {}
  topo::Mesh mesh_;
  AdmissionController ctrl_;
};

TEST_F(AdmissionTest, FirstStreamAdmittedAtItsLatency) {
  const auto d = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({6, 0}),
                               /*priority=*/1, /*T=*/60, /*C=*/10,
                               /*D=*/60);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.bound, 15);  // 6 hops + 10 - 1
  EXPECT_EQ(ctrl_.size(), 1u);
  EXPECT_EQ(ctrl_.bound_of(d.handle), std::optional<Time>(15));
}

TEST_F(AdmissionTest, ImpossibleDeadlineRejected) {
  const auto d = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({6, 0}),
                               1, 60, 10, /*D=*/10);  // below latency 15
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(ctrl_.size(), 0u);
}

TEST_F(AdmissionTest, RequestRejectedWhenItWouldBreakAnEstablishedChannel) {
  // Established: zero-slack low-priority channel.
  const auto victim =
      ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({6, 0}), 1, 60, 10,
                    /*D=*/15);
  ASSERT_TRUE(victim.admitted);
  // Newcomer at higher priority over the same row would push the
  // victim's bound past its deadline.
  const auto d = ctrl_.request(mesh_.node_at({1, 0}), mesh_.node_at({7, 0}),
                               2, 60, 10, /*D=*/600);
  EXPECT_FALSE(d.admitted);
  ASSERT_EQ(d.would_break.size(), 1u);
  EXPECT_EQ(d.would_break[0], victim.handle);
  EXPECT_EQ(ctrl_.size(), 1u);
  // The victim's guarantee still stands.
  EXPECT_EQ(ctrl_.bound_of(victim.handle), std::optional<Time>(15));
}

TEST_F(AdmissionTest, RequestRejectedOnItsOwnBound) {
  const auto hog = ctrl_.request(mesh_.node_at({0, 0}),
                                 mesh_.node_at({7, 0}), 3, /*T=*/30,
                                 /*C=*/24, /*D=*/60);
  ASSERT_TRUE(hog.admitted);
  // Lower priority, tight deadline through the hog's row: its own bound
  // misses (the hog keeps its guarantee, so would_break stays empty).
  const auto d = ctrl_.request(mesh_.node_at({1, 0}), mesh_.node_at({6, 0}),
                               1, 60, 10, /*D=*/20);
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(d.would_break.empty());
  EXPECT_EQ(ctrl_.size(), 1u);
}

TEST_F(AdmissionTest, TeardownReleasesInterference) {
  const auto hog = ctrl_.request(mesh_.node_at({0, 0}),
                                 mesh_.node_at({7, 0}), 3, 30, 24, 60);
  ASSERT_TRUE(hog.admitted);
  const auto tight_params = [&] {
    return ctrl_.request(mesh_.node_at({1, 0}), mesh_.node_at({6, 0}), 1,
                         60, 10, 20);
  };
  EXPECT_FALSE(tight_params().admitted);
  EXPECT_TRUE(ctrl_.remove(hog.handle));
  EXPECT_EQ(ctrl_.size(), 0u);
  const auto retry = tight_params();
  EXPECT_TRUE(retry.admitted);
  EXPECT_EQ(retry.bound, 14);  // 5 hops + 10 - 1
}

TEST_F(AdmissionTest, RemoveUnknownHandleFails) {
  EXPECT_FALSE(ctrl_.remove(123));
  EXPECT_EQ(ctrl_.bound_of(123), std::nullopt);
}

TEST_F(AdmissionTest, HandlesStayValidAcrossRemovals) {
  const auto a = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({3, 0}),
                               1, 100, 5, 100);
  const auto b = ctrl_.request(mesh_.node_at({0, 1}), mesh_.node_at({3, 1}),
                               1, 100, 5, 100);
  const auto c = ctrl_.request(mesh_.node_at({5, 0}), mesh_.node_at({8, 0}),
                               1, 100, 5, 100);
  ASSERT_TRUE(a.admitted && b.admitted && c.admitted);
  EXPECT_TRUE(ctrl_.remove(b.handle));
  EXPECT_TRUE(ctrl_.bound_of(a.handle).has_value());
  EXPECT_TRUE(ctrl_.bound_of(c.handle).has_value());
  EXPECT_FALSE(ctrl_.bound_of(b.handle).has_value());
  const StreamSet snap = ctrl_.snapshot();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.validate(), "");
}

TEST_F(AdmissionTest, ManyDisjointChannelsAllAdmitted) {
  for (std::int32_t x = 0; x < 5; ++x) {
    const auto d = ctrl_.request(mesh_.node_at({2 * x, 0}),
                                 mesh_.node_at({2 * x, 1}), 1, 50, 5, 50);
    EXPECT_TRUE(d.admitted) << x;
    EXPECT_EQ(d.bound, 5);  // 1 hop + 5 - 1
  }
  EXPECT_EQ(ctrl_.size(), 5u);
}

TEST_F(AdmissionTest, DuplicateRemoveFails) {
  const auto d = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({4, 0}),
                               1, 60, 10, 60);
  ASSERT_TRUE(d.admitted);
  EXPECT_TRUE(ctrl_.remove(d.handle));
  EXPECT_FALSE(ctrl_.remove(d.handle));  // already torn down
  EXPECT_EQ(ctrl_.bound_of(d.handle), std::nullopt);
  EXPECT_EQ(ctrl_.size(), 0u);
}

TEST_F(AdmissionTest, RemoveThenReadmitReusesFreedCapacity) {
  // Fill the row so a second same-shape channel is refused, then free it
  // and verify the exact same request is admitted with the same bound.
  const auto first = ctrl_.request(mesh_.node_at({0, 0}),
                                   mesh_.node_at({7, 0}), 3, 30, 24, 60);
  ASSERT_TRUE(first.admitted);
  const auto refused = ctrl_.request(mesh_.node_at({0, 0}),
                                     mesh_.node_at({7, 0}), 3, 30, 24, 60);
  EXPECT_FALSE(refused.admitted);
  ASSERT_TRUE(ctrl_.remove(first.handle));
  const auto readmitted = ctrl_.request(mesh_.node_at({0, 0}),
                                        mesh_.node_at({7, 0}), 3, 30, 24, 60);
  EXPECT_TRUE(readmitted.admitted);
  EXPECT_EQ(readmitted.bound, first.bound);
  EXPECT_NE(readmitted.handle, first.handle);  // handles are never reused
}

TEST_F(AdmissionTest, WouldBreakNamesTheFirstVictimAndExplainNamesEvery) {
  // Two zero-slack victims: one sharing row-0 channels with the
  // newcomer, one sharing its ejection port.  A plain request stops at
  // the first broken guarantee; an explained one names both handles, in
  // establishment order.
  const auto v1 = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({6, 0}),
                                1, 60, 10, /*D=*/15);
  const auto v2 = ctrl_.request(mesh_.node_at({0, 1}), mesh_.node_at({6, 1}),
                                1, 60, 10, /*D=*/15);
  ASSERT_TRUE(v1.admitted && v2.admitted);
  const auto newcomer = [&](BoundProvenance* provenance) {
    return ctrl_.request(mesh_.node_at({1, 0}), mesh_.node_at({6, 1}), 2, 60,
                         10, 600, provenance);
  };
  const auto plain = newcomer(nullptr);
  EXPECT_FALSE(plain.admitted);
  EXPECT_EQ(plain.would_break, std::vector<AdmissionController::Handle>{
                                   v1.handle});
  // The rejection rolled the trial back: both guarantees intact.
  EXPECT_EQ(ctrl_.bound_of(v1.handle), std::optional<Time>(15));
  EXPECT_EQ(ctrl_.bound_of(v2.handle), std::optional<Time>(15));

  BoundProvenance provenance;
  const auto explained = newcomer(&provenance);
  EXPECT_FALSE(explained.admitted);
  EXPECT_EQ(explained.bound, plain.bound);
  EXPECT_EQ(explained.would_break,
            (std::vector<AdmissionController::Handle>{v1.handle, v2.handle}));
  EXPECT_EQ(ctrl_.bound_of(v1.handle), std::optional<Time>(15));
  EXPECT_EQ(ctrl_.bound_of(v2.handle), std::optional<Time>(15));
}

TEST_F(AdmissionTest, WouldBreakIsEmptyWhenTheNewcomerFailsItsOwnGate) {
  // A zero-slack victim on row 0, and a hog that shares only the
  // newcomer's ejection port.  The newcomer misses its own deadline
  // behind the hog and would also break the victim: the plain request
  // stops at the newcomer, the explained one still names the victim.
  const auto victim = ctrl_.request(mesh_.node_at({0, 0}),
                                    mesh_.node_at({6, 0}), 1, 60, 10,
                                    /*D=*/15);
  const auto hog = ctrl_.request(mesh_.node_at({9, 1}), mesh_.node_at({6, 1}),
                                 3, /*T=*/30, /*C=*/24, /*D=*/60);
  ASSERT_TRUE(victim.admitted && hog.admitted);
  const auto newcomer = [&](BoundProvenance* provenance) {
    return ctrl_.request(mesh_.node_at({1, 0}), mesh_.node_at({6, 1}), 2, 60,
                         10, /*D=*/40, provenance);
  };
  const auto recomputes = ctrl_.engine().stats().bound_recomputes;
  const auto plain = newcomer(nullptr);
  EXPECT_FALSE(plain.admitted);
  EXPECT_TRUE(plain.bound == kNoTime || plain.bound > 40) << plain.bound;
  EXPECT_TRUE(plain.would_break.empty());
  // The trial stopped at the newcomer: one Cal_U call.
  EXPECT_EQ(ctrl_.engine().stats().bound_recomputes - recomputes, 1u);

  BoundProvenance provenance;
  const auto explained = newcomer(&provenance);
  EXPECT_FALSE(explained.admitted);
  EXPECT_EQ(explained.bound, plain.bound);
  EXPECT_EQ(explained.would_break,
            std::vector<AdmissionController::Handle>{victim.handle});
  EXPECT_EQ(ctrl_.bound_of(victim.handle), std::optional<Time>(15));
  EXPECT_EQ(ctrl_.bound_of(hog.handle), hog.bound);
}

TEST_F(AdmissionTest, BoundQueriesAreServedFromCache) {
  // Regression for the pre-incremental behaviour where every bound_of
  // re-analysed the whole population: consecutive queries must do no
  // re-analysis at all.
  const auto a = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({6, 0}),
                               1, 60, 10, 60);
  const auto b = ctrl_.request(mesh_.node_at({1, 0}), mesh_.node_at({7, 0}),
                               2, 60, 10, 600);
  ASSERT_TRUE(a.admitted && b.admitted);
  const auto recomputes = ctrl_.engine().stats().bound_recomputes;
  const auto first = ctrl_.bound_of(a.handle);
  const auto second = ctrl_.bound_of(a.handle);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(ctrl_.bound_of(b.handle).has_value());
  EXPECT_EQ(ctrl_.engine().stats().bound_recomputes, recomputes);
}

TEST_F(AdmissionTest, ReadmittingARemovedStreamCostsExactlyItsTrial) {
  // Two low-priority streams under a high-priority one on row 0.  The
  // teardown computes nothing; re-establishing the same stream computes
  // itself and the two streams it delays, exactly the ones the teardown
  // left stale, so every bound is a cache read afterwards.
  const auto low_a = ctrl_.request(mesh_.node_at({0, 0}),
                                   mesh_.node_at({5, 0}), 1, 60, 10, 600);
  const auto low_b = ctrl_.request(mesh_.node_at({2, 0}),
                                   mesh_.node_at({8, 0}), 1, 60, 10, 600);
  const auto high = [&] {
    return ctrl_.request(mesh_.node_at({1, 0}), mesh_.node_at({7, 0}), 3,
                         60, 10, 600);
  };
  const auto first = high();
  ASSERT_TRUE(low_a.admitted && low_b.admitted && first.admitted);
  const IncrementalAnalyzer::Stats& stats = ctrl_.engine().stats();
  const auto recomputes = stats.bound_recomputes;
  ASSERT_TRUE(ctrl_.remove(first.handle));
  EXPECT_EQ(stats.bound_recomputes, recomputes);

  const auto again = high();
  ASSERT_TRUE(again.admitted);
  EXPECT_EQ(again.bound, first.bound);
  EXPECT_EQ(stats.bound_recomputes - recomputes, 3u);  // 1 + |dirty|
  const auto hits = stats.bound_cache_hits;
  std::vector<Time> bounds;
  for (const auto h : {low_a.handle, low_b.handle, again.handle}) {
    bounds.push_back(*ctrl_.bound_of(h));
  }
  EXPECT_EQ(stats.bound_recomputes - recomputes, 3u);
  EXPECT_EQ(stats.bound_cache_hits - hits, 3u);
  EXPECT_EQ(bounds, ctrl_.engine().full_recompute_bounds());
}

TEST_F(AdmissionTest, ARejectedTrialLeavesTheBoundsItFoundStaleStale) {
  // Two row-1 streams left stale by a teardown, around a zero-slack
  // victim on row 0 (engine order: row_a, victim, row_b).  A newcomer
  // that delays all three computes row_a, stops at the victim and never
  // reaches row_b.  Its undo leaves both row-1 streams stale: each first
  // read computes its bound, which equals the full recompute.
  const auto row_a = ctrl_.request(mesh_.node_at({0, 1}),
                                   mesh_.node_at({6, 1}), 1, 60, 10, 600);
  const auto hog = ctrl_.request(mesh_.node_at({1, 1}),
                                 mesh_.node_at({7, 1}), 3, 60, 10, 600);
  const auto victim = ctrl_.request(mesh_.node_at({0, 0}),
                                    mesh_.node_at({6, 0}), 1, 60, 10,
                                    /*D=*/15);
  const auto row_b = ctrl_.request(mesh_.node_at({2, 1}),
                                   mesh_.node_at({6, 1}), 1, 60, 10, 600);
  ASSERT_TRUE(row_a.admitted && hog.admitted && victim.admitted &&
              row_b.admitted);
  ASSERT_TRUE(ctrl_.remove(hog.handle));

  const IncrementalAnalyzer::Stats& stats = ctrl_.engine().stats();
  const auto recomputes = stats.bound_recomputes;
  // Row 0, then down to row 1: it shares the victim's channels and the
  // row-1 streams' ejection port, and outranks all three.
  const auto d = ctrl_.request(mesh_.node_at({1, 0}), mesh_.node_at({6, 1}),
                               2, 60, 10, 600);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.would_break,
            std::vector<AdmissionController::Handle>{victim.handle});
  // The newcomer, row_a, then the victim.
  EXPECT_EQ(stats.bound_recomputes - recomputes, 3u);

  const auto hits = stats.bound_cache_hits;
  EXPECT_EQ(ctrl_.bound_of(victim.handle), std::optional<Time>(15));
  EXPECT_EQ(stats.bound_recomputes - recomputes, 3u);
  EXPECT_EQ(stats.bound_cache_hits - hits, 1u);
  const std::vector<Time> reference = ctrl_.engine().full_recompute_bounds();
  ASSERT_EQ(reference.size(), 3u);
  EXPECT_EQ(ctrl_.bound_of(row_a.handle), std::optional<Time>(reference[0]));
  EXPECT_EQ(ctrl_.bound_of(row_b.handle), std::optional<Time>(reference[2]));
  EXPECT_EQ(stats.bound_recomputes - recomputes, 5u);
  EXPECT_EQ(stats.bound_cache_hits - hits, 1u);
}

TEST_F(AdmissionTest, AdmissionAccountsForEjectionPort) {
  // Two streams delivering to the same node from disjoint paths: the
  // second sees the first through the ejection port.
  const auto a = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({5, 0}),
                               2, /*T=*/20, /*C=*/10, /*D=*/200);
  ASSERT_TRUE(a.admitted);
  const auto b = ctrl_.request(mesh_.node_at({5, 1}), mesh_.node_at({5, 0}),
                               1, /*T=*/40, /*C=*/5, /*D=*/40);
  ASSERT_TRUE(b.admitted);
  EXPECT_GT(b.bound, 5);  // delayed beyond its contention-free latency
}

// ---------------------------------------------------------------------
// PR-7 soundness finding 2 (EXPERIMENTS.md): a zero-slack stream
// (U + 2 > T) backlogs without bound under real credit flow control.
// The credit-slack guard turns that fidelity gap into a rejection.

TEST_F(AdmissionTest, ZeroSlackAdmittedButFlaggedWithoutTheGuard) {
  // Guard off (the paper-table reproduction default): U == T == D is
  // admitted, but the decision reports the bound as not flit-valid.
  const auto d = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({6, 0}),
                               1, /*T=*/15, /*C=*/10, /*D=*/15);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.bound, 15);  // 6 hops + 10 - 1 == the period: zero slack
  EXPECT_FALSE(d.flit_valid);
}

class GuardedAdmissionTest : public ::testing::Test {
 protected:
  static AnalysisConfig guarded() {
    AnalysisConfig config;
    config.credit_slack_guard = true;  // wormrtd's default
    return config;
  }
  GuardedAdmissionTest() : mesh_(10, 2), ctrl_(mesh_, kXy, guarded()) {}
  topo::Mesh mesh_;
  AdmissionController ctrl_;
};

TEST_F(GuardedAdmissionTest, ZeroSlackRequestIsRejected) {
  // The committed PR-7 reproducer, parameterized: bound 15 == period 15
  // leaves no room for the 2-cycle credit round trip between
  // back-to-back messages, so the guard must refuse the guarantee.
  const auto d = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({6, 0}),
                               1, /*T=*/15, /*C=*/10, /*D=*/15);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.bound, 15);  // the bound itself was computed fine
  EXPECT_FALSE(d.flit_valid);
  EXPECT_EQ(ctrl_.size(), 0u);  // trial rolled back

  // Two cycles of slack (U + 2 <= T) clears the guard.
  const auto ok = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({6, 0}),
                                1, /*T=*/17, /*C=*/10, /*D=*/17);
  EXPECT_TRUE(ok.admitted);
  EXPECT_EQ(ok.bound, 15);
  EXPECT_TRUE(ok.flit_valid);
}

TEST_F(GuardedAdmissionTest, GuardProtectsEstablishedStreamsToo) {
  // An established stream sitting exactly at U + 2 == T: a newcomer
  // that pushes its bound up by any amount breaks flit-validity, so
  // the gate must reject the newcomer even though the victim's
  // deadline would still be met.
  const auto victim =
      ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({6, 0}), 1,
                    /*T=*/17, /*C=*/10, /*D=*/600);
  ASSERT_TRUE(victim.admitted);
  ASSERT_EQ(victim.bound, 15);
  const auto d = ctrl_.request(mesh_.node_at({1, 0}), mesh_.node_at({7, 0}),
                               2, 60, 10, /*D=*/600);
  EXPECT_FALSE(d.admitted);
  ASSERT_EQ(d.would_break.size(), 1u);
  EXPECT_EQ(d.would_break[0], victim.handle);
}

// ---------------------------------------------------------------------
// Dynamic fabrics: link_down / link_up.

TEST_F(AdmissionTest, LinkDownReroutesOnTheReversedOrder) {
  // (0,0) -> (2,1) routes X-Y through (1,0) -> (2,0).  Killing that
  // channel leaves the Y-X detour (0,1) -> (1,1) -> (2,1) healthy.
  const auto d = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({2, 1}),
                               1, 60, 10, 600);
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.route_order, route::kRouteOrderPrimary);

  const topo::ChannelId ch =
      mesh_.channel_between(mesh_.node_at({1, 0}), mesh_.node_at({2, 0}));
  const auto m = ctrl_.link_down(ch);
  EXPECT_TRUE(m.changed);
  EXPECT_EQ(m.channel, ch);
  EXPECT_TRUE(m.evicted.empty());
  ASSERT_EQ(m.rerouted.size(), 1u);
  EXPECT_EQ(m.rerouted[0], d.handle);

  // The handle survived with a fault-free detour and a fresh bound.
  ASSERT_TRUE(ctrl_.bound_of(d.handle).has_value());
  const StreamSet survivors = ctrl_.snapshot();
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0].route_order, route::kRouteOrderReversed);
  for (const auto c : survivors[0].path.channels) {
    EXPECT_FALSE(mesh_.channel_faulted(c));
  }
}

TEST_F(AdmissionTest, LinkDownEvictsWhenBothOrdersAreFaulted) {
  const auto d = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({2, 1}),
                               1, 60, 10, 600);
  ASSERT_TRUE(d.admitted);
  // Kill the Y-X detour's first hop up front, then the X-Y path.
  ASSERT_TRUE(mesh_.set_channel_faulted(
      mesh_.channel_between(mesh_.node_at({0, 0}), mesh_.node_at({0, 1})),
      true));
  const auto m = ctrl_.link_down(
      mesh_.channel_between(mesh_.node_at({1, 0}), mesh_.node_at({2, 0})));
  EXPECT_TRUE(m.changed);
  ASSERT_EQ(m.evicted.size(), 1u);
  EXPECT_EQ(m.evicted[0], d.handle);
  EXPECT_TRUE(m.rerouted.empty());
  EXPECT_EQ(ctrl_.size(), 0u);
  EXPECT_FALSE(ctrl_.bound_of(d.handle).has_value());
}

TEST_F(AdmissionTest, LinkDownUndoesADetourThatFailsTheGate) {
  // A zero-slack stream along row 1, and a higher-priority victim whose
  // X-Y path runs along row 0.  Killing a row-0 channel leaves only the
  // Y-X detour, which crosses row 1 and would break the zero-slack
  // guarantee: the trial is undone and the victim evicted.
  const auto zero_slack =
      ctrl_.request(mesh_.node_at({0, 1}), mesh_.node_at({6, 1}), 1, 60, 10,
                    /*D=*/15);
  ASSERT_TRUE(zero_slack.admitted);
  const auto victim = ctrl_.request(mesh_.node_at({1, 0}),
                                    mesh_.node_at({5, 1}), 2, 60, 10, 600);
  ASSERT_TRUE(victim.admitted);
  ASSERT_EQ(ctrl_.bound_of(zero_slack.handle), std::optional<Time>(15));

  const auto recomputes = ctrl_.engine().stats().bound_recomputes;
  const auto m = ctrl_.link_down(
      mesh_.channel_between(mesh_.node_at({2, 0}), mesh_.node_at({3, 0})));
  ASSERT_EQ(m.evicted.size(), 1u);
  EXPECT_EQ(m.evicted[0], victim.handle);
  EXPECT_TRUE(m.rerouted.empty());
  EXPECT_EQ(ctrl_.size(), 1u);
  EXPECT_EQ(ctrl_.bound_of(zero_slack.handle), std::optional<Time>(15));
  EXPECT_EQ(ctrl_.engine().full_recompute_bounds(),
            std::vector<Time>{15});
  // The eviction touched nobody; the detour trial cost the victim's bound
  // plus the one stream it would delay, and undoing it cost nothing.
  EXPECT_EQ(ctrl_.engine().stats().bound_recomputes - recomputes, 2u);
}

TEST_F(AdmissionTest, LinkDownStopsADetourTrialAtTheVictimsOwnGate) {
  // The victim's X-Y path runs along row 0; its Y-X detour runs along
  // row 1, behind a hog, and would also delay a bystander there.  The
  // detour trial fails the victim's own deadline first, so it stops
  // before the bystander's bound is computed.
  const auto hog = ctrl_.request(mesh_.node_at({0, 1}), mesh_.node_at({4, 1}),
                                 3, /*T=*/30, /*C=*/24, /*D=*/60);
  const auto bystander = ctrl_.request(
      mesh_.node_at({4, 1}), mesh_.node_at({8, 1}), 1, 60, 10, 600);
  const auto victim = ctrl_.request(mesh_.node_at({1, 0}),
                                    mesh_.node_at({5, 1}), 2, 60, 10,
                                    /*D=*/20);
  ASSERT_TRUE(hog.admitted && bystander.admitted && victim.admitted);
  const std::optional<Time> bystander_bound = ctrl_.bound_of(bystander.handle);

  const auto recomputes = ctrl_.engine().stats().bound_recomputes;
  const auto m = ctrl_.link_down(
      mesh_.channel_between(mesh_.node_at({2, 0}), mesh_.node_at({3, 0})));
  EXPECT_EQ(m.evicted,
            std::vector<AdmissionController::Handle>{victim.handle});
  EXPECT_TRUE(m.rerouted.empty());
  EXPECT_EQ(ctrl_.bound_of(bystander.handle), bystander_bound);
  EXPECT_EQ(ctrl_.bound_of(hog.handle), hog.bound);
  // The eviction dirtied nobody, and the detour trial stopped at the
  // victim: one Cal_U call.
  EXPECT_EQ(ctrl_.engine().stats().bound_recomputes - recomputes, 1u);
}

TEST_F(AdmissionTest, LinkDownLeavesUntouchedStreamsAlone) {
  const auto far = ctrl_.request(mesh_.node_at({0, 1}), mesh_.node_at({5, 1}),
                                 1, 60, 10, 600);
  ASSERT_TRUE(far.admitted);
  const Time before = *ctrl_.bound_of(far.handle);
  const auto m = ctrl_.link_down(
      mesh_.channel_between(mesh_.node_at({6, 0}), mesh_.node_at({7, 0})));
  EXPECT_TRUE(m.changed);
  EXPECT_TRUE(m.evicted.empty());
  EXPECT_TRUE(m.rerouted.empty());
  EXPECT_EQ(*ctrl_.bound_of(far.handle), before);
}

TEST_F(AdmissionTest, LinkMutationsReportNoOps) {
  const topo::ChannelId ch =
      mesh_.channel_between(mesh_.node_at({0, 0}), mesh_.node_at({1, 0}));
  EXPECT_FALSE(ctrl_.link_up(ch).changed);  // already up
  EXPECT_TRUE(ctrl_.link_down(ch).changed);
  EXPECT_FALSE(ctrl_.link_down(ch).changed);  // already down
  EXPECT_TRUE(ctrl_.link_up(ch).changed);
}

TEST_F(AdmissionTest, LinkUpReopensTheChannelWithoutMigratingBack) {
  const auto d = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({2, 1}),
                               1, 60, 10, 600);
  ASSERT_TRUE(d.admitted);
  const topo::ChannelId ch =
      mesh_.channel_between(mesh_.node_at({1, 0}), mesh_.node_at({2, 0}));
  ASSERT_EQ(ctrl_.link_down(ch).rerouted.size(), 1u);

  const auto up = ctrl_.link_up(ch);
  EXPECT_TRUE(up.changed);
  EXPECT_TRUE(up.evicted.empty());
  EXPECT_TRUE(up.rerouted.empty());
  // The survivor keeps its detour (repair does not migrate) ...
  EXPECT_EQ(ctrl_.snapshot()[0].route_order, route::kRouteOrderReversed);
  // ... but new requests route through the repaired channel again.
  const auto fresh = ctrl_.request(mesh_.node_at({1, 0}),
                                   mesh_.node_at({2, 0}), 2, 60, 10, 600);
  ASSERT_TRUE(fresh.admitted);
  EXPECT_EQ(fresh.route_order, route::kRouteOrderPrimary);
}

TEST_F(AdmissionTest, NoRouteRejectionWhenEveryOrderIsFaulted) {
  ASSERT_TRUE(mesh_.set_channel_faulted(
      mesh_.channel_between(mesh_.node_at({1, 0}), mesh_.node_at({2, 0})),
      true));
  ASSERT_TRUE(mesh_.set_channel_faulted(
      mesh_.channel_between(mesh_.node_at({0, 0}), mesh_.node_at({0, 1})),
      true));
  const auto d = ctrl_.request(mesh_.node_at({0, 0}), mesh_.node_at({2, 1}),
                               1, 60, 10, 600);
  EXPECT_FALSE(d.admitted);
  EXPECT_TRUE(d.no_route);
  EXPECT_EQ(d.bound, kNoTime);  // no trial was even attempted
  EXPECT_EQ(ctrl_.size(), 0u);
}

TEST_F(AdmissionTest, RestoreRebuildsTheJournaledDetourIgnoringFaults) {
  // Replay semantics: the recorded route order alone determines the
  // path — fault flags at replay time must not matter.
  ctrl_.restore(mesh_.node_at({0, 0}), mesh_.node_at({2, 1}), 1, 60, 10, 600,
                /*handle=*/0, route::kRouteOrderReversed);
  ctrl_.set_next_handle(1);
  const StreamSet set = ctrl_.snapshot();
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0].route_order, route::kRouteOrderReversed);
  EXPECT_EQ(set[0].path.channels,
            route::route_with_order(mesh_, mesh_.node_at({0, 0}),
                                    mesh_.node_at({2, 1}),
                                    route::kRouteOrderReversed)
                .channels);
}

// ---------------------------------------------------------------------
// Golden replay: a seeded, period-adjusted population (10x10 mesh, 60
// streams, 4 levels, 32 deadlines beyond the first 4,096-slot prefix
// horizon) requested in order, then one pass that tears each held
// channel down and requests it again — perfbench's admit_200 shape at a
// size the sanitizer jobs afford.  Each decision's admitted flag, bound,
// handle and route order, and each remove outcome, go into an FNV-1a
// decision digest pinned to the value the full-horizon Cal_U, the
// recompute-on-rollback engine and the run-to-the-end trial produced;
// each would_break list goes into a second digest.  Every rejected
// trial must also leave every cached bound as it was and cost exactly
// 1 + the position of its first failing stream in [newcomer, dirty set
// in engine order] Cal_U evaluations, with no second recompute to roll
// it back.

using util::Fnv1a;

/// Where a trial of \p candidate stops: the position of the first stream
/// that fails the admission gate in [newcomer, the established streams
/// whose HP set contains it, ascending], by a from-scratch blocking
/// analysis and Cal_U of the trial population.  The sequence's length
/// when every stream passes.
std::size_t trial_stop_position(const AdmissionController& ctrl,
                                MessageStream candidate) {
  StreamSet trial = ctrl.snapshot();
  const auto id = static_cast<StreamId>(trial.size());
  candidate.id = id;
  trial.add(std::move(candidate));
  const BlockingAnalysis blocking(trial);
  std::vector<StreamId> order{id};
  for (StreamId j = 0; j < id; ++j) {
    const HpSet& hp = blocking.hp_set(j);
    if (std::any_of(hp.begin(), hp.end(),
                    [id](const HpElement& e) { return e.id == id; })) {
      order.push_back(j);
    }
  }
  const DelayBoundCalculator calc(trial, blocking, ctrl.engine().config());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Time bound = calc.calc(order[k]).bound;
    if (bound == kNoTime || bound > trial[order[k]].deadline) {
      return k;
    }
  }
  return order.size();
}

TEST(AdmissionGolden, SetupAndOnePassReplayRecordedDecisions) {
  topo::Mesh mesh(10, 10);
  WorkloadParams wp;
  wp.num_streams = 60;
  wp.priority_levels = 4;
  wp.seed = 1;
  StreamSet population = generate_workload(mesh, kXy, wp);
  adjust_periods_to_bounds(population);

  AdmissionController ctrl(mesh, kXy);
  ASSERT_FALSE(ctrl.engine().config().credit_slack_guard);
  Fnv1a decisions;
  Fnv1a would_break;
  int rejected = 0;
  const auto request = [&](const MessageStream& s) {
    std::vector<Time> before(ctrl.size());
    for (std::size_t id = 0; id < before.size(); ++id) {
      before[id] = ctrl.engine().bound_at(static_cast<StreamId>(id));
    }
    const MessageStream candidate = make_stream_with_order(
        mesh, 0, s.src, s.dst, s.priority, s.period, s.length, s.deadline,
        route::kRouteOrderPrimary);
    const std::size_t stop = trial_stop_position(ctrl, candidate);
    const std::uint64_t recomputes = ctrl.engine().stats().bound_recomputes;
    const AdmissionController::Decision d = ctrl.request(
        s.src, s.dst, s.priority, s.period, s.length, s.deadline);
    decisions.add(d.admitted ? 1 : 0);
    decisions.add(d.bound);
    decisions.add(d.handle);
    decisions.add(d.route_order);
    would_break.add(static_cast<std::int64_t>(d.would_break.size()));
    for (const AdmissionController::Handle h : d.would_break) {
      would_break.add(h);
    }
    if (!d.admitted) {
      ++rejected;
      EXPECT_EQ(ctrl.size(), before.size()) << "stream " << s.id;
      for (std::size_t id = 0; id < before.size(); ++id) {
        EXPECT_EQ(ctrl.engine().bound_at(static_cast<StreamId>(id)),
                  before[id])
            << "stream " << s.id << " left established id " << id
            << " with a changed bound";
      }
      EXPECT_EQ(d.route_order, route::kRouteOrderPrimary);
      EXPECT_EQ(ctrl.engine().stats().bound_recomputes - recomputes, stop + 1)
          << "stream " << s.id;
      // The plain list names the stream the trial stopped at, unless
      // that was the newcomer.
      EXPECT_EQ(d.would_break.size(), stop == 0 ? 0u : 1u)
          << "stream " << s.id;
    }
    return d.admitted ? d.handle : AdmissionController::Handle{-1};
  };

  std::vector<AdmissionController::Handle> held;
  for (const MessageStream& s : population) {
    held.push_back(request(s));
  }
  for (std::size_t slot = 0; slot < population.size(); ++slot) {
    if (held[slot] >= 0) {
      decisions.add(ctrl.remove(held[slot]) ? 1 : 0);
    }
    held[slot] = request(population[static_cast<StreamId>(slot)]);
  }

  EXPECT_EQ(rejected, 24);
  EXPECT_EQ(decisions.value(), 0x5f03c4901b392382ull)
      << "decisions changed: digest 0x" << std::hex << decisions.value();
  EXPECT_EQ(would_break.value(), 0x9aed2a5d86e456fbull)
      << "would_break lists changed: digest 0x" << std::hex
      << would_break.value();
}

TEST(ContractFingerprint, EveryAnalysisSettingButThreadsChangesIt) {
  // One value stamps the fabric contract, so flipping any one setting a
  // bound depends on must change it, and the thread count (which changes
  // no result) must not.
  const topo::Mesh mesh(4, 4);
  const AnalysisConfig base;
  const std::uint64_t stamp = contract_fingerprint(mesh, base);
  const std::pair<const char*, void (*)(AnalysisConfig&)> flips[] = {
      {"relaxation",
       [](AnalysisConfig& c) { c.relaxation = IndirectRelaxation::kNone; }},
      {"horizon",
       [](AnalysisConfig& c) { c.horizon = HorizonPolicy::kExtended; }},
      {"same_priority_blocks",
       [](AnalysisConfig& c) { c.same_priority_blocks = false; }},
      {"ejection_port_overlap",
       [](AnalysisConfig& c) { c.ejection_port_overlap = false; }},
      {"injection_port_overlap",
       [](AnalysisConfig& c) { c.injection_port_overlap = false; }},
      {"carry_over", [](AnalysisConfig& c) { c.carry_over = true; }},
      {"horizon_cap", [](AnalysisConfig& c) { c.horizon_cap *= 2; }},
      {"credit_slack_guard",
       [](AnalysisConfig& c) { c.credit_slack_guard = true; }},
      {"vc_buffer_depth", [](AnalysisConfig& c) { c.vc_buffer_depth = 4; }},
  };
  for (const auto& [name, flip] : flips) {
    AnalysisConfig flipped = base;
    flip(flipped);
    EXPECT_NE(contract_fingerprint(mesh, flipped), stamp) << name;
    EXPECT_NE(std::string(kContractSettings).find(name), std::string::npos)
        << name;
  }
  AnalysisConfig threaded = base;
  threaded.num_threads = 4;
  EXPECT_EQ(contract_fingerprint(mesh, threaded), stamp);
  EXPECT_NE(contract_fingerprint(topo::Mesh(4, 5), base), stamp);
}

}  // namespace
}  // namespace wormrt::core
