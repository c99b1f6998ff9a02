// The incremental admission engine must be *exact*: after any churn of
// add/remove mutations, every bound it serves (cached, or computed when
// a stale one is read) equals the bound a full BlockingAnalysis + Cal_U
// recompute of the current population produces, and the maintained
// digraph equals the eagerly built one.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/admission.hpp"
#include "core/incremental.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "util/rng.hpp"

namespace wormrt::core {
namespace {

const route::XYRouting kXy;

MessageStream random_stream(util::Rng& rng, const topo::Mesh& mesh,
                            int priority_levels) {
  const auto n = static_cast<std::int64_t>(mesh.num_nodes());
  const auto src = static_cast<topo::NodeId>(rng.uniform_int(0, n - 1));
  auto dst = static_cast<topo::NodeId>(rng.uniform_int(0, n - 2));
  if (dst >= src) {
    ++dst;  // dst uniform over the other nodes
  }
  const auto priority =
      static_cast<Priority>(rng.uniform_int(1, priority_levels));
  const Time period = rng.uniform_int(40, 90);
  const Time length = rng.uniform_int(1, 20);
  // Deadlines loose enough that most streams stay feasible but some
  // bounds report kNoTime, exercising both cache states.
  const Time deadline = rng.uniform_int(40, 400);
  return make_stream(mesh, kXy, /*id=*/0, src, dst, priority, period, length,
                     deadline);
}

void expect_matches_full_recompute(const IncrementalAnalyzer& engine,
                                   std::uint64_t seed, int step) {
  const std::vector<Time> reference = engine.full_recompute_bounds();
  ASSERT_EQ(reference.size(), engine.size());
  for (std::size_t j = 0; j < engine.size(); ++j) {
    EXPECT_EQ(engine.bound_at(static_cast<StreamId>(j)), reference[j])
        << "seed " << seed << " step " << step << " stream " << j;
  }
  // The maintained digraph must equal the eagerly built relation too.
  const BlockingAnalysis blocking(
      engine.streams(),
      BlockingOptions{engine.config().same_priority_blocks,
                      engine.config().ejection_port_overlap,
                      engine.config().injection_port_overlap});
  for (std::size_t a = 0; a < engine.size(); ++a) {
    for (std::size_t b = 0; b < engine.size(); ++b) {
      if (a == b) {
        continue;
      }
      ASSERT_EQ(engine.direct_blocks(static_cast<StreamId>(a),
                                     static_cast<StreamId>(b)),
                blocking.direct_blocks(static_cast<StreamId>(a),
                                       static_cast<StreamId>(b)))
          << "seed " << seed << " step " << step << " edge " << a << "->" << b;
    }
  }
}

// 100+ seeded random churn sequences; bounds checked against the full
// recompute after every single mutation.
TEST(IncrementalAnalyzerProperty, ChurnMatchesFullRecompute) {
  constexpr int kSeeds = 100;
  constexpr int kSteps = 24;
  topo::Mesh mesh(8, 8);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(seed);
    const int levels = static_cast<int>(rng.uniform_int(1, 5));
    IncrementalAnalyzer engine(mesh);
    std::vector<IncrementalAnalyzer::Handle> live;
    for (int step = 0; step < kSteps; ++step) {
      const bool do_remove = !live.empty() && rng.bernoulli(0.4);
      if (do_remove) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        ASSERT_TRUE(engine.remove_stream(live[pick]).has_value());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const auto mut = engine.add_stream(random_stream(rng, mesh, levels));
        live.push_back(mut.handle);
      }
      expect_matches_full_recompute(engine, seed, step);
    }
  }
}

// The dirty set the engine reports is sound: a mutation leaves every
// stream outside it with an untouched HP set, so an engine forced to
// recompute everything (kFullRecompute mode) and the incremental one
// must agree decision-for-decision and bound-for-bound through the
// AdmissionController API as well.
TEST(IncrementalAnalyzerProperty, ControllerModesAgreeUnderChurn) {
  topo::Mesh mesh(8, 8);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed * 977);
    AdmissionController inc(mesh, kXy, {}, AdmissionController::Mode::kIncremental);
    AdmissionController full(mesh, kXy, {}, AdmissionController::Mode::kFullRecompute);
    std::vector<std::pair<AdmissionController::Handle,
                          AdmissionController::Handle>> live;
    for (int step = 0; step < 30; ++step) {
      if (!live.empty() && rng.bernoulli(0.35)) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        EXPECT_TRUE(inc.remove(live[pick].first));
        EXPECT_TRUE(full.remove(live[pick].second));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const MessageStream s = random_stream(rng, mesh, 4);
        const auto di = inc.request(s.src, s.dst, s.priority, s.period,
                                    s.length, s.deadline);
        const auto df = full.request(s.src, s.dst, s.priority, s.period,
                                     s.length, s.deadline);
        ASSERT_EQ(di.admitted, df.admitted) << "seed " << seed << " step " << step;
        EXPECT_EQ(di.bound, df.bound) << "seed " << seed << " step " << step;
        EXPECT_EQ(di.would_break.size(), df.would_break.size());
        if (di.admitted) {
          live.emplace_back(di.handle, df.handle);
        }
      }
      ASSERT_EQ(inc.size(), full.size());
      for (const auto& [hi, hf] : live) {
        EXPECT_EQ(inc.bound_of(hi), full.bound_of(hf));
      }
    }
  }
}

TEST(IncrementalAnalyzer, DirtySetIsOnlyTheReachableClosure) {
  // Two disjoint rows of a mesh never interact: adding a stream on row 3
  // must not invalidate the established stream on row 0.
  topo::Mesh mesh(8, 8);
  IncrementalAnalyzer engine(mesh);
  auto s0 = make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                        mesh.node_at({5, 0}), 1, 60, 10, 600);
  const auto m0 = engine.add_stream(std::move(s0));
  EXPECT_TRUE(m0.dirty.empty());
  engine.settle();
  const auto recomputes_before = engine.stats().bound_recomputes;

  auto s1 = make_stream(mesh, kXy, 0, mesh.node_at({0, 3}),
                        mesh.node_at({5, 3}), 2, 60, 10, 600);
  const auto m1 = engine.add_stream(std::move(s1));
  EXPECT_TRUE(m1.dirty.empty());  // disjoint: nobody else is dirty
  engine.settle();  // the newcomer is the only stale bound
  EXPECT_EQ(engine.stats().bound_recomputes, recomputes_before + 1);

  // A higher-priority stream crossing s0's row dirties s0 but not s1.
  auto s2 = make_stream(mesh, kXy, 0, mesh.node_at({1, 0}),
                        mesh.node_at({6, 0}), 3, 60, 10, 600);
  const auto m2 = engine.add_stream(std::move(s2));
  ASSERT_EQ(m2.dirty.size(), 1u);
  EXPECT_EQ(m2.dirty[0], m0.handle);
}

TEST(IncrementalAnalyzer, RemoveInvalidatesOnlyVictimsOfTheRemoved) {
  // A removal computes nothing: the one stream it dirtied costs one
  // Cal_U on its first read, and a second read is a cache hit.
  topo::Mesh mesh(8, 8);
  IncrementalAnalyzer engine(mesh);
  auto low = make_stream(mesh, kXy, 0, mesh.node_at({0, 0}),
                         mesh.node_at({5, 0}), 1, 60, 10, 600);
  const auto mlow = engine.add_stream(std::move(low));
  auto high = make_stream(mesh, kXy, 0, mesh.node_at({1, 0}),
                          mesh.node_at({6, 0}), 3, 60, 10, 600);
  const auto mhigh = engine.add_stream(std::move(high));
  ASSERT_EQ(mhigh.dirty.size(), 1u);

  const Time low_before = *engine.bound(mlow.handle);
  EXPECT_GT(low_before, 15);  // delayed by the high-priority stream

  const auto recomputes = engine.stats().bound_recomputes;
  const auto hits = engine.stats().bound_cache_hits;
  const auto rm = engine.remove_stream(mhigh.handle);
  ASSERT_TRUE(rm.has_value());
  ASSERT_EQ(rm->dirty.size(), 1u);
  EXPECT_EQ(rm->dirty[0], mlow.handle);
  EXPECT_EQ(engine.stats().bound_recomputes, recomputes);
  EXPECT_EQ(*engine.bound(mlow.handle), 14);  // 5 hops + 10 - 1
  EXPECT_EQ(engine.stats().bound_recomputes, recomputes + 1);
  EXPECT_EQ(engine.stats().bound_cache_hits, hits);
  EXPECT_EQ(*engine.bound(mlow.handle), 14);
  EXPECT_EQ(engine.stats().bound_recomputes, recomputes + 1);
  EXPECT_EQ(engine.stats().bound_cache_hits, hits + 1);
}

TEST(IncrementalAnalyzer, HandlesOnChannelIndexesExactlyTheCrossingStreams) {
  topo::Mesh mesh(8, 8);
  IncrementalAnalyzer engine(mesh);
  // Two streams sharing the row-0 spine, one on a disjoint row.
  const auto a = engine.add_stream(make_stream(
      mesh, kXy, 0, mesh.node_at({0, 0}), mesh.node_at({4, 0}), 1, 60, 8, 600));
  const auto b = engine.add_stream(make_stream(
      mesh, kXy, 0, mesh.node_at({1, 0}), mesh.node_at({5, 0}), 2, 60, 8, 600));
  const auto c = engine.add_stream(make_stream(
      mesh, kXy, 0, mesh.node_at({0, 3}), mesh.node_at({4, 3}), 1, 60, 8, 600));
  const topo::ChannelId spine =
      mesh.channel_between(mesh.node_at({2, 0}), mesh.node_at({3, 0}));
  ASSERT_NE(spine, topo::kNoChannel);
  const auto on_spine = engine.handles_on_channel(spine);
  ASSERT_EQ(on_spine.size(), 2u);
  EXPECT_EQ(on_spine[0], a.handle);  // ascending handle order
  EXPECT_EQ(on_spine[1], b.handle);

  const topo::ChannelId row3 =
      mesh.channel_between(mesh.node_at({2, 3}), mesh.node_at({3, 3}));
  const auto on_row3 = engine.handles_on_channel(row3);
  ASSERT_EQ(on_row3.size(), 1u);
  EXPECT_EQ(on_row3[0], c.handle);

  // Removal keeps the index exact.
  engine.remove_stream(a.handle);
  const auto after = engine.handles_on_channel(spine);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0], b.handle);
}

TEST(IncrementalAnalyzer, RemovalsComputeNothingAndSettleComputesEachSurvivorOnce) {
  topo::Mesh mesh(8, 8);
  util::Rng rng(91);
  IncrementalAnalyzer engine(mesh);
  std::vector<IncrementalAnalyzer::Handle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(engine.add_stream(random_stream(rng, mesh, 3)).handle);
  }
  engine.settle();

  const auto recomputes_before = engine.stats().bound_recomputes;
  std::vector<IncrementalAnalyzer::Handle> dirty;
  for (const std::size_t k : {1u, 4u, 7u}) {
    const auto m = engine.remove_stream(handles[k]);
    ASSERT_TRUE(m.has_value());
    dirty.insert(dirty.end(), m->dirty.begin(), m->dirty.end());
  }
  // A removal only marks its dirty closure stale.
  EXPECT_EQ(engine.stats().bound_recomputes, recomputes_before);

  // settle() computes each survivor of the union once.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  std::erase_if(dirty, [&](IncrementalAnalyzer::Handle h) {
    return engine.find(h) == nullptr;
  });
  ASSERT_FALSE(dirty.empty());
  engine.settle();
  EXPECT_EQ(engine.stats().bound_recomputes - recomputes_before, dirty.size());
  const auto settled = engine.stats().bound_recomputes;
  expect_matches_full_recompute(engine, 91, 0);
  EXPECT_EQ(engine.stats().bound_recomputes, settled);
}

TEST(IncrementalAnalyzer, HpSetsMatchBlockingAnalysis) {
  topo::Mesh mesh(8, 8);
  util::Rng rng(7);
  IncrementalAnalyzer engine(mesh);
  for (int i = 0; i < 12; ++i) {
    engine.add_stream(random_stream(rng, mesh, 3));
  }
  const BlockingAnalysis blocking(engine.streams());
  for (std::size_t j = 0; j < engine.size(); ++j) {
    const HpSet ours = engine.hp_set(static_cast<StreamId>(j));
    const HpSet& ref = blocking.hp_set(static_cast<StreamId>(j));
    ASSERT_EQ(ours.size(), ref.size()) << "stream " << j;
    for (std::size_t k = 0; k < ours.size(); ++k) {
      EXPECT_EQ(ours[k].id, ref[k].id);
      EXPECT_EQ(ours[k].mode, ref[k].mode);
      EXPECT_EQ(ours[k].intermediates, ref[k].intermediates);
    }
  }
}

}  // namespace
}  // namespace wormrt::core
