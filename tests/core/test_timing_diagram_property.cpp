// Property tests: the bit-packed TimingDiagram must agree slot-for-slot
// with the retained byte-per-slot reference implementation on random row
// sets — initial allocation, free accounting, indirect relaxation, the
// reset() path the horizon searches use, and the exactness frontier
// against a reference built at a longer horizon.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/timing_diagram.hpp"
#include "reference_timing_diagram.hpp"
#include "util/rng.hpp"

namespace wormrt::core {
namespace {

using testing::ReferenceTimingDiagram;

std::vector<RowSpec> random_rows(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
  std::vector<RowSpec> rows;
  rows.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    // Descending priorities with ascending ids satisfy the sort contract.
    rows.push_back(RowSpec{static_cast<StreamId>(r),
                           static_cast<Priority>(n - r),
                           /*period=*/rng.uniform_int(1, 90),
                           /*length=*/rng.uniform_int(1, 45)});
  }
  return rows;
}

void expect_same(const TimingDiagram& packed,
                 const ReferenceTimingDiagram& ref, const std::string& what) {
  ASSERT_EQ(packed.num_rows(), ref.num_rows()) << what;
  ASSERT_EQ(packed.horizon(), ref.horizon()) << what;
  for (std::size_t r = 0; r < packed.num_rows(); ++r) {
    ASSERT_EQ(packed.num_windows(r), ref.num_windows(r)) << what << " row " << r;
    for (Time t = 0; t < packed.horizon(); ++t) {
      ASSERT_EQ(packed.at(r, t), ref.at(r, t))
          << what << " row " << r << " t " << t;
    }
  }
  for (Time t = 0; t < packed.horizon(); ++t) {
    ASSERT_EQ(packed.free_at_bottom(t), ref.free_at_bottom(t))
        << what << " t " << t;
  }
  for (const Time required :
       {Time{1}, Time{3}, packed.horizon() / 2, packed.horizon(),
        packed.horizon() + 5}) {
    if (required >= 1) {
      ASSERT_EQ(packed.accumulate_free(required), ref.accumulate_free(required))
          << what << " required " << required;
    }
  }
}

TEST(TimingDiagramProperty, MatchesScalarReferenceOnRandomRowSets) {
  util::Rng rng(0xd1a6);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<RowSpec> rows = random_rows(rng);
    const Time horizon = rng.uniform_int(1, 260);  // crosses word boundaries
    const bool carry_over = rng.uniform_int(0, 1) == 1;
    const std::string what = "trial " + std::to_string(trial) + " horizon " +
                             std::to_string(horizon) +
                             (carry_over ? " carry" : " drop");

    TimingDiagram packed(rows, horizon, carry_over);
    ReferenceTimingDiagram ref(rows, horizon, carry_over);
    expect_same(packed, ref, what);
  }
}

TEST(TimingDiagramProperty, RelaxationMatchesScalarReference) {
  util::Rng rng(0xbeef);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<RowSpec> rows = random_rows(rng);
    const Time horizon = rng.uniform_int(1, 260);
    const std::string what = "trial " + std::to_string(trial);

    TimingDiagram packed(rows, horizon, /*carry_over=*/false);
    ReferenceTimingDiagram ref(rows, horizon, /*carry_over=*/false);

    // Relax a couple of random rows against random intermediate sets; the
    // suppression decisions and the compacted diagrams must agree.
    for (int round = 0; round < 2; ++round) {
      const auto r =
          static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(rows.size()) - 1));
      std::vector<std::size_t> intermediates;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i != r && rng.uniform_int(0, 2) == 0) {
          intermediates.push_back(i);
        }
      }
      ASSERT_EQ(packed.relax_indirect_row(r, intermediates),
                ref.relax_indirect_row(r, intermediates))
          << what << " round " << round;
      for (std::size_t w = 0; w < packed.num_windows(r); ++w) {
        ASSERT_EQ(packed.window_suppressed(r, w), ref.window_suppressed(r, w))
            << what << " window " << w;
      }
      expect_same(packed, ref, what + " after relax");
    }
  }
}

TEST(TimingDiagramProperty, ResetEqualsFreshConstruction) {
  util::Rng rng(0xcafe);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<RowSpec> rows = random_rows(rng);
    const bool carry_over = rng.uniform_int(0, 1) == 1;
    const Time h0 = rng.uniform_int(1, 150);
    const Time h1 = rng.uniform_int(1, 300);

    TimingDiagram reused(rows, h0, carry_over);
    if (!carry_over && !rows.empty()) {
      // Dirty the diagram so reset() must also clear suppression state.
      reused.relax_indirect_row(0, {});
    }
    reused.reset(h1);
    const TimingDiagram fresh(rows, h1, carry_over);
    const ReferenceTimingDiagram ref(rows, h1, carry_over);
    const std::string what = "trial " + std::to_string(trial);
    expect_same(reused, ref, what + " reused");
    expect_same(fresh, ref, what + " fresh");
  }
}

// The exactness frontier: a diagram built at a prefix horizon H and the
// reference built at a longer H', put through the same relaxation steps,
// agree on every slot and every suppression flag below exact_until(), and
// a free-slot count reached at or before it is reached at the same time
// in both.  The two counters show the frontier matters: it falls below H,
// and the diagrams do differ from it on.
TEST(TimingDiagramProperty, PrefixEqualsLongerHorizonBelowTheFrontier) {
  util::Rng rng(0xf407);
  int frontier_fell = 0;
  int differs_past_frontier = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<RowSpec> rows = random_rows(rng);
    const Time horizon = rng.uniform_int(1, 260);
    const Time longer = horizon + rng.uniform_int(1, 260);
    const std::string what = "trial " + std::to_string(trial) + " horizon " +
                             std::to_string(horizon) + " vs " +
                             std::to_string(longer);

    TimingDiagram prefix(rows, horizon, /*carry_over=*/false);
    ReferenceTimingDiagram ref(rows, longer, /*carry_over=*/false);
    ASSERT_EQ(prefix.exact_until(), horizon) << what;
    for (int round = 0; round < 3; ++round) {
      const auto r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
      std::vector<std::size_t> intermediates;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i != r && rng.uniform_int(0, 2) == 0) {
          intermediates.push_back(i);
        }
      }
      prefix.relax_indirect_row(r, intermediates);
      ref.relax_indirect_row(r, intermediates);
    }

    const Time frontier = prefix.exact_until();
    ASSERT_LE(frontier, horizon) << what;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (Time t = 0; t < frontier; ++t) {
        ASSERT_EQ(prefix.at(r, t), ref.at(r, t))
            << what << " row " << r << " t " << t << " frontier " << frontier;
      }
      for (std::size_t w = 0;
           static_cast<Time>(w) * rows[r].period < frontier; ++w) {
        ASSERT_EQ(prefix.window_suppressed(r, w), ref.window_suppressed(r, w))
            << what << " row " << r << " window " << w;
      }
    }
    for (Time required = 1; required <= frontier; ++required) {
      const Time bound = prefix.accumulate_free(required);
      if (bound != kNoTime && bound <= frontier) {
        ASSERT_EQ(bound, ref.accumulate_free(required))
            << what << " required " << required;
      }
    }

    frontier_fell += frontier < horizon ? 1 : 0;
    bool differs = false;
    for (std::size_t r = 0; r < rows.size() && !differs; ++r) {
      for (Time t = frontier; t < horizon && !differs; ++t) {
        differs = prefix.at(r, t) != ref.at(r, t);
      }
    }
    differs_past_frontier += differs ? 1 : 0;
  }
  EXPECT_GT(frontier_fell, 0);
  EXPECT_GT(differs_past_frontier, 0);
}

}  // namespace
}  // namespace wormrt::core
