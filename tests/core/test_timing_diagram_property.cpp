// Property tests: the bit-packed TimingDiagram must agree slot-for-slot
// with the retained byte-per-slot reference implementation on random row
// sets — initial allocation, free accounting, indirect relaxation, the
// reset() path the horizon searches use, and the exactness frontier
// against a reference built at a longer horizon.  Allocation, relaxation
// and reset() are checked on two draws: short horizons that cross a few
// words, and long horizons whose lower rows starve across many words.

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

/// The long-horizon draw: every row asks for at least half its period
/// (C >= T/2, T in [30, 5000]), so lower rows starve for whole windows,
/// and horizons of 4,000-20,000 slots span up to 313 words of the diagram
/// and five words of its all-busy summary.  Footprints then run across
/// many words, and the allocator's jumps over saturated words cross
/// summary words.
std::vector<RowSpec> starved_rows(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 6));
  std::vector<RowSpec> rows;
  rows.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const Time period = rng.uniform_int(30, 5000);
    rows.push_back(RowSpec{static_cast<StreamId>(r),
                           static_cast<Priority>(n - r), period,
                           /*length=*/rng.uniform_int((period + 1) / 2, period)});
  }
  return rows;
}

/// A row generator with the horizons drawn for it.  With an \p align, a
/// quarter of the horizons are rounded up to a multiple of it.
struct Draw {
  std::vector<RowSpec> (*rows)(util::Rng&);
  Time min_horizon;
  Time max_horizon;
  Time align;
};
constexpr Draw kShortDraw{random_rows, 1, 260, 0};  // crosses word boundaries
// 4,096 slots are one summary word: an aligned horizon ends the diagram
// on a summary-word boundary, where the allocator's last jump starts.
constexpr Draw kLongDraw{starved_rows, 4000, 20000, 4096};

Time draw_horizon(util::Rng& rng, const Draw& draw, Time lo, Time hi) {
  Time horizon = rng.uniform_int(lo, hi);
  if (draw.align > 0 && rng.uniform_int(0, 3) == 0) {
    horizon = (horizon + draw.align - 1) / draw.align * draw.align;
  }
  return horizon;
}

/// Whether some row of \p d waits through 8,192 consecutive slots: such a
/// run holds a whole summary word of all-busy words, so the allocator
/// jumped across summary words there.
bool waits_across_summary_words(const TimingDiagram& d) {
  for (std::size_t r = 0; r < d.num_rows(); ++r) {
    Time run = 0;
    for (Time t = 0; t < d.horizon(); ++t) {
      run = d.at(r, t) == Slot::kWaiting ? run + 1 : 0;
      if (run >= 8192) {
        return true;
      }
    }
  }
  return false;
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

/// Construction: \p trials random row sets of \p draw, each mode.
/// Returns how many diagrams waited across summary words.
int check_construction(std::uint64_t seed, const Draw& draw, int trials) {
  util::Rng rng(seed);
  int long_waits = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::vector<RowSpec> rows = draw.rows(rng);
    const Time horizon =
        draw_horizon(rng, draw, draw.min_horizon, draw.max_horizon);
    const bool carry_over = rng.uniform_int(0, 1) == 1;
    const std::string what = "trial " + std::to_string(trial) + " horizon " +
                             std::to_string(horizon) +
                             (carry_over ? " carry" : " drop");

    TimingDiagram packed(rows, horizon, carry_over);
    ReferenceTimingDiagram ref(rows, horizon, carry_over);
    expect_same(packed, ref, what);
    long_waits += waits_across_summary_words(packed) ? 1 : 0;
  }
  return long_waits;
}

/// Relaxation: a couple of random rows of each row set relaxed against
/// random intermediate sets; the suppression decisions and the compacted
/// diagrams must agree.
void check_relaxation(std::uint64_t seed, const Draw& draw, int trials) {
  util::Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const std::vector<RowSpec> rows = draw.rows(rng);
    const Time horizon =
        draw_horizon(rng, draw, draw.min_horizon, draw.max_horizon);
    const std::string what = "trial " + std::to_string(trial);

    TimingDiagram packed(rows, horizon, /*carry_over=*/false);
    ReferenceTimingDiagram ref(rows, horizon, /*carry_over=*/false);

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

/// reset(): a diagram built at a horizon in [h0_min, h0_max], dirtied by
/// a relaxation, then reset to one in [h1_min, h1_max], must equal a fresh
/// construction there.
void check_reset(std::uint64_t seed, const Draw& draw, int trials,
                 Time h0_min, Time h0_max, Time h1_min, Time h1_max) {
  util::Rng rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    const std::vector<RowSpec> rows = draw.rows(rng);
    const bool carry_over = rng.uniform_int(0, 1) == 1;
    const Time h0 = draw_horizon(rng, draw, h0_min, h0_max);
    const Time h1 = draw_horizon(rng, draw, h1_min, h1_max);

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

TEST(TimingDiagramProperty, MatchesScalarReferenceOnRandomRowSets) {
  check_construction(0xd1a6, kShortDraw, 100);
}

TEST(TimingDiagramProperty, RelaxationMatchesScalarReference) {
  check_relaxation(0xbeef, kShortDraw, 100);
}

TEST(TimingDiagramProperty, ResetEqualsFreshConstruction) {
  check_reset(0xcafe, kShortDraw, 50, 1, 150, 1, 300);
}

TEST(TimingDiagramProperty, LongHorizonMatchesScalarReference) {
  EXPECT_GT(check_construction(0x10a6, kLongDraw, 40), 0);
}

TEST(TimingDiagramProperty, LongHorizonRelaxationMatchesScalarReference) {
  check_relaxation(0x10be, kLongDraw, 40);
}

TEST(TimingDiagramProperty, LongHorizonResetEqualsFreshConstruction) {
  check_reset(0x10ca, kLongDraw, 20, kLongDraw.min_horizon,
              kLongDraw.max_horizon, kLongDraw.min_horizon,
              kLongDraw.max_horizon);
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
