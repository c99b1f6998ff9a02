#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

/// \file timing_diagram.hpp
/// The slot table at the centre of Cal_U.  One row per HP element, in
/// non-increasing priority order; the column index is time (flit times).
/// Row r allocates C slots per period window among the slots left FREE by
/// the rows above it; slots it scans while BUSY are WAITING (preempted).
/// The bottom of the diagram — slots allocated by no row — is the free
/// time the analysed stream can use (Generate_Init_Diagram of the paper).
///
/// Modify_Diagram is realised by suppress-and-rebuild: suppressing a
/// window of a row removes that message instance's demand, and rebuilding
/// the rows below re-allocates ("compacts") them into the freed slots.
///
/// Storage: each row keeps a 64-slot-per-word ALLOCATED bitmap, and each
/// window (message instance) one footprint end.  The allocator scans a
/// window greedily from its start, taking every free slot and waiting on
/// every busy one until the demand is met, so the instance's ALLOCATED
/// and WAITING slots together are always one interval [start, foot):
/// WAITING is the footprint minus ALLOCATED, and FREE the rest.  `busy_`
/// is the union of the allocation bitmaps, followed by a summary with one
/// bit per word that is all busy, so the allocator jumps over saturated
/// words.  Allocation, rebuild and free-slot accounting run
/// word-at-a-time with popcount/ctz, relaxation compares footprint
/// intervals, and `reset()` lets Cal_U's horizon searches reuse one
/// diagram's buffers across horizons.
///
/// Exactness frontier: allocation is a greedy left-to-right scan inside
/// each window, so a diagram built at horizon H agrees slot for slot with
/// the same rows built at any longer horizon on [0, exact_until()).  The
/// frontier starts at H and only relaxation lowers it (see
/// relax_indirect_row); a bound at or before it is therefore the bound of
/// every longer horizon, which is what lets Cal_U certify on a prefix.

namespace wormrt::core {

/// Slot states, matching the paper's Section 4.2 cell values.
enum class Slot : std::uint8_t {
  kFree = 0,   ///< usable by lower-priority traffic
  kWaiting,    ///< the row's instance is preempted at this slot
  kAllocated,  ///< the row's instance transmits at this slot
};

/// Static description of one diagram row.
struct RowSpec {
  StreamId stream = kNoStream;  ///< for reporting only
  Priority priority = 0;        ///< for reporting only
  Time period = 0;              ///< T of the HP element
  Time length = 0;              ///< C of the HP element
};

class TimingDiagram {
 public:
  /// \p rows must be ordered by non-increasing priority (ties broken by
  /// ascending stream id).  \p horizon is the paper's dtime.  With
  /// \p carry_over, demand an instance could not serve inside its window
  /// backlogs into the following windows instead of being dropped.
  TimingDiagram(std::vector<RowSpec> rows, Time horizon, bool carry_over);

  /// Rebuilds the initial diagram at a new horizon, clearing any
  /// suppression, but reusing the existing buffers where possible — the
  /// doubling-horizon loop of Cal_U calls this instead of reconstructing.
  void reset(Time horizon);

  std::size_t num_rows() const { return rows_.size(); }
  Time horizon() const { return horizon_; }

  /// The exactness frontier.  Below it, every row's slots and the
  /// suppression flag of every window starting there equal those of the
  /// same rows, put through the same relaxation steps, at any horizon
  /// >= horizon().
  Time exact_until() const { return exact_until_; }
  const RowSpec& row_spec(std::size_t r) const { return rows_.at(r); }

  Slot at(std::size_t r, Time t) const {
    if (alloc_[r * words_ + word_of(t)] & bit_of(t)) {
      return Slot::kAllocated;
    }
    return row_active(r, t) ? Slot::kWaiting : Slot::kFree;
  }

  /// ALLOCATED or WAITING — the row's stream "exists" at \p t in the
  /// sense of the paper's Fig. 6 discussion: \p t lies in its window's
  /// footprint.
  bool row_active(std::size_t r, Time t) const {
    return t < foot_[first_window(r) +
                     static_cast<std::size_t>(t / rows_[r].period)];
  }

  /// No row transmits at \p t: the analysed stream may use the slot.
  bool free_at_bottom(Time t) const {
    return (busy_[word_of(t)] & bit_of(t)) == 0;
  }

  /// Number of windows (message instances) of row \p r within the horizon.
  std::size_t num_windows(std::size_t r) const {
    return window_end_.at(r) - first_window(r);
  }

  /// True when window \p w of row \p r has been suppressed.
  bool window_suppressed(std::size_t r, std::size_t w) const {
    assert(w < num_windows(r));
    return suppressed_[first_window(r) + w] != 0;
  }

  /// Modify_Diagram step for one indirect row: a window (message
  /// instance) of row \p r is suppressed when no intermediate row is
  /// active during any slot of the instance's footprint (its ALLOCATED
  /// and WAITING slots).  Rows at and below \p r are then re-allocated.
  /// Returns the number of newly suppressed instances.
  /// The window that crosses exact_until() (judged by its untruncated end,
  /// start + T) is decided on slots a longer horizon may change, unless
  /// its instance already received its C slots or met an intermediate
  /// before the frontier; otherwise the frontier drops to its start.
  /// Not supported in carry-over mode (instance footprints blur across
  /// windows); asserts.
  int relax_indirect_row(std::size_t r,
                         const std::vector<std::size_t>& intermediate_rows);

  /// Scans the bottom row: returns the 1-indexed time at which the count
  /// of free slots reaches \p required, or kNoTime when the horizon ends
  /// first.  (The paper's Cal_U lines 9-12.)  Exits early once the slots
  /// remaining before the horizon cannot reach \p required.
  Time accumulate_free(Time required) const;

  /// Number of ALLOCATED slots of row \p r in [0, min(end, horizon)).
  /// Rows allocate only slots left free by the rows above, so these
  /// counts are disjoint across rows and the provenance identity
  ///   bound = latency + sum_r allocated_before(r, bound)
  /// holds exactly (see explain.hpp).
  Time allocated_before(std::size_t r, Time end) const;

  /// ASCII rendering in the style of the paper's Figs. 4/6/7/9:
  /// '#' allocated, '.' waiting, ' ' free-or-busy, bottom row 'F' free.
  std::string render() const;

 private:
  static constexpr std::size_t kBits = 64;

  /// A relaxation's walk over one intermediate row's windows: the window
  /// holding the latest footprint start asked about.
  struct Cursor {
    std::size_t window;  // index into foot_
    Time start;          // that window's first slot
    Time period;
  };

  std::vector<RowSpec> rows_;
  Time horizon_;
  Time exact_until_ = 0;
  bool carry_over_;
  std::size_t words_ = 0;             // ceil(horizon / 64)
  // Per word: some row allocated.  Then, from busy_[words_], the summary:
  // one bit per word whose 64 slots are all busy.
  std::vector<std::uint64_t> busy_;
  std::vector<std::uint64_t> alloc_;  // row-major [row][word]
  // Per row r, its windows are [first_window(r), window_end_[r]) of the
  // two flat per-window arrays below.
  std::vector<std::size_t> window_end_;
  std::vector<Time> foot_;  // footprint [start, foot) of each window
  std::vector<std::uint8_t> suppressed_;
  std::vector<Cursor> cursors_;  // relax_indirect_row's scratch

  static std::size_t word_of(Time t) {
    return static_cast<std::size_t>(t) / kBits;
  }
  static std::uint64_t bit_of(Time t) {
    return std::uint64_t{1} << (static_cast<std::size_t>(t) % kBits);
  }

  std::size_t first_window(std::size_t r) const {
    return r == 0 ? 0 : window_end_[r - 1];
  }
  std::uint64_t* full() { return busy_.data() + words_; }
  std::uint64_t* row_alloc(std::size_t r) { return alloc_.data() + r * words_; }
  const std::uint64_t* row_alloc(std::size_t r) const {
    return alloc_.data() + r * words_;
  }

  /// Re-allocates rows [from, end), assuming rows above are up to date.
  void rebuild_from(std::size_t from);
  /// Allocates row \p r into an ALLOCATED bitmap that is all clear.
  void allocate_row(std::size_t r);

  /// Whether some intermediate row of cursors_ is active on a slot of
  /// [start, end), start < end <= horizon.  The calls of one relaxation
  /// come in non-decreasing \p start order, so each cursor only moves
  /// forward.
  bool meets_intermediate(Time start, Time end);
};

}  // namespace wormrt::core
