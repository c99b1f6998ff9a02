#include "core/timing_diagram.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/trace.hpp"

// The slot-counting kernels below get a POPCNT clone on x86-64 glibc:
// the loader picks it (ifunc) on CPUs that have the instruction, where a
// default x86-64 build would otherwise call libgcc's software popcount.
// No build option selects it.  ThreadSanitizer builds go without: an
// ifunc resolver runs before the TSan runtime is up and crashes at load.
// A cloned function is called through the ifunc and cannot be inlined,
// so the clone sits on the per-row loops, not on the per-window
// allocator they call.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WORMRT_TSAN 1
#endif
#endif
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__) && !defined(WORMRT_TSAN)
#define WORMRT_POPCNT_CLONES \
  __attribute__((target_clones("popcnt", "default")))
#else
#define WORMRT_POPCNT_CLONES
#endif

namespace wormrt::core {

namespace {

constexpr Time kWordBits = 64;

inline std::size_t slot_word(Time t) {
  return static_cast<std::size_t>(t / kWordBits);
}

/// The \p n lowest set bits of \p x (n <= popcount(x)).
inline std::uint64_t lowest_n_set(std::uint64_t x, int n) {
  std::uint64_t rest = x;
  for (int i = 0; i < n; ++i) {
    rest &= rest - 1;  // clear the lowest set bit
  }
  return x ^ rest;
}

/// Bits [lo, hi] of a word, 0 <= lo <= hi <= 63.
inline std::uint64_t span_mask(unsigned lo, unsigned hi) {
  const std::uint64_t upto =
      hi == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (hi + 1)) - 1);
  return upto & (~std::uint64_t{0} << lo);
}

/// The slots of [start, end) that fall in word \p w (start < end).
inline std::uint64_t range_mask(std::size_t w, Time start, Time end) {
  const unsigned lo =
      w == slot_word(start) ? static_cast<unsigned>(start % kWordBits) : 0;
  const unsigned hi = w == slot_word(end - 1)
                          ? static_cast<unsigned>((end - 1) % kWordBits)
                          : 63u;
  return span_mask(lo, hi);
}

/// The first word in [w, last] that is not all busy by the summary
/// \p full, or last + 1 when every one is (or w > last).
inline std::size_t next_open_word(const std::uint64_t* full, std::size_t w,
                                  std::size_t last) {
  if (w > last) {
    return last + 1;  // w may index past the summary
  }
  std::size_t s = w / kWordBits;
  std::uint64_t open = ~full[s] & (~std::uint64_t{0} << (w % kWordBits));
  while (open == 0) {
    if (++s > last / kWordBits) {
      return last + 1;
    }
    open = ~full[s];
  }
  return std::min(s * kWordBits + std::countr_zero(open), last + 1);
}

/// Records in \p full that word \p w of \p busy has filled up.
inline void note_full(const std::uint64_t* busy, std::uint64_t* full,
                      std::size_t w) {
  if (busy[w] == ~std::uint64_t{0}) {
    full[w / kWordBits] |= std::uint64_t{1} << (w % kWordBits);
  }
}

struct Scan {
  Time allocated;  // slots taken
  Time foot;       // the scan covered [start, foot)
};

/// Greedily hands the first free slots of [start, end) to a row: up to
/// \p demand slots become ALLOCATED (and busy).  The scan stops at the
/// slot that meets the demand, else at \p end; the busy slots it passes
/// are the row's WAITING slots, so ALLOCATED and WAITING together are
/// [start, foot).  Runs of all-busy words are jumped by \p full.
[[gnu::always_inline]] inline Scan allocate_range(std::uint64_t* busy,
                                                  std::uint64_t* full,
                                                  std::uint64_t* alloc,
                                                  Time start, Time end,
                                                  Time demand) {
  if (demand <= 0 || start >= end) {
    return {0, start};
  }
  Time allocated = 0;
  const std::size_t last = slot_word(end - 1);
  std::size_t w = slot_word(start);
  while (w <= last) {
    std::uint64_t busy_w = busy[w];
    if (busy_w == ~std::uint64_t{0}) {
      w = next_open_word(full, w + 1, last);
      if (w > last) {
        break;
      }
      busy_w = busy[w];
    }
    const std::uint64_t mask = range_mask(w, start, end);
    const std::uint64_t free_mask = ~busy_w & mask;
    const Time cnt = std::popcount(free_mask);
    const Time need = demand - allocated;
    if (cnt < need) {
      // The whole masked region is scanned: take every free slot.
      alloc[w] |= free_mask;
      busy[w] = busy_w | free_mask;
      note_full(busy, full, w);
      allocated += cnt;
      ++w;
      continue;
    }
    // The scan stops at the slot that satisfies the demand.  Nothing
    // busy in the region is the common head-of-window case: the taken
    // slots are contiguous, no per-bit select needed.
    std::uint64_t taken = 0;
    if (free_mask == mask) {
      const auto lo = static_cast<unsigned>(std::countr_zero(mask));
      taken = span_mask(lo, lo + static_cast<unsigned>(need) - 1);
    } else {
      taken = lowest_n_set(free_mask, static_cast<int>(need));
    }
    alloc[w] |= taken;
    busy[w] = busy_w | taken;
    note_full(busy, full, w);
    const auto last_taken = static_cast<Time>(63 - std::countl_zero(taken));
    return {demand, static_cast<Time>(w) * kWordBits + last_taken + 1};
  }
  return {allocated, end};
}

/// Paper semantics for one row: each window [w*T, min((w+1)*T, horizon))
/// not \p suppressed competes for \p length slots inside itself, and the
/// remainder is dropped at the window end.  A suppressed window's
/// footprint is empty.
WORMRT_POPCNT_CLONES
void allocate_windows(std::uint64_t* busy, std::uint64_t* full,
                      std::uint64_t* alloc, Time period, Time length,
                      Time horizon, const std::uint8_t* suppressed,
                      Time* foot, std::size_t windows) {
  Time start = 0;
  for (std::size_t w = 0; w < windows; ++w, start += period) {
    foot[w] = suppressed[w] == 0
                  ? allocate_range(busy, full, alloc, start,
                                   std::min(start + period, horizon), length)
                        .foot
                  : start;
  }
}

/// Carry-over semantics for one row: demand an instance could not serve
/// inside its window backlogs into the following windows.
WORMRT_POPCNT_CLONES
void allocate_backlogged(std::uint64_t* busy, std::uint64_t* full,
                         std::uint64_t* alloc, Time period, Time length,
                         Time horizon, Time* foot) {
  Time pending = 0;
  for (Time start = 0; start < horizon; start += period, ++foot) {
    pending += length;
    const Scan scan = allocate_range(busy, full, alloc, start,
                                     std::min(start + period, horizon),
                                     pending);
    pending -= scan.allocated;
    *foot = scan.foot;
  }
}

/// Set bits of \p words in [start, end).
WORMRT_POPCNT_CLONES
Time count_set(const std::uint64_t* words, Time start, Time end) {
  if (start >= end) {
    return 0;
  }
  Time count = 0;
  for (std::size_t w = slot_word(start); w <= slot_word(end - 1); ++w) {
    count += std::popcount(words[w] & range_mask(w, start, end));
  }
  return count;
}

/// 1-indexed time at which the free (clear) slots of \p busy in
/// [0, horizon) reach \p required, or kNoTime.
WORMRT_POPCNT_CLONES
Time accumulate_free(const std::uint64_t* busy, Time horizon, Time required) {
  Time gained = 0;
  for (std::size_t w = 0; w <= slot_word(horizon - 1); ++w) {
    const auto word_start = static_cast<Time>(w) * kWordBits;
    const std::uint64_t free_mask = ~busy[w] & range_mask(w, 0, horizon);
    const Time cnt = std::popcount(free_mask);
    if (gained + cnt >= required) {
      const int need = static_cast<int>(required - gained);
      const std::uint64_t upto = lowest_n_set(free_mask, need);
      const auto last = static_cast<unsigned>(63 - std::countl_zero(upto));
      return word_start + static_cast<Time>(last) +
             1;  // the paper reports 1-indexed completion times
    }
    gained += cnt;
    if (required - gained > horizon - word_start - kWordBits) {
      return kNoTime;  // even all-free remaining slots cannot reach it
    }
  }
  return kNoTime;
}

}  // namespace

TimingDiagram::TimingDiagram(std::vector<RowSpec> rows, Time horizon,
                             bool carry_over)
    : rows_(std::move(rows)), horizon_(horizon), carry_over_(carry_over) {
  for (std::size_t r = 1; r < rows_.size(); ++r) {
    assert((rows_[r - 1].priority > rows_[r].priority ||
            (rows_[r - 1].priority == rows_[r].priority &&
             rows_[r - 1].stream < rows_[r].stream)) &&
           "rows must be sorted by non-increasing priority");
  }
  for (const RowSpec& r : rows_) {
    assert(r.period >= 1 && r.length >= 1);
    (void)r;
  }
  window_end_.resize(rows_.size());
  reset(horizon);
}

void TimingDiagram::reset(Time horizon) {
  OBS_SPAN("diagram_build");
  assert(horizon >= 1);
  horizon_ = horizon;
  exact_until_ = horizon;
  words_ = (static_cast<std::size_t>(horizon_) + kBits - 1) / kBits;
  busy_.assign(words_ + (words_ + kBits - 1) / kBits, 0);
  alloc_.assign(rows_.size() * words_, 0);
  std::size_t windows = 0;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const Time period = rows_[r].period;
    windows += static_cast<std::size_t>((horizon_ + period - 1) / period);
    window_end_[r] = windows;
  }
  suppressed_.assign(windows, 0);
  foot_.resize(windows);  // allocate_row writes every entry
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    allocate_row(r);
  }
}

void TimingDiagram::allocate_row(std::size_t r) {
  const Time period = rows_[r].period;
  const Time length = rows_[r].length;
  Time* foot = foot_.data() + first_window(r);
  if (carry_over_) {
    // Suppression is not defined in this mode (see relax_indirect_row).
    allocate_backlogged(busy_.data(), full(), row_alloc(r), period,
                        length, horizon_, foot);
  } else {
    allocate_windows(busy_.data(), full(), row_alloc(r), period, length,
                     horizon_, suppressed_.data() + first_window(r), foot,
                     num_windows(r));
  }
}

void TimingDiagram::rebuild_from(std::size_t from) {
  // busy_ and its summary must reflect exactly the allocations of rows
  // above `from`, and the rows re-allocated start clear.
  std::fill(busy_.begin(), busy_.end(), 0);
  for (std::size_t r = 0; r < from; ++r) {
    const std::uint64_t* alloc = row_alloc(r);
    for (std::size_t w = 0; w < words_; ++w) {
      busy_[w] |= alloc[w];
    }
  }
  for (std::size_t w = 0; w < words_; ++w) {
    note_full(busy_.data(), full(), w);
  }
  std::fill(alloc_.begin() + static_cast<std::ptrdiff_t>(from * words_),
            alloc_.end(), 0);
  for (std::size_t r = from; r < rows_.size(); ++r) {
    allocate_row(r);
  }
}

bool TimingDiagram::meets_intermediate(Time start, Time end) {
  for (Cursor& c : cursors_) {
    while (c.start + c.period <= start) {
      c.start += c.period;
      ++c.window;
    }
    // The window holding `start`, then each later one starting before
    // `end`: a footprint there overlaps [start, end) iff it is not empty.
    if (foot_[c.window] > start) {
      return true;
    }
    std::size_t w = c.window;
    for (Time s = c.start + c.period; s < end; s += c.period) {
      if (foot_[++w] > s) {
        return true;
      }
    }
  }
  return false;
}

int TimingDiagram::relax_indirect_row(
    std::size_t r, const std::vector<std::size_t>& intermediate_rows) {
  assert(!carry_over_ &&
         "indirect relaxation requires window-local instances");
  assert(r < rows_.size());
  cursors_.clear();
  for (const std::size_t ir : intermediate_rows) {
    cursors_.push_back({first_window(ir), 0, rows_[ir].period});
  }
  int suppressed_count = 0;
  const Time period = rows_[r].period;
  const Time length = rows_[r].length;
  const std::size_t first = first_window(r);
  const std::size_t windows = num_windows(r);
  Time start = 0;
  for (std::size_t w = 0; w < windows; ++w, start += period) {
    if (suppressed_[first + w] != 0) {
      continue;
    }
    // The instance's footprint (its ALLOCATED and WAITING slots) is
    // [start, foot), never empty in this mode.  It survives iff some
    // intermediate row is active during one of those slots.
    const Time foot = foot_[first + w];
    assert(foot > start);
    const bool met = meets_intermediate(start, foot);
    if (!met) {
      // No intermediate stream exists anywhere under this instance: the
      // indirect blocker cannot actually reach the analysed stream here.
      suppressed_[first + w] = 1;
      ++suppressed_count;
    }
    // A longer horizon keeps this verdict unless the instance's footprint
    // crosses the frontier undecided: then its slots from there on may
    // differ and so may the verdict, which rewrites the window from its
    // start.  The untruncated end decides the crossing: a window the
    // horizon cuts short still scans on in a longer diagram.
    if (start < exact_until_ && start + period > exact_until_ &&
        count_set(row_alloc(r), start, exact_until_) < length &&
        (!met || !meets_intermediate(start, std::min(foot, exact_until_)))) {
      exact_until_ = start;
    }
  }
  if (suppressed_count > 0) {
    rebuild_from(r);  // row r drops the instances; rows below compact
  }
  return suppressed_count;
}

Time TimingDiagram::accumulate_free(Time required) const {
  assert(required >= 1);
  return core::accumulate_free(busy_.data(), horizon_, required);
}

Time TimingDiagram::allocated_before(std::size_t r, Time end) const {
  assert(r < rows_.size());
  return count_set(row_alloc(r), 0, std::min(end, horizon_));
}

std::string TimingDiagram::render() const {
  std::string out;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += "M" + std::to_string(rows_[r].stream) + " |";
    for (Time t = 0; t < horizon_; ++t) {
      switch (at(r, t)) {
        case Slot::kAllocated: out += '#'; break;
        case Slot::kWaiting: out += '.'; break;
        case Slot::kFree: out += ' '; break;
      }
    }
    out += "|\n";
  }
  out += "free|";
  for (Time t = 0; t < horizon_; ++t) {
    out += free_at_bottom(t) ? 'F' : ' ';
  }
  out += "|\n";
  return out;
}

}  // namespace wormrt::core
