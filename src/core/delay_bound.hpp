#pragma once

#include <optional>

#include "core/analysis_config.hpp"
#include "core/bdg.hpp"
#include "core/hpset.hpp"
#include "core/timing_diagram.hpp"

/// \file delay_bound.hpp
/// Cal_U: the transmission-delay upper bound of one message stream, the
/// kernel of the paper's message-stream feasibility test (Section 4.3).

namespace wormrt::core {

struct DelayBoundResult {
  /// U_j in the paper's 1-indexed convention; kNoTime when the free slots
  /// never accumulate to the network latency within the horizon.
  Time bound = kNoTime;
  /// Horizon (dtime) at which the reported bound was computed.  Under
  /// kDeadline this is the rung that certified it (see
  /// DelayBoundCalculator::kFirstPrefixHorizon), at most D_j.
  Time horizon_used = 0;
  /// Message instances removed by the indirect relaxation.
  int suppressed_instances = 0;
  /// Number of INDIRECT elements in the HP set.
  int indirect_elements = 0;
  /// Number of DIRECT elements in the HP set.
  int direct_elements = 0;
  /// Horizon doublings the kExtended search made (0 under kDeadline).
  int horizon_doublings = 0;
  /// True when L_j alone exceeds the deadline horizon: infeasibility was
  /// proved without building a diagram.
  bool deadline_pruned = false;
};

/// Computes delay upper bounds for the streams of one StreamSet.
/// The calculator borrows the stream set and blocking analysis; both must
/// outlive it.  Period/deadline edits to the stream set are picked up by
/// subsequent calc() calls (the workload pipeline relies on this), but
/// path or priority edits require a fresh BlockingAnalysis.
class DelayBoundCalculator {
 public:
  /// Under kDeadline, Cal_U tries the horizons 4096, 8x that, ... below
  /// D_j, then D_j, and returns the first bound that lies at or before the
  /// diagram's exactness frontier (TimingDiagram::exact_until): bitwise
  /// the bound at D_j, at a cost that follows U_j instead of D_j.  A hint
  /// replaces the first rung (see calc_with_hp).  Under kExtended the
  /// doubling search starts at max(D_j, this).
  static constexpr Time kFirstPrefixHorizon = 4096;
  static constexpr Time kPrefixGrowth = 8;

  DelayBoundCalculator(const StreamSet& streams,
                       const BlockingAnalysis& blocking,
                       AnalysisConfig config = {});

  /// Oracle-only construction: calc_with_hp works against any
  /// DirectBlocking implementation (the incremental engine computes HP
  /// sets itself); calc(), which needs the eagerly built HP sets, is
  /// unavailable on this path.
  DelayBoundCalculator(const StreamSet& streams,
                       const DirectBlocking& blocking, AnalysisConfig config);

  /// Cal_U(j) with the HP set from the blocking analysis.  Requires
  /// construction from a BlockingAnalysis.
  DelayBoundResult calc(StreamId j) const;

  /// Cal_U(j) against an explicit HP set (used to reproduce the paper's
  /// published Section 4.4 variant, whose HP_3 differs from the
  /// channel-overlap-consistent one; see DESIGN.md).  A non-null
  /// \p final_diagram receives the diagram the bound was read from,
  /// relaxed when the relaxation ran (left empty when deadline_pruned)
  /// — what EXPLAIN attributes the bound to.
  ///
  /// A \p hint, the bound this stream had before its inputs last changed,
  /// starts a kDeadline search with D_j > kFirstPrefixHorizon at the rung
  /// hint + hint/4 + 1 (at most D_j) instead of kFirstPrefixHorizon; the
  /// x8 rungs continue from there.  Every rung is certified by the same
  /// frontier test, so any hint returns the hint-free bound and only
  /// horizon_used and the cost move.  kNoTime (or any hint below 1)
  /// takes no hint.
  DelayBoundResult calc_with_hp(
      StreamId j, const HpSet& hp,
      std::optional<TimingDiagram>* final_diagram = nullptr,
      Time hint = kNoTime) const;

  /// Builds the (optionally relaxed) timing diagram of stream \p j at a
  /// fixed horizon — the figures bench renders these as in Figs. 4-9.
  TimingDiagram build_diagram(StreamId j, const HpSet& hp, Time horizon,
                              bool relax) const;

  const AnalysisConfig& config() const { return config_; }
  const StreamSet& streams() const { return streams_; }

 private:
  const StreamSet& streams_;
  const DirectBlocking& blocking_;
  /// Non-null only when constructed from a BlockingAnalysis (calc()).
  const BlockingAnalysis* full_ = nullptr;
  AnalysisConfig config_;

  /// Relaxes (when configured) and scans \p diagram at its current
  /// horizon, filling the bound and suppression fields of \p result.
  void evaluate(StreamId j, const HpSet& hp, TimingDiagram& diagram,
                DelayBoundResult& result) const;
  /// Applies Modify_Diagram to \p diagram; returns suppressed count.
  int relax(StreamId j, const HpSet& hp, TimingDiagram& diagram) const;
  std::vector<RowSpec> make_rows(const HpSet& hp) const;
};

}  // namespace wormrt::core
