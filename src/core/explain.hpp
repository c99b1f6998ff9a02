#pragma once

#include <string>
#include <vector>

#include "core/delay_bound.hpp"
#include "core/hpset.hpp"
#include "core/message_stream.hpp"

/// \file explain.hpp
/// Bound provenance: WHERE a delay bound comes from.  Cal_U reports one
/// number (U_j); explain_bound decomposes it into the terms an operator
/// can act on — the contention-free network latency plus one
/// interference term per HP stream — and the identity
///
///   U_j = L_j + sum over HP rows of (slots allocated before U_j)
///
/// holds EXACTLY when the bound exists: rows of the timing diagram
/// allocate only slots left free by the rows above them, so the per-row
/// allocation counts partition the busy slots of [0, U_j), and
/// accumulate_free places U_j so that exactly L_j free slots precede it.
/// A property test fuzzes random scenarios and asserts the identity
/// against the cached bound (tests/core/test_explain.cpp).
///
/// Provenance is a diagnostic path, not a hot path: it re-runs Cal_U and
/// rebuilds the final diagram once.  The admission service exposes it as
/// the EXPLAIN verb; the CLI renders it with BoundProvenance::render().

namespace wormrt::core {

/// One HP stream's contribution to the analysed stream's bound.
struct InterferenceTerm {
  StreamId id = kNoStream;
  Priority priority = 0;
  BlockMode mode = BlockMode::kDirect;
  Time period = 0;  ///< T of the HP element
  Time length = 0;  ///< C of the HP element
  /// Slots this row transmits in [0, U_j) — its exact delay contribution
  /// (counted over [0, horizon) when the bound does not exist).
  Time slots = 0;
  /// Message instances (period windows) of the row within the horizon.
  std::size_t instances = 0;
  /// Instances removed by the indirect relaxation (Modify_Diagram).
  std::size_t suppressed = 0;
};

/// Full decomposition of one stream's delay bound.
struct BoundProvenance {
  StreamId stream = kNoStream;
  /// U_j; kNoTime when the free slots never reach the latency in time.
  Time bound = kNoTime;
  Time deadline = 0;
  /// L_j — the contention-free network latency (hops + C - 1).
  Time base_latency = 0;
  /// Sum of the terms' slots; bound == base_latency + interference when
  /// the bound exists.
  Time interference = 0;
  /// Horizon of the diagram that certified the bound: under kDeadline a
  /// prefix of the deadline when one sufficed (DelayBoundResult), so the
  /// terms' instance counts are those of that diagram.
  Time horizon_used = 0;
  /// Horizon doublings the kExtended search performed (0 under
  /// kDeadline).
  int horizon_doublings = 0;
  /// Total instances removed by the indirect relaxation.
  int suppressed_instances = 0;
  /// True when Cal_U proved infeasibility without building a diagram
  /// (L_j alone exceeds the deadline horizon); terms is empty then.
  bool deadline_pruned = false;
  std::vector<InterferenceTerm> terms;  ///< diagram row order (prio desc)

  /// Human-readable tree, e.g.
  ///   U(stream 3) = 42  [deadline 50, horizon 50, 0 doublings]
  ///   +- base latency         17
  ///   +- interference         25  (2 HP streams)
  ///      +- stream 1  direct    prio 9  T=20 C=4  slots=13  (3 inst)
  ///      +- stream 2  indirect  prio 7  T=25 C=6  slots=12  (2 inst, 1 suppressed)
  std::string render() const;
};

/// Decomposes Cal_U(j) against the explicit HP set \p hp.  Runs the same
/// deterministic computation as calc_with_hp, so `bound` always equals
/// the DelayBoundResult's (and any cached copy of it).
BoundProvenance explain_bound(const DelayBoundCalculator& calc, StreamId j,
                              const HpSet& hp);

}  // namespace wormrt::core
