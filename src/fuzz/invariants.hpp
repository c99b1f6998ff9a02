#pragma once

#include <optional>
#include <string>

#include "core/analysis_config.hpp"
#include "fuzz/scenario.hpp"

/// \file invariants.hpp
/// The seven differential oracles every fuzz scenario is checked against
/// (DESIGN.md §8).  Each one validates the optimised production path —
/// bit-packed diagrams, the incremental dirty-set engine, the wire
/// protocol, the write-ahead journal — against an independent witness.
///
/// Four of them share one churn replay: each op goes to an in-process
/// AdmissionController and, when the oracle has a Service under test, to
/// that Service (Service::handle, handle_line or a loopback socket).  The
/// replay keeps the op -> handle map, forgets evicted victims, checks
/// every reply with one comparator (REQUEST: ok, admitted, bound, handle,
/// would_break; REMOVE: removed; LINK: evicted and rerouted) and then
/// runs the oracle's per-op hook.  Only equivalence/monotonicity keeps a
/// loop of its own: it drives a bare IncrementalAnalyzer, with no
/// admission gate and no links.
///
///   flit-soundness
///                 the admitted population replayed through the
///                 event-driven flit-accurate router (flitsim) on every
///                 topology, at the synchronized critical instant and
///                 under random phases — no delivered message may exceed
///                 its stream's bound U_i.  Only streams with headroom
///                 for the 2-cycle credit round trip (U_i + 2 <= T_i)
///                 are checked (DESIGN.md §12).
///   equivalence   IncrementalAnalyzer bounds after every mutation of
///                 the churn must be bitwise identical to a from-scratch
///                 determine_feasibility of the same population.
///   monotonicity  U_i >= network latency (h + C - 1); documented-
///                 pessimistic configs (carry-over, no relaxation) never
///                 yield a smaller bound; adding a strictly higher-
///                 priority stream never improves anyone's bound.
///   protocol      the replay through Service::handle_line (optionally
///                 over a real socket): every reply passes the
///                 comparator, and QUERY of every live handle returns
///                 the cached bound.
///   recovery      the replay through a journaled Service up to a random
///                 crash point (possibly mid-append, leaving a torn
///                 tail); the reopened engine — bounds, handles, order,
///                 next handle, fault flags, route orders — must equal
///                 the in-process oracle of exactly the acknowledged
///                 prefix, and make the identical next decision.
///   fault-repair  the replay with no Service; after every link
///                 mutation (the hook) and at the end, every surviving
///                 bound must equal a from-scratch analysis of the
///                 survivors, and no surviving path may cross a faulted
///                 channel.
///   replication   the replay through a journaled primary while an
///                 in-process follower pulls it with the follower step
///                 wormrtd --follow ships (svc::hello at each boot,
///                 svc::bootstrap when told, svc::pull_once; the hook
///                 pulls and crashes the follower; small buffers force
///                 snapshot bootstraps); after catch-up the follower's
///                 engine must equal the primary's bitwise, and after
///                 PROMOTE both must make the in-process reference's
///                 next admission decision.

namespace wormrt::fuzz {

/// Names used in reports, corpus files, and shrink predicates.
inline constexpr const char* kInvariantFlit = "flit-soundness";
inline constexpr const char* kInvariantEquivalence = "equivalence";
inline constexpr const char* kInvariantMonotonicity = "monotonicity";
inline constexpr const char* kInvariantProtocol = "protocol";
inline constexpr const char* kInvariantRecovery = "recovery";
inline constexpr const char* kInvariantFault = "fault-repair";
inline constexpr const char* kInvariantReplication = "replication";

struct Violation {
  std::string invariant;  ///< one of the kInvariant* names
  std::string detail;     ///< human-readable witness
};

struct CheckConfig {
  /// The fabric contract under test; the flit oracle simulates its
  /// vc_buffer_depth (>= 2 hides the credit round trip, DESIGN.md §12).
  core::AnalysisConfig analysis;

  /// Flit-accurate soundness.
  bool check_flit = true;
  bool check_equivalence = true;
  bool check_monotonicity = true;
  bool check_protocol = true;
  bool check_recovery = true;
  bool check_fault = true;
  bool check_replication = true;

  /// Injection window of each soundness simulation (flit times).
  Time sim_duration = 3000;
  /// Random-phase simulations per scenario on top of the synchronized
  /// (critical instant) run.
  int phase_seeds = 1;

  /// Replay the protocol through an in-process Server + Client over a
  /// loopback TCP socket instead of calling handle_line directly —
  /// exercises the real transport (framing, EINTR retry, thread pool).
  bool protocol_over_socket = false;

  /// Fault injection for the fuzzer's own tests: the flit oracle
  /// compares observed latencies against bound - soundness_tightening,
  /// so a positive value manufactures "violations" on healthy code and
  /// proves the detect -> shrink -> corpus pipeline actually fires.
  Time soundness_tightening = 0;

  /// Fault injection for the recovery oracle's own tests: corrupt an
  /// ACKNOWLEDGED journal record after the simulated crash.  Recovery
  /// then genuinely diverges from the acknowledged history, and the
  /// recovery invariant must say so — proving the comparison has teeth.
  /// (The normal fuzz path only ever mutilates the unacknowledged tail,
  /// which recovery must absorb silently.)
  bool recovery_corrupt_acknowledged = false;

  /// Directory under which the recovery check creates its per-scenario
  /// state dirs (mkdtemp).  Tests point it at their own tmp dir.
  std::string recovery_tmp_root = "/tmp";

  /// Fault injection for the fault-repair oracle's own tests: the cached
  /// bound is compared against reference + fault_oracle_skew, so a
  /// non-zero value manufactures "violations" on healthy code and proves
  /// the fault-repair oracle actually bites.
  Time fault_oracle_skew = 0;

  /// Fault injection for the replication oracle's own tests (skewed
  /// replay): the follower's bounds are compared against the primary's
  /// + replication_skew, so a non-zero value manufactures "violations"
  /// on healthy code and proves the replication oracle actually bites.
  Time replication_skew = 0;
};

/// Runs every enabled oracle over \p scenario; returns the first
/// violation found, or nullopt when the scenario is clean.
std::optional<Violation> check_scenario(const Scenario& scenario,
                                        const CheckConfig& config);

}  // namespace wormrt::fuzz
