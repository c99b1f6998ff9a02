#pragma once

#include <string>

#include "util/types.hpp"

/// \file analysis_config.hpp
/// Knobs of the delay-bound analysis.  The defaults reproduce the paper's
/// algorithm (Section 4); the alternatives exist for the ablation benches.
/// With the topology they are the fabric contract a bound is promised for
/// (core::contract_fingerprint in admission.hpp).

namespace wormrt::core {

/// How indirect HP elements are relaxed by Modify_Diagram.
enum class IndirectRelaxation {
  /// Skip Modify_Diagram entirely: every HP element is treated as a
  /// direct blocker (strictly more pessimistic bound).
  kNone,
  /// The paper's relaxation at the granularity its figures show: a whole
  /// message instance of an indirect element is removed when none of its
  /// intermediate streams is active (ALLOCATED or WAITING) during any
  /// slot of that instance's footprint; rows below are then re-allocated
  /// ("compacted", Fig. 9).
  kInstance,
};

/// How Cal_U chooses its timing-diagram horizon.
enum class HorizonPolicy {
  /// The paper's rule: scan exactly up to the stream's deadline D_j and
  /// report failure (-1) if the bound is not reached by then.
  kDeadline,
  /// Extended search used by the workload pipeline ("if U_i > T_i we
  /// increased T_i"): start at max(D_j, 4096) and keep doubling up to
  /// `horizon_cap` until the bound converges.
  kExtended,
};

struct AnalysisConfig {
  IndirectRelaxation relaxation = IndirectRelaxation::kInstance;
  HorizonPolicy horizon = HorizonPolicy::kDeadline;

  /// Whether equal-priority streams block each other (they cannot preempt
  /// one another, so they must: this is what makes the single-priority
  /// bounds of Tables 1-2 loose).  Disabling it models an idealised
  /// fully-ordered priority space.
  bool same_priority_blocks = true;

  /// Treat node ejection/injection ports as shared resources in the
  /// blocking relation (one-port router model; the paper ignores them —
  /// disable both for the literal paper relation).
  bool ejection_port_overlap = true;
  bool injection_port_overlap = true;

  /// When an instance of an HP element cannot obtain its C slots inside
  /// its own period window, the paper's Generate_Init_Diagram drops the
  /// remainder at the window end.  With carry-over enabled the unserved
  /// demand backlogs into following windows instead (strictly more
  /// pessimistic, never optimistic).
  bool carry_over = false;

  /// Hard ceiling for the kExtended horizon search.  A bound that does
  /// not converge below the cap is reported as not found.
  Time horizon_cap = Time{1} << 18;

  /// PR-7 finding 2 (EXPERIMENTS.md): under real credit flow control a
  /// zero-slack stream (U_i + 2 > T_i) backlogs — the two-flit-time
  /// credit round trip eats the slack the bound says it has — so its
  /// analytic bound, while correct in the paper's model, is not flit
  /// valid.  With the guard on, admission additionally requires
  /// U + 2 <= T for the candidate and for every established stream the
  /// decision perturbs.  Off by default for paper-table reproduction;
  /// wormrtd turns it on unless --no-credit-slack-guard.
  bool credit_slack_guard = false;

  /// Modelled per-VC flit-buffer depth of the fabric the bounds are
  /// issued against.  PR-7 finding 3 (EXPERIMENTS.md): depth 1 cannot
  /// sustain one-flit-per-cycle pipelining (latency degrades to
  /// h + 2(C-1)), which breaks the classic backend's L_i = h + C - 1
  /// model — validate_analysis_config() rejects depth < 2.
  int vc_buffer_depth = 2;

  /// Threads used to fan out the per-stream Cal_U calls of
  /// determine_feasibility / AdmissionController (and the replications of
  /// the table benches).  1 = the serial paper-fidelity path (default);
  /// 0 = one thread per hardware core; N = exactly N threads.  Every
  /// setting produces bitwise-identical results — streams are dealt out
  /// dynamically but each result lands in its own pre-sized slot.
  int num_threads = 1;
};

/// Validates a config against the classic (paper) backend's model
/// assumptions.  Returns "" when consistent, else an explanation suitable
/// for a startup hard error.  Today's single check: vc_buffer_depth < 2
/// breaks the L_i = h + C - 1 latency model (EXPERIMENTS.md finding 3).
inline std::string validate_analysis_config(const AnalysisConfig& config) {
  if (config.vc_buffer_depth < 2) {
    return "vc_buffer_depth " + std::to_string(config.vc_buffer_depth) +
           " is unsound for the classic backend: depth-1 VC buffers cannot "
           "sustain one-flit-per-cycle pipelining, so real latency is "
           "h + 2(C-1) while the analysis assumes L_i = h + C - 1 "
           "(see EXPERIMENTS.md, flit-accurate finding 3); use depth >= 2";
  }
  return "";
}

}  // namespace wormrt::core
