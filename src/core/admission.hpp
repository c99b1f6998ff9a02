#pragma once

#include <optional>
#include <vector>

#include "core/analysis_config.hpp"
#include "core/incremental.hpp"
#include "core/message_stream.hpp"
#include "route/fault_aware.hpp"

/// \file admission.hpp
/// Online admission control ("real-time channel establishment").  The
/// related work the paper builds on (Ferrari & Verma; Kandlur, Shin &
/// Ferrari) establishes real-time channels one at a time, admitting a
/// request only when its deadline can be guaranteed without invalidating
/// any established channel.  This controller realises that procedure
/// over the paper's wormhole delay bound: a request is admitted iff its
/// own bound meets its deadline AND every already-admitted stream's
/// bound still meets its deadline with the newcomer's interference.
///
/// The heavy lifting lives in core::IncrementalAnalyzer: a request is a
/// trial add that computes only the newcomer and its dirty closure, the
/// newcomer first, and stops at the first stream that fails the gate
/// (undone exactly, without a recompute, when the decision is a
/// rejection); a teardown releases interference and marks its dirty
/// closure stale, computing nothing; and a bound query is an O(1) cache
/// read, or one Cal_U the first time a stale bound is read.  Streams
/// outside the dirty set provably keep their bounds, so the decisions
/// are identical to the full-recompute procedure — the kFullRecompute
/// mode keeps that baseline available for benchmarking and the
/// exactness property tests.
///
/// Dynamic fabrics: the controller owns the fault lifecycle of its
/// (borrowed, mutable) topology.  link_down() marks a channel faulted,
/// evicts every established stream whose path crosses it (found by the
/// engine's channel-level dirtiness; their dirty closures go stale), then tries
/// to re-establish each victim on the deterministic detour order
/// (route/fault_aware.hpp) under the full admission gate, keeping its
/// original handle on success.  link_up() clears the flag; established
/// streams are NOT migrated back — their detour paths stay valid, and
/// new requests simply see the healthy channel again.  Paths are always
/// chosen via the two persisted route orders, so journal replay of the
/// same mutation sequence reproduces every path bit for bit.

namespace wormrt::core {

/// Flit validity: the bound survives real credit flow control only when
/// the stream keeps two flit times of slack for the credit round trip,
/// U + 2 <= T (EXPERIMENTS.md finding 2).  The one predicate behind the
/// admission gate, REPORT, HEALTH, the fuzzer's flit oracle and the slack
/// report.
bool flit_valid(Time bound, Time period);

/// The fabric contract a bound is promised for, as one value: the
/// topology's fingerprint and every AnalysisConfig field but num_threads,
/// which changes no result.  wormrtd stamps it into its state dir and
/// REPL_HELLO and refuses state or a follower under another (DESIGN.md
/// §10).
std::uint64_t contract_fingerprint(const topo::Topology& topology,
                                   const AnalysisConfig& config);

/// What the fingerprint covers, named by every error that refuses one.
inline constexpr char kContractSettings[] =
    "topology, vc_buffer_depth, credit_slack_guard, ejection_port_overlap, "
    "injection_port_overlap, same_priority_blocks, carry_over, relaxation, "
    "horizon, horizon_cap";

class AdmissionController {
 public:
  /// Stable handle for an admitted channel (survives removals).
  using Handle = IncrementalAnalyzer::Handle;

  /// kIncremental invalidates only each mutation's dirty closure;
  /// kFullRecompute invalidates the whole population, so every trial
  /// re-analyses it (the pre-incremental behaviour — same decisions,
  /// more work).
  enum class Mode { kIncremental, kFullRecompute };

  /// Topology and routing are borrowed and must outlive the controller.
  /// The topology is mutable because the controller drives its fault
  /// flags (link_down / link_up); the channel set itself never changes.
  /// \p routing must agree with the primary dimension order — it is the
  /// vocabulary-level name of the paper's routing function, while path
  /// construction goes through the persisted route orders.
  AdmissionController(topo::Topology& topo,
                      const route::RoutingAlgorithm& routing,
                      AnalysisConfig config = {},
                      Mode mode = Mode::kIncremental);

  struct Decision {
    bool admitted = false;
    /// The requester's delay bound in the trial set (kNoTime when it was
    /// not reachable within the deadline).
    Time bound = kNoTime;
    /// Handle of the admitted channel (only when admitted).
    Handle handle = -1;
    /// Established channels whose guarantee the request would have
    /// broken.  A plain request stops its trial at the first stream
    /// that fails the gate, the newcomer first: the list names the first
    /// broken channel in engine order, and is empty when the newcomer
    /// fails its own gate.  A request with provenance evaluates the
    /// whole dirty set and lists every broken channel in engine order,
    /// so the plain list is empty or that list's first element.
    std::vector<Handle> would_break;
    /// No route order avoids the currently faulted channels (rejection
    /// with no trial — bound stays kNoTime).
    bool no_route = false;
    /// PR-7 flit-validity of the bound: U + 2 <= T, i.e. the stream has
    /// slack for the credit round trip and the analytic bound holds
    /// under real credit flow control (EXPERIMENTS.md finding 2).
    /// Reported for every trial; enforced when
    /// AnalysisConfig::credit_slack_guard is on.
    bool flit_valid = false;
    /// Route order the trial used (route/fault_aware.hpp).
    int route_order = route::kRouteOrderPrimary;
  };

  /// Tries to establish a channel.  On admission the stream is
  /// registered and its interference becomes part of later decisions.
  Decision request(topo::NodeId src, topo::NodeId dst, Priority priority,
                   Time period, Time length, Time deadline);

  /// Like request(), additionally capturing the candidate's bound
  /// provenance (see explain.hpp) into *\p provenance when non-null —
  /// measured against the trial population, i.e. BEFORE any rejection
  /// rollback, so a rejected requester still learns which HP streams
  /// pushed its bound past the deadline.  With \p provenance the trial
  /// runs to the end and would_break lists every broken channel.
  Decision request(topo::NodeId src, topo::NodeId dst, Priority priority,
                   Time period, Time length, Time deadline,
                   BoundProvenance* provenance);

  /// Provenance of an established channel's current bound; nullopt for
  /// unknown handles.  Diagnostic path — re-runs Cal_U for the stream.
  std::optional<BoundProvenance> explain(Handle handle) const {
    return engine_.explain(handle);
  }

  /// Tears down an established channel, releasing its interference.
  /// Returns false for an unknown handle.
  bool remove(Handle handle);

  /// Outcome of one topology mutation.
  struct LinkMutation {
    topo::ChannelId channel = topo::kNoChannel;
    /// False when the channel was already in the requested fault state
    /// (nothing happened).
    bool changed = false;
    /// Victims torn down for good: no fault-free route order, or the
    /// detour failed the admission gate.
    std::vector<Handle> evicted;
    /// Victims re-established on a detour, keeping their handles.
    std::vector<Handle> rerouted;
    /// Established streams whose bounds the cascade invalidated: the
    /// survivors of the evictions' dirty closures, then the dirty
    /// closures of the detours (ascending, deduplicated).  Each is
    /// computed in a detour's trial or when next read.
    std::vector<Handle> recomputed;
  };

  /// Takes a channel down: marks it faulted, evicts every established
  /// stream crossing it (their dirty closures go stale, no Cal_U),
  /// then re-admits each victim — ascending handle order, so
  /// replay is deterministic — on the first fault-free route order that
  /// passes the full admission gate (deadline, credit-slack guard when
  /// on, no established guarantee broken).  Victims that fit keep their
  /// original handles; the rest are evicted.
  LinkMutation link_down(topo::ChannelId channel);

  /// Brings a channel back up: clears the fault flag.  Established
  /// streams keep their current (detour) paths and bounds — no
  /// recompute, no migration; the repaired channel is simply available
  /// to future requests and reroutes again.
  LinkMutation link_up(topo::ChannelId channel);

  /// Re-establishes a previously admitted channel exactly as journaled:
  /// no feasibility gate, the recorded \p handle is forced and the
  /// recorded \p route_order rebuilds the identical path without
  /// consulting fault state.  Recovery replays the snapshot population
  /// in engine order and then the post-snapshot journal through this,
  /// which reproduces the pre-crash engine state (population order,
  /// digraph, bounds, handle numbering) bit for bit — rejected requests
  /// leave no trace (their trial handle is released on rollback), so
  /// the admitted mutation sequence fully determines the state.
  ///
  /// A \p position below size() re-inserts the stream at that dense id
  /// instead of appending it: the streams from there on are lifted and
  /// re-added under their own handles.  That undoes a teardown whose
  /// commit failed, restoring the engine order the journal — and so
  /// recovery and every follower — still has.  Like every ungated add,
  /// it computes no bound: the streams it touches go stale.
  void restore(topo::NodeId src, topo::NodeId dst, Priority priority,
               Time period, Time length, Time deadline, Handle handle,
               int route_order = route::kRouteOrderPrimary,
               StreamId position = kNoStream);

  /// Undoes an admission that could not be made durable (journal append
  /// failed): removes the stream and returns the handle to the pool.
  /// Only valid for the most recently admitted handle.
  void unadmit(Handle handle);

  /// Durable handle-numbering state (see restore()).
  Handle next_handle() const { return engine_.next_handle(); }
  void set_next_handle(Handle handle) { engine_.set_next_handle(handle); }

  std::size_t size() const { return engine_.size(); }

  /// Current delay bound of an established channel, or nullopt for an
  /// unknown handle.  Served from the engine's bound cache; a stale
  /// bound is computed by this first read.
  std::optional<Time> bound_of(Handle handle) const;

  /// The established streams as a dense StreamSet (ids are positions,
  /// not handles) — for simulation or reporting.
  StreamSet snapshot() const { return engine_.snapshot(); }

  /// The underlying engine (bound cache, work counters, digraph).
  const IncrementalAnalyzer& engine() const { return engine_; }

  /// The (mutable) fabric this controller administers.
  topo::Topology& topology() { return topo_; }
  const topo::Topology& topology() const { return topo_; }

 private:
  topo::Topology& topo_;
  const route::RoutingAlgorithm& routing_;
  IncrementalAnalyzer engine_;
  /// The admission gate, one stream at a time: a bound exists, meets the
  /// stream's deadline and, under the credit-slack guard, is flit-valid.
  /// A trial passes when the newcomer and every stream it dirties do.
  IncrementalAnalyzer::Gate gate_;
};

}  // namespace wormrt::core
