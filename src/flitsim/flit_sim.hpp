#pragma once

#include <cstdint>
#include <vector>

#include "core/message_stream.hpp"
#include "flitsim/event_queue.hpp"
#include "flitsim/flit_config.hpp"
#include "flitsim/flit_stats.hpp"
#include "flitsim/router.hpp"
#include "topo/topology.hpp"

/// \file flit_sim.hpp
/// Event-driven flit-level wormhole simulator (DESIGN.md §12).
///
/// FlitSimulator models the paper's Section 3 router: per-input-port
/// virtual-channel buffers of configurable depth, credit-based flow
/// control with a 1-cycle wire delay each way, single injection/ejection
/// ports per node, and per-cycle physical-channel arbitration.  VcMode
/// selects the switching policy — the paper's per-priority VCs, the
/// per-stream-lane idealisation the analysis charges, and the Fig. 2 /
/// Section 3 baselines (classical FCFS wormhole, Li & Mutka's VCs, Song's
/// throttle-and-preempt).  Wormhole semantics throughout: the header
/// allocates a VC hop by hop, body and tail follow the reserved lane, and
/// the tail releases each VC as the last credit returns.
///
/// The simulator itself is strictly single-threaded and deterministic:
/// event pop order is a total order (event_queue.hpp) and every
/// arbitration tie-break is (priority desc, stream id asc).  Parallelism
/// comes from run_replications(), which runs independent replications on
/// the shared util::ThreadPool into pre-sized slots — bitwise identical
/// results at any thread count.

namespace wormrt::obs {
class Histogram;
}

namespace wormrt::flitsim {

class FlitSimulator {
 public:
  /// \p topo and \p streams must outlive the simulator.  Throws
  /// std::invalid_argument on malformed input (empty path with
  /// src != dst, non-positive depth, per-priority VC overflow).
  FlitSimulator(const topo::Topology& topo, const core::StreamSet& streams,
                FlitSimConfig config);

  /// Runs the simulation to completion (all releases in [0, duration)
  /// injected and drained, or drain_limit exceeded).  Single-use:
  /// throws std::logic_error on a second call.
  FlitSimResult run();

 private:
  struct Packet {
    StreamId stream = kNoStream;
    Time generated = 0;
  };

  // --- construction helpers ---
  void build_vcs();
  void seed_releases();
  Time phase_of(StreamId s) const;

  // --- indexing ---
  InVc& in_vc(const SrcRef& ref) {
    return in_vcs_[static_cast<std::size_t>(vc_base_[static_cast<std::size_t>(ref.channel)] + ref.vc)];
  }
  /// Global out-VC index for \p stream's lane on \p channel.
  std::int32_t out_vc_index(topo::ChannelId channel, StreamId stream) const;
  /// Global injection-VC index for \p stream at its source node.
  std::int32_t inj_vc_index(StreamId stream) const;
  /// Priority of the packet an input or injection VC holds.
  Priority priority_of(const SrcRef& ref) const;
  /// Local index of a VC of \p channel that a header of stream \p s
  /// (priority \p pr) may take right now under the VC mode, or -1.
  std::int32_t free_out_vc(topo::ChannelId channel, Priority pr,
                           StreamId s) const;
  /// Queue a blocked header of stream \p s waits in for \p channel.
  std::deque<SrcRef>& waiters_of(topo::ChannelId channel, StreamId s);
  /// True when headers queue per channel (on VC 0's list) rather than
  /// per VC: the modes in which a header may take one of several VCs.
  bool shared_queue() const {
    return config_.vc_mode == VcMode::kLiVc ||
           config_.vc_mode == VcMode::kThrottlePreempt;
  }

  // --- event handlers ---
  void do_release(StreamId s);
  void do_tick(topo::NodeId n);

  // --- tick steps ---
  void drain_wires(Router& r);
  void drain_credits(Router& r);
  void eject_one(Router& r);
  void allocate_vcs(Router& r);
  std::int32_t pick_injection(Router& r);
  void arbitrate_switch(Router& r, std::int32_t inj_candidate);

  // --- actions ---
  void schedule_tick(topo::NodeId n, Time t);
  void send_credit(topo::ChannelId channel, std::int32_t vc);
  void grant(topo::ChannelId channel, std::int32_t vc, const SrcRef& who,
             bool waited);
  void release_out_vc(topo::ChannelId channel, std::int32_t vc);
  void forward_flit(Router& r, topo::ChannelId channel, const SrcRef& src);
  void complete_packet(std::int32_t packet, Time delivered);
  /// kThrottlePreempt: discards the lowest-priority worm below \p pr
  /// holding a VC of \p channel, if any.
  void preempt_below(topo::ChannelId channel, Priority pr);
  /// kThrottlePreempt: removes \p packet's flits and VC claims from the
  /// whole network and requeues it at its source for retransmission.
  void discard(std::int32_t packet);
  std::int32_t alloc_packet(StreamId s, Time generated);
  void deactivate_transit(Router& r, const SrcRef& ref);
  void deactivate_injection(Router& r, std::int32_t global_inj);

  // --- invariants ---
  void validate_state() const;
  void check_quiescent() const;
  void apply_metrics();

  const topo::Topology& topo_;
  const core::StreamSet& streams_;
  FlitSimConfig config_;
  int depth_ = 0;
  int num_vcs_ = 0;  ///< VCs per channel; unused in per-stream-lane mode

  // VC layout: channel c's VC group occupies indices
  // [vc_base_[c], vc_base_[c] + vc_count_[c]) of in_vcs_ and out_vcs_.
  std::vector<std::int32_t> vc_base_;
  std::vector<std::int32_t> vc_count_;
  /// kPerStreamLane: per channel, sorted ids of the streams crossing it
  /// (lane index = rank).  Unused in the other modes.
  std::vector<std::vector<StreamId>> lanes_;
  std::vector<std::int32_t> inj_base_;  ///< per node, into inj_vcs_
  std::vector<std::int32_t> inj_count_;
  /// Every mode but kPerPriority: per node, sorted ids of locally sourced
  /// streams — each stream has its own injection queue.
  std::vector<std::vector<StreamId>> inj_lanes_;
  /// kLiVc: per channel, the local VC index round-robin arbitration
  /// serves first.
  std::vector<std::int32_t> rr_;

  std::vector<InVc> in_vcs_;
  std::vector<OutVc> out_vcs_;
  std::vector<InjVc> inj_vcs_;
  std::vector<std::deque<WireFlit>> wire_flits_;      // per channel
  std::vector<std::deque<WireCredit>> wire_credits_;  // per channel
  std::vector<Router> routers_;
  std::vector<Time> last_tick_push_;  // per node; push-side dedupe

  std::vector<Packet> pool_;
  std::vector<std::int32_t> free_;

  EventQueue events_;
  Time now_ = 0;
  bool used_ = false;
  std::int64_t flits_in_network_ = 0;
  obs::Histogram* latency_hist_ = nullptr;  // from config_.metrics, cached
  FlitSimResult result_;
};

/// Runs \p replications independent simulations in parallel on the
/// shared thread pool.  Replication 0 uses \p config verbatim;
/// replication r > 0 switches to random phases with a phase seed derived
/// deterministically from (config.phase_seed, r).  Results land in
/// pre-sized slots indexed by replication, so the output is bitwise
/// identical at any thread count.
std::vector<FlitSimResult> run_replications(const topo::Topology& topo,
                                            const core::StreamSet& streams,
                                            const FlitSimConfig& config,
                                            int replications,
                                            int num_threads);

}  // namespace wormrt::flitsim
