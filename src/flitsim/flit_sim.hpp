#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/message_stream.hpp"
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
/// events run in the total order (time, kind, id) — releases before
/// router ticks at the same time, ids ascending — and every arbitration
/// tie-break is (priority desc, stream id asc).  Parallelism
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
  /// The per-stream constants a tick reads, flattened out of
  /// core::MessageStream.
  struct Flow {
    const topo::ChannelId* path = nullptr;
    Time length = 0;
    Priority priority = 0;
    std::int32_t hops = 0;
    std::int32_t inj_vc = -1;  ///< global injection VC; -1 when src == dst
    topo::NodeId src = topo::kNoNode;
  };
  /// A channel's endpoints, its position in its src router's outgoing
  /// list, and its wire slot (in_begin_[dst] + position in dst's
  /// incoming list).
  struct Link {
    topo::NodeId src = topo::kNoNode;
    topo::NodeId dst = topo::kNoNode;
    std::int32_t out_port = 0;
    std::int32_t in_slot = 0;
  };
  /// A header asking for a VC on `target` (allocate_vcs).
  struct Req {
    Priority pr;
    StreamId st;
    SrcRef ref;
    topo::ChannelId target;
  };
  /// The best flit so far for one output port (arbitrate_switch).
  struct Cand {
    bool valid = false;
    Priority pr = 0;
    StreamId st = 0;
    SrcRef ref;
  };

  // --- construction helpers ---
  void build_wiring();
  void build_vcs();
  void seed_releases();
  Time phase_of(StreamId s) const;

  // --- indexing ---
  InVc& in_vc(const SrcRef& ref) {
    return in_vcs_[static_cast<std::size_t>(vc_base_[static_cast<std::size_t>(ref.channel)] + ref.vc)];
  }
  const Flow& flow_of(std::int32_t packet) const {
    return flows_[static_cast<std::size_t>(
        pool_[static_cast<std::size_t>(packet)].stream)];
  }
  /// Global out-VC index for \p stream's lane on \p channel.
  std::int32_t out_vc_index(topo::ChannelId channel, StreamId stream) const;
  /// Priority of the packet an input or injection VC holds.
  Priority priority_of(const SrcRef& ref) const;
  /// Local index of a VC of \p channel that a header of stream \p s
  /// (priority \p pr) may take right now under the VC mode, or -1.
  std::int32_t free_out_vc(topo::ChannelId channel, Priority pr,
                           StreamId s) const;
  /// Queue a blocked header of stream \p s waits in for \p channel.
  std::vector<SrcRef>& waiters_of(topo::ChannelId channel, StreamId s);
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
  /// Marks router \p n in a tick bitset (due_ or next_); a second mark
  /// in the same cycle is a no-op.
  static void wake(std::vector<std::uint64_t>& ticks, topo::NodeId n) {
    ticks[static_cast<std::size_t>(n) >> 6] |= std::uint64_t{1} << (n & 63);
  }
  void tick_next(topo::NodeId n) { wake(next_, n); }
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
  std::vector<Flow> flows_;  // per stream

  // Wiring, flattened from the channel graph at construction: router n's
  // outgoing channels are out_ch_[out_begin_[n], out_begin_[n + 1]) in
  // the graph's order, its incoming ones in_ch_[in_begin_[n], ...).
  std::vector<Link> links_;  // per channel
  std::vector<std::int32_t> out_begin_;
  std::vector<topo::ChannelId> out_ch_;
  std::vector<std::int32_t> in_begin_;
  std::vector<topo::ChannelId> in_ch_;

  // VC layout: channel c's VC group occupies indices
  // [vc_base_[c], vc_base_[c] + vc_count_[c]) of in_vcs_ and out_vcs_.
  std::vector<std::int32_t> vc_base_;
  std::vector<std::int32_t> vc_count_;
  /// kPerStreamLane: per channel, sorted ids of the streams crossing it
  /// (lane index = rank).  Unused in the other modes.
  std::vector<std::vector<StreamId>> lanes_;
  /// kLiVc: per channel, the local VC index round-robin arbitration
  /// serves first.
  std::vector<std::int32_t> rr_;

  std::vector<InVc> in_vcs_;
  std::vector<OutVc> out_vcs_;
  /// Per out VC, the FCFS headers waiting for it.  In kLiVc and
  /// kThrottlePreempt modes a header may take any of several VCs, so VC
  /// 0's list is the whole channel's queue and the others stay empty.
  std::vector<std::vector<SrcRef>> waiters_;
  std::vector<InjVc> inj_vcs_;
  std::vector<Router> routers_;

  // The wires, indexed by arrival-time parity.  Everything sent at t
  // arrives at t + 1 and its receiver ticks then, so a wire holds at
  // most this cycle's and the next cycle's traffic.  A channel carries
  // one flit per cycle: wire_flits_[p][links_[c].in_slot] (packet -1 when
  // empty), with arriving_[p][n] counting router n's flits in flight.
  // Credits queue per receiving (src) router in send order.
  std::array<std::vector<WireFlit>, 2> wire_flits_;
  std::array<std::vector<std::int32_t>, 2> arriving_;
  std::array<std::vector<std::vector<WireCredit>>, 2> wire_credits_;

  // The event calendar.  Ticks only ever land at now_ (a release wakes
  // its source router) or now_ + 1 (every wire effect and every busy
  // re-tick), so two node bitsets hold them all: bit n of due_ = router
  // n ticks this cycle, of next_ = it ticks next cycle.  Releases wait in
  // a min-heap on (time, stream).
  std::vector<std::uint64_t> due_;
  std::vector<std::uint64_t> next_;
  std::vector<std::pair<Time, StreamId>> releases_;

  std::vector<Packet> pool_;
  std::vector<std::int32_t> free_;

  // Per-tick scratch, kept across ticks so a tick allocates nothing.
  std::vector<Req> reqs_;
  std::vector<Cand> best_;  // per output port of the ticking router

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
