#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.hpp"

/// \file flit_config.hpp
/// Configuration of the event-driven flit-level router simulator
/// (DESIGN.md §12): a network of router objects with per-input-port
/// virtual-channel buffers and credit-based flow control — buffer depth
/// is the first-class fidelity axis the buffer-aware successor analyses
/// reason about.

namespace wormrt::obs {
class Registry;
}

namespace wormrt::flitsim {

/// How virtual channels are provisioned on every link, and how headers
/// acquire them and flits share the physical channel.
enum class VcMode {
  /// The paper's Section 3 hardware: `num_vcs` VCs per input port, VC
  /// index == message priority.  Streams of equal priority share a VC
  /// (header FCFS), which adds blocking the analysis does not charge —
  /// kept for the hardware-fidelity ablations, not for soundness.
  kPerPriority,
  /// Li & Mutka's scheme: a header of priority p takes the highest free
  /// VC numbered <= p (waiting FIFO otherwise), and the VCs with a flit
  /// ready share the physical channel round-robin — priority improves
  /// the odds of getting a VC, not of keeping the channel.
  kLiVc,
  /// Classical wormhole switching: one VC per channel, FCFS header
  /// allocation, no preemption — exhibits the Fig. 2 priority inversion.
  /// `num_vcs` is ignored.
  kFcfs,
  /// One private lane per message stream on every channel it traverses.
  /// A header never waits for a VC held by another stream, so all
  /// interference is physical-channel (and node-port) bandwidth — the
  /// service model whose interference accounting matches Cal_U.  This is
  /// the oracle mode the flit soundness fuzz invariant runs.
  kPerStreamLane,
  /// Song, Kwon & Yoon's throttle-and-preempt flow control: `num_vcs`
  /// VCs not tied to priorities.  A header takes any free VC; when none
  /// is free, the worm of the lowest strictly-lower-priority holder is
  /// discarded network-wide and retransmits from its source, which is
  /// throttled to one message in flight.  The physical channel serves
  /// the highest-priority ready VC.
  kThrottlePreempt,
};

const char* to_string(VcMode mode);

struct FlitSimConfig {
  /// Injection window: messages are generated at phase + k*T_i in
  /// [0, duration).
  Time duration = 30000;
  /// Messages generated before this time are excluded from statistics.
  Time warmup = 2000;
  /// Extra cycles allowed past `duration` for in-flight worms to drain.
  Time drain_limit = 1 << 20;

  VcMode vc_mode = VcMode::kPerStreamLane;
  /// kPerPriority, kLiVc and kThrottlePreempt: VCs per input port; 0 =
  /// one per priority level present in the stream set.
  int num_vcs = 0;

  /// Flit buffer depth per VC at every input port — the credit count the
  /// upstream output port starts with.  Depth 1 is canonical wormhole:
  /// the 2-cycle credit round trip then caps each worm at one flit every
  /// other cycle per hop, a fidelity gap the analysis' lumped pipeline
  /// does not model (see DESIGN.md §12).  Depth >= 2 hides the round
  /// trip and restores full pipelining (h + C - 1 uncontended).
  int vc_buffer_depth = 4;

  /// When true, each stream's first release is offset by a random phase
  /// in [0, T_i) drawn from `phase_seed`.
  bool random_phase = false;
  std::uint64_t phase_seed = 1;
  /// Explicit per-stream release offsets; overrides random_phase when
  /// non-empty (must then have one entry per stream).
  std::vector<Time> explicit_phases;

  /// Record every delivery as (stream, generated, delivered).
  bool record_arrivals = false;

  /// Run the O(state) conservation/credit validator after every event —
  /// the property tests' teeth.  Throws std::logic_error on violation.
  /// Far too slow for big meshes; leave off outside tests.
  bool validate = false;

  /// Metrics sink: when non-null, the run's event/flit/VC-block totals
  /// are added to the `wormrt_flitsim_*` families of this registry and
  /// per-packet latencies are observed into a histogram.  Totals are
  /// applied once at the end of the run, so the hot loop stays free of
  /// atomics.
  obs::Registry* metrics = nullptr;

  /// Called synchronously for EVERY delivered message (warmup included).
  /// When unset and tracing is enabled, deliveries are exported to the
  /// Chrome trace path with the stream id as a virtual tid.
  std::function<void(StreamId stream, Time generated, Time delivered)>
      on_delivery;
};

}  // namespace wormrt::flitsim
