#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "topo/coord.hpp"
#include "util/types.hpp"

/// \file router.hpp
/// Per-router state of the flit-level simulator: virtual-channel buffers
/// at the input ports, credit counters at the output ports, and the wires
/// between them.
///
/// Ownership convention: the input VCs of channel c live at c's dst
/// router; the matching OutVc — the upstream bookkeeping for that same
/// buffer (owner, remaining credits, allocation queue) — lives at c's src
/// router.  A router therefore arbitrates with purely local state: its
/// input buffers tell it what wants to move, its output credit counters
/// tell it what may.

namespace wormrt::flitsim {

/// Identifies the VC feeding an output VC: a transit input VC
/// (channel >= 0, vc = index within that channel's VC group) or a local
/// injection VC (channel == kNoChannel, vc = global injection VC index).
struct SrcRef {
  std::int32_t channel = topo::kNoChannel;
  std::int32_t vc = 0;

  bool injection() const { return channel == topo::kNoChannel; }
  bool operator==(const SrcRef& o) const {
    return channel == o.channel && vc == o.vc;
  }
};

/// One virtual-channel flit buffer at an input port.  Flits are not
/// materialised: the buffer holds flit indices [first, first + buffered)
/// of the owning packet — wormhole FIFO order makes the pair sufficient.
struct InVc {
  std::int32_t owner = -1;  ///< packet pool index, -1 when free
  StreamId stream = kNoStream;  ///< the owner's stream and priority,
  Priority priority = 0;        ///< cached when its header arrives
  int buffered = 0;         ///< flits currently resident (<= depth)
  Time first = 0;           ///< flit index of the buffer's front flit
  int hop = 0;              ///< position of this channel in the owner's path
  std::int32_t out_vc = -1;  ///< allocated downstream VC (global), -1 if none
  std::int32_t out_port = 0;  ///< its channel's position at this router
  bool requested = false;   ///< header is enqueued on a busy out VC
  Time wait_since = 0;      ///< when the pending request was enqueued
};

/// Upstream view of one downstream input VC: who holds it, how many
/// buffer slots remain (credits), and which VC here feeds it.  The
/// headers queued to get it next are kept apart (FlitSimulator::waiters_)
/// so the state every tick reads stays small.
struct OutVc {
  std::int32_t owner = -1;  ///< packet pool index, -1 when free
  int credits = 0;          ///< free slots in the downstream buffer
  bool tail_sent = false;   ///< tail forwarded; release when credits refill
  SrcRef src;               ///< VC at this router feeding the channel
};

/// One injection-side virtual channel at a node: a FIFO of locally
/// generated packets.  The source always has every flit of the front
/// packet available (messages are fully formed at release); `sent` plays
/// the role of InVc::first.
struct InjVc {
  std::deque<std::int32_t> packets;  ///< packet pool indices, FIFO
  Time sent = 0;                     ///< flits of the front packet injected
  std::int32_t out_vc = -1;
  std::int32_t out_port = 0;
  bool requested = false;
  Time wait_since = 0;
};

/// A flit on a physical channel's wire; it arrives at the channel's dst
/// router one cycle after it was sent.  packet == -1 marks an empty wire.
struct WireFlit {
  std::int32_t packet = -1;
  std::int32_t vc = 0;  ///< destination VC within the channel's group
  Time flit = 0;        ///< flit index within the packet (0 = header)
  int hop = 0;          ///< position of this channel in the packet's path
};

/// A credit returning upstream on `channel` (one freed slot of input VC
/// `vc`); it arrives at the channel's src router one cycle after it was
/// sent.
struct WireCredit {
  topo::ChannelId channel = topo::kNoChannel;
  std::int32_t vc = 0;
};

/// Per-router bookkeeping: which local VCs currently hold worms, so a
/// tick touches only live state instead of scanning every buffer.
struct Router {
  topo::NodeId node = topo::kNoNode;
  /// Transit input VCs with an owner (SrcRef::channel >= 0).
  std::vector<SrcRef> active;
  /// Flits resident in those VCs (the sum of their `buffered`).
  std::int64_t buffered = 0;
  /// Global indices of injection VCs with queued packets.
  std::vector<std::int32_t> inj_active;
};

}  // namespace wormrt::flitsim
