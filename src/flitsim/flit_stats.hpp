#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/types.hpp"

/// \file flit_stats.hpp
/// Measurement output of one event-driven flit-level simulation run.

namespace wormrt::flitsim {

/// Per-stream transmission-delay statistics (generation to tail
/// ejection, flit times) over messages generated at or after warmup.
struct FlitStreamStats {
  util::StreamingStats latency;
  /// Worst observed generation-to-delivery delay (kNoTime when no
  /// message of the stream completed inside the measurement window).
  Time worst = kNoTime;
  std::int64_t generated = 0;
  std::int64_t completed = 0;
  /// Cycles this stream's headers spent waiting for a VC grant, summed
  /// over all hops and messages (0 in per-stream-lane mode unless two
  /// instances of the same stream chase each other).
  Time vc_block_cycles = 0;
};

struct FlitArrival {
  StreamId stream = kNoStream;
  Time generated = 0;
  Time delivered = 0;
};

struct FlitSimResult {
  std::vector<FlitStreamStats> per_stream;

  /// Flits pushed out of the injection ports / consumed by the ejection
  /// ports.  After a clean drain the two are equal (flit conservation:
  /// injected == delivered + dropped + in-flight, and in-flight is zero).
  std::int64_t flits_injected = 0;
  std::int64_t flits_delivered = 0;

  /// kThrottlePreempt only: preempted worms' flits (wire, buffered, and
  /// partially delivered ones the receiver discards) and the
  /// whole-message retransmissions they cost.
  std::int64_t flits_dropped = 0;
  std::int64_t retransmissions = 0;

  /// Simulation events processed (releases + router cycles) — the
  /// denominator of the BM_FlitSim events/sec throughput metric.
  std::int64_t events_processed = 0;

  /// Flits transmitted per directed physical channel; divided by
  /// cycles_run this is the link's utilization.
  std::vector<std::int64_t> flits_per_channel;
  /// Total header wait-for-VC time across all streams.
  Time vc_block_cycles = 0;

  Time cycles_run = 0;
  /// False when the drain limit expired with worms still in flight.
  bool drained = false;

  std::vector<FlitArrival> arrivals;
};

/// Renders the \p top_n busiest channels of a run as "src -> dst: N flits
/// (util U)" lines (hotspot diagnosis); \p endpoints_of maps a channel
/// index to its (src, dst) labels.
template <typename EndpointsOf>
std::string render_hot_channels(const FlitSimResult& result,
                                EndpointsOf&& endpoints_of,
                                std::size_t top_n = 10) {
  const auto& flits = result.flits_per_channel;
  std::vector<std::size_t> order(flits.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return flits[a] > flits[b];
                   });
  std::string out;
  const double cycles =
      static_cast<double>(result.cycles_run > 0 ? result.cycles_run : 1);
  for (std::size_t i = 0; i < order.size() && i < top_n; ++i) {
    const std::int64_t n = flits[order[i]];
    if (n == 0) {
      break;
    }
    const auto [src, dst] = endpoints_of(order[i]);
    out += src + " -> " + dst + ": " + std::to_string(n) + " flits (util " +
           std::to_string(static_cast<double>(n) / cycles).substr(0, 5) +
           ")\n";
  }
  return out;
}

}  // namespace wormrt::flitsim
