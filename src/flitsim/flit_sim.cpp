#include "flitsim/flit_sim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wormrt::flitsim {

const char* to_string(VcMode mode) {
  switch (mode) {
    case VcMode::kPerStreamLane:
      return "per-stream-lane";
    case VcMode::kPerPriority:
      return "per-priority";
    case VcMode::kLiVc:
      return "li-vc";
    case VcMode::kFcfs:
      return "fcfs";
    case VcMode::kThrottlePreempt:
      return "throttle-preempt";
  }
  return "?";
}

FlitSimulator::FlitSimulator(const topo::Topology& topo,
                             const core::StreamSet& streams,
                             FlitSimConfig config)
    : topo_(topo), streams_(streams), config_(std::move(config)) {
  depth_ = config_.vc_buffer_depth;
  if (depth_ < 1) {
    throw std::invalid_argument("FlitSimulator: vc_buffer_depth must be >= 1");
  }
  if (config_.vc_mode == VcMode::kFcfs) {
    num_vcs_ = 1;
  } else if (config_.vc_mode != VcMode::kPerStreamLane) {
    num_vcs_ = config_.num_vcs > 0
                   ? config_.num_vcs
                   : static_cast<int>(streams_.max_priority()) + 1;
  }
  if (config_.vc_mode == VcMode::kPerPriority) {
    for (const auto& st : streams_) {
      if (st.priority < 0 || st.priority >= num_vcs_) {
        throw std::invalid_argument(
            "FlitSimulator: stream priority " + std::to_string(st.priority) +
            " out of range for " + std::to_string(num_vcs_) +
            " per-priority VCs");
      }
    }
  }
  if (!config_.explicit_phases.empty() &&
      config_.explicit_phases.size() != streams_.size()) {
    throw std::invalid_argument(
        "FlitSimulator: explicit_phases must have one entry per stream");
  }
  for (const auto& st : streams_) {
    if (st.path.hops() == 0 && st.src != st.dst) {
      throw std::invalid_argument("FlitSimulator: stream " +
                                  std::to_string(st.id) + " has an empty path");
    }
    if (st.length < 1 || st.period < 1) {
      throw std::invalid_argument("FlitSimulator: stream " +
                                  std::to_string(st.id) +
                                  " has non-positive length or period");
    }
  }

  build_vcs();

  const auto num_channels = topo_.num_channels();
  wire_flits_.assign(num_channels, {});
  wire_credits_.assign(num_channels, {});
  routers_.resize(static_cast<std::size_t>(topo_.num_nodes()));
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    routers_[static_cast<std::size_t>(n)].node = n;
  }
  last_tick_push_.assign(static_cast<std::size_t>(topo_.num_nodes()), kNoTime);

  result_.per_stream.assign(streams_.size(), FlitStreamStats{});
  result_.flits_per_channel.assign(num_channels, 0);

  if (config_.metrics != nullptr) {
    latency_hist_ = &config_.metrics->histogram(
        "wormrt_flitsim_packet_latency_flits", 0.0, 4096.0, 64, {},
        "Flit-accurate message latency (generation to tail ejection)");
  }
}

void FlitSimulator::build_vcs() {
  const auto num_channels = topo_.num_channels();
  const auto num_nodes = static_cast<std::size_t>(topo_.num_nodes());
  vc_count_.assign(num_channels, 0);
  vc_base_.assign(num_channels, 0);
  inj_count_.assign(num_nodes, 0);
  inj_base_.assign(num_nodes, 0);

  const bool stream_lanes = config_.vc_mode == VcMode::kPerStreamLane;
  const bool stream_injection = config_.vc_mode != VcMode::kPerPriority;
  if (stream_lanes) lanes_.assign(num_channels, {});
  if (stream_injection) inj_lanes_.assign(num_nodes, {});
  // Streams iterate in ascending id order, so every lane list comes out
  // sorted — lane index lookups are binary searches.
  for (const auto& st : streams_) {
    if (stream_lanes) {
      for (topo::ChannelId c : st.path.channels) {
        lanes_[static_cast<std::size_t>(c)].push_back(st.id);
      }
    }
    if (stream_injection && st.path.hops() > 0) {
      inj_lanes_[static_cast<std::size_t>(st.src)].push_back(st.id);
    }
  }
  for (std::size_t c = 0; c < num_channels; ++c) {
    vc_count_[c] = stream_lanes ? static_cast<std::int32_t>(lanes_[c].size())
                                : num_vcs_;
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    inj_count_[n] = stream_injection
                        ? static_cast<std::int32_t>(inj_lanes_[n].size())
                        : num_vcs_;
  }
  if (config_.vc_mode == VcMode::kLiVc) rr_.assign(num_channels, 0);

  std::int32_t total = 0;
  for (std::size_t c = 0; c < num_channels; ++c) {
    vc_base_[c] = total;
    total += vc_count_[c];
  }
  std::int32_t inj_total = 0;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    inj_base_[n] = inj_total;
    inj_total += inj_count_[n];
  }

  in_vcs_.assign(static_cast<std::size_t>(total), InVc{});
  out_vcs_.assign(static_cast<std::size_t>(total), OutVc{});
  for (auto& ov : out_vcs_) ov.credits = depth_;
  inj_vcs_.assign(static_cast<std::size_t>(inj_total), InjVc{});
}

std::int32_t FlitSimulator::out_vc_index(topo::ChannelId channel,
                                         StreamId stream) const {
  const auto c = static_cast<std::size_t>(channel);
  if (config_.vc_mode == VcMode::kPerStreamLane) {
    const auto& lane = lanes_[c];
    const auto it = std::lower_bound(lane.begin(), lane.end(), stream);
    return vc_base_[c] + static_cast<std::int32_t>(it - lane.begin());
  }
  if (config_.vc_mode == VcMode::kFcfs) return vc_base_[c];
  return vc_base_[c] + streams_[stream].priority;
}

std::int32_t FlitSimulator::inj_vc_index(StreamId stream) const {
  const auto n = static_cast<std::size_t>(streams_[stream].src);
  if (config_.vc_mode != VcMode::kPerPriority) {
    const auto& lane = inj_lanes_[n];
    const auto it = std::lower_bound(lane.begin(), lane.end(), stream);
    return inj_base_[n] + static_cast<std::int32_t>(it - lane.begin());
  }
  return inj_base_[n] + streams_[stream].priority;
}

Priority FlitSimulator::priority_of(const SrcRef& ref) const {
  const std::int32_t packet =
      ref.injection()
          ? inj_vcs_[static_cast<std::size_t>(ref.vc)].packets.front()
          : in_vcs_[static_cast<std::size_t>(
                        vc_base_[static_cast<std::size_t>(ref.channel)] +
                        ref.vc)]
                .owner;
  return streams_[pool_[static_cast<std::size_t>(packet)].stream].priority;
}

std::int32_t FlitSimulator::free_out_vc(topo::ChannelId channel, Priority pr,
                                        StreamId s) const {
  const auto c = static_cast<std::size_t>(channel);
  const auto is_free = [&](std::int32_t v) {
    return out_vcs_[static_cast<std::size_t>(vc_base_[c] + v)].owner == -1;
  };
  switch (config_.vc_mode) {
    case VcMode::kLiVc:
      // The highest free VC numbered <= the header's priority.
      for (std::int32_t v = std::min<std::int32_t>(pr, vc_count_[c] - 1);
           v >= 0; --v) {
        if (is_free(v)) return v;
      }
      return -1;
    case VcMode::kThrottlePreempt:
      for (std::int32_t v = 0; v < vc_count_[c]; ++v) {
        if (is_free(v)) return v;
      }
      return -1;
    default: {
      const std::int32_t v = out_vc_index(channel, s) - vc_base_[c];
      return is_free(v) ? v : -1;
    }
  }
}

std::deque<SrcRef>& FlitSimulator::waiters_of(topo::ChannelId channel,
                                              StreamId s) {
  const std::int32_t global = shared_queue()
                                  ? vc_base_[static_cast<std::size_t>(channel)]
                                  : out_vc_index(channel, s);
  return out_vcs_[static_cast<std::size_t>(global)].waiters;
}

Time FlitSimulator::phase_of(StreamId s) const {
  if (!config_.explicit_phases.empty()) {
    return config_.explicit_phases[static_cast<std::size_t>(s)];
  }
  if (config_.random_phase) {
    util::Rng rng(config_.phase_seed, static_cast<std::uint64_t>(s));
    return rng.uniform_int(0, streams_[s].period - 1);
  }
  return 0;
}

void FlitSimulator::seed_releases() {
  for (const auto& st : streams_) {
    const Time phase = phase_of(st.id);
    if (phase < config_.duration) {
      events_.push(phase, EventKind::kRelease, st.id);
    }
  }
}

std::int32_t FlitSimulator::alloc_packet(StreamId s, Time generated) {
  if (!free_.empty()) {
    const std::int32_t id = free_.back();
    free_.pop_back();
    pool_[static_cast<std::size_t>(id)] = Packet{s, generated};
    return id;
  }
  pool_.push_back(Packet{s, generated});
  return static_cast<std::int32_t>(pool_.size()) - 1;
}

void FlitSimulator::schedule_tick(topo::NodeId n, Time t) {
  // Tick push times per router are non-decreasing (releases at now_, all
  // wire effects and reschedules at now_ + 1, and releases sort before
  // ticks), so remembering the last pushed time dedupes exactly.
  auto& last = last_tick_push_[static_cast<std::size_t>(n)];
  if (last == t) return;
  last = t;
  events_.push(t, EventKind::kTick, n);
}

void FlitSimulator::do_release(StreamId s) {
  const auto& st = streams_[s];
  if (now_ >= config_.warmup) {
    ++result_.per_stream[static_cast<std::size_t>(s)].generated;
  }
  if (st.path.hops() == 0) {
    // src == dst: no network traversal, the message only serialises
    // through the (otherwise unmodelled) local delivery interface.
    const std::int32_t pkt = alloc_packet(s, now_);
    result_.flits_injected += st.length;
    result_.flits_delivered += st.length;
    complete_packet(pkt, now_ + st.length - 1);
  } else {
    const std::int32_t pkt = alloc_packet(s, now_);
    const std::int32_t gi = inj_vc_index(s);
    InjVc& iv = inj_vcs_[static_cast<std::size_t>(gi)];
    if (iv.packets.empty()) {
      routers_[static_cast<std::size_t>(st.src)].inj_active.push_back(gi);
    }
    iv.packets.push_back(pkt);
    schedule_tick(st.src, now_);
  }
  const Time next = now_ + st.period;
  if (next < config_.duration) events_.push(next, EventKind::kRelease, s);
}

void FlitSimulator::drain_wires(Router& r) {
  for (topo::ChannelId c : topo_.channels().incoming(r.node)) {
    auto& q = wire_flits_[static_cast<std::size_t>(c)];
    while (!q.empty() && q.front().arrive <= now_) {
      const WireFlit wf = q.front();
      q.pop_front();
      InVc& vc = in_vcs_[static_cast<std::size_t>(vc_base_[static_cast<std::size_t>(c)] + wf.vc)];
      if (wf.flit == 0) {
        // Header claims the input VC.  Exclusivity is guaranteed by the
        // upstream OutVc: a new header is only sent after the previous
        // worm's tail drained and every credit returned.
        vc.owner = wf.packet;
        vc.hop = wf.hop;
        vc.buffered = 0;
        vc.first = 0;
        vc.out_vc = -1;
        vc.out_ch = topo::kNoChannel;
        vc.requested = false;
        r.active.push_back(SrcRef{c, wf.vc});
      }
      ++vc.buffered;
    }
  }
}

void FlitSimulator::drain_credits(Router& r) {
  for (topo::ChannelId c : topo_.channels().outgoing(r.node)) {
    auto& q = wire_credits_[static_cast<std::size_t>(c)];
    while (!q.empty() && q.front().arrive <= now_) {
      const std::int32_t v = q.front().vc;
      q.pop_front();
      OutVc& ov = out_vcs_[static_cast<std::size_t>(vc_base_[static_cast<std::size_t>(c)] + v)];
      ++ov.credits;
      if (ov.owner != -1 && ov.tail_sent && ov.credits == depth_) {
        release_out_vc(c, v);
      }
    }
  }
}

void FlitSimulator::release_out_vc(topo::ChannelId channel, std::int32_t vc) {
  const std::int32_t base = vc_base_[static_cast<std::size_t>(channel)];
  OutVc& out = out_vcs_[static_cast<std::size_t>(base + vc)];
  out.owner = -1;
  out.tail_sent = false;
  out.src = SrcRef{};
  std::deque<SrcRef>& queue =
      shared_queue() ? out_vcs_[static_cast<std::size_t>(base)].waiters
                     : out.waiters;
  auto next = queue.begin();
  if (config_.vc_mode == VcMode::kLiVc) {
    // First in line among the headers allowed onto VC `vc` (priority >= vc).
    next = std::find_if(queue.begin(), queue.end(), [&](const SrcRef& w) {
      return priority_of(w) >= vc;
    });
  } else if (config_.vc_mode == VcMode::kThrottlePreempt) {
    // Highest priority first, FIFO among equals.
    next = std::max_element(queue.begin(), queue.end(),
                            [&](const SrcRef& a, const SrcRef& b) {
                              return priority_of(a) < priority_of(b);
                            });
  }
  if (next != queue.end()) {
    const SrcRef who = *next;
    queue.erase(next);
    grant(channel, vc, who, /*waited=*/true);
  }
}

void FlitSimulator::grant(topo::ChannelId channel, std::int32_t vc,
                          const SrcRef& who, bool waited) {
  const std::int32_t global = vc_base_[static_cast<std::size_t>(channel)] + vc;
  OutVc& out = out_vcs_[static_cast<std::size_t>(global)];
  std::int32_t pkt = -1;
  Time blocked = 0;
  if (who.injection()) {
    InjVc& iv = inj_vcs_[static_cast<std::size_t>(who.vc)];
    pkt = iv.packets.front();
    iv.out_vc = global;
    iv.out_ch = channel;
    iv.requested = false;
    if (waited) blocked = now_ - iv.wait_since;
  } else {
    InVc& src = in_vc(who);
    pkt = src.owner;
    src.out_vc = global;
    src.out_ch = channel;
    src.requested = false;
    if (waited) blocked = now_ - src.wait_since;
  }
  out.owner = pkt;
  out.src = who;
  out.tail_sent = false;
  if (blocked > 0) {
    const StreamId s = pool_[static_cast<std::size_t>(pkt)].stream;
    result_.per_stream[static_cast<std::size_t>(s)].vc_block_cycles += blocked;
    result_.vc_block_cycles += blocked;
  }
}

void FlitSimulator::eject_one(Router& r) {
  // One ejection port per node: among resident worms whose current
  // channel is their last hop, deliver one flit of the highest-priority
  // one (ties to the lowest stream id — the analysis' convention).
  std::size_t best = r.active.size();
  Priority best_pr = 0;
  StreamId best_st = 0;
  for (std::size_t i = 0; i < r.active.size(); ++i) {
    const InVc& vc = in_vc(r.active[i]);
    if (vc.buffered == 0) continue;
    const auto& st = streams_[pool_[static_cast<std::size_t>(vc.owner)].stream];
    if (vc.hop != st.path.hops() - 1) continue;
    if (best == r.active.size() || st.priority > best_pr ||
        (st.priority == best_pr && st.id < best_st)) {
      best = i;
      best_pr = st.priority;
      best_st = st.id;
    }
  }
  if (best == r.active.size()) return;

  const SrcRef ref = r.active[best];
  InVc& vc = in_vc(ref);
  const Time flit = vc.first++;
  --vc.buffered;
  send_credit(ref.channel, ref.vc);
  ++result_.flits_delivered;
  --flits_in_network_;
  const std::int32_t pkt = vc.owner;
  const auto& st = streams_[pool_[static_cast<std::size_t>(pkt)].stream];
  if (flit == st.length - 1) {
    complete_packet(pkt, now_);
    vc.owner = -1;
    vc.out_vc = -1;
    vc.out_ch = topo::kNoChannel;
    deactivate_transit(r, ref);
  }
}

void FlitSimulator::allocate_vcs(Router& r) {
  struct Req {
    Priority pr;
    StreamId st;
    SrcRef ref;
    topo::ChannelId target;
  };
  std::vector<Req> reqs;
  for (const SrcRef& ref : r.active) {
    const InVc& vc = in_vc(ref);
    if (vc.out_vc != -1 || vc.requested) continue;
    if (vc.buffered == 0 || vc.first != 0) continue;  // header not at front
    const auto& st = streams_[pool_[static_cast<std::size_t>(vc.owner)].stream];
    if (vc.hop + 1 >= st.path.hops()) continue;  // last hop ejects instead
    reqs.push_back(Req{st.priority, st.id, ref,
                       st.path.channels[static_cast<std::size_t>(vc.hop) + 1]});
  }
  for (std::int32_t gi : r.inj_active) {
    const InjVc& iv = inj_vcs_[static_cast<std::size_t>(gi)];
    // sent != 0 without an out VC: a throttled source's message is still
    // in flight.
    if (iv.packets.empty() || iv.out_vc != -1 || iv.requested ||
        iv.sent != 0) {
      continue;
    }
    const auto& st =
        streams_[pool_[static_cast<std::size_t>(iv.packets.front())].stream];
    reqs.push_back(
        Req{st.priority, st.id, SrcRef{topo::kNoChannel, gi}, st.path.channels[0]});
  }
  // Strict total order: priority desc, stream asc, then source identity —
  // the last key only breaks ties between a stream's transit worm and a
  // queued successor message at the same (source) router.
  std::sort(reqs.begin(), reqs.end(), [](const Req& a, const Req& b) {
    if (a.pr != b.pr) return a.pr > b.pr;
    if (a.st != b.st) return a.st < b.st;
    if (a.ref.channel != b.ref.channel) return a.ref.channel < b.ref.channel;
    return a.ref.vc < b.ref.vc;
  });
  for (const Req& req : reqs) {
    const std::int32_t local = free_out_vc(req.target, req.pr, req.st);
    if (local != -1) {
      grant(req.target, local, req.ref, /*waited=*/false);
      continue;
    }
    waiters_of(req.target, req.st).push_back(req.ref);
    if (req.ref.injection()) {
      InjVc& iv = inj_vcs_[static_cast<std::size_t>(req.ref.vc)];
      iv.requested = true;
      iv.wait_since = now_;
    } else {
      InVc& vc = in_vc(req.ref);
      vc.requested = true;
      vc.wait_since = now_;
    }
    if (config_.vc_mode == VcMode::kThrottlePreempt) {
      preempt_below(req.target, req.pr);
    }
  }
}

void FlitSimulator::preempt_below(topo::ChannelId channel, Priority pr) {
  // A holder whose tail already crossed frees the VC by itself (and its
  // owner id may already be recycled), so it is never a victim.
  const auto c = static_cast<std::size_t>(channel);
  std::int32_t victim = -1;
  Priority lowest = pr;
  for (std::int32_t v = 0; v < vc_count_[c]; ++v) {
    const OutVc& out = out_vcs_[static_cast<std::size_t>(vc_base_[c] + v)];
    if (out.owner == -1 || out.tail_sent) continue;
    const Priority p =
        streams_[pool_[static_cast<std::size_t>(out.owner)].stream].priority;
    if (p < lowest) {
      lowest = p;
      victim = out.owner;
    }
  }
  // The freed VC goes to the highest-priority waiter: the requester, since
  // every waiter ranks at or below every holder it could not displace.
  if (victim != -1) discard(victim);
}

void FlitSimulator::discard(std::int32_t packet) {
  const auto& st = streams_[pool_[static_cast<std::size_t>(packet)].stream];
  const auto& path = st.path.channels;
  const std::int32_t gi = inj_vc_index(st.id);
  InjVc& iv = inj_vcs_[static_cast<std::size_t>(gi)];
  const auto withdraw = [&](topo::ChannelId channel, const SrcRef& ref) {
    auto& queue = waiters_of(channel, st.id);
    queue.erase(std::find(queue.begin(), queue.end(), ref));
  };
  if (iv.requested) withdraw(path[0], SrcRef{topo::kNoChannel, gi});
  result_.flits_dropped += iv.sent;
  ++result_.retransmissions;
  iv.sent = 0;
  iv.out_vc = -1;
  iv.out_ch = topo::kNoChannel;
  iv.requested = false;

  // Hop by hop: the worm's flits on the wire and in the downstream buffer
  // vanish and their credits return at once; its input VC is cleared and
  // its upstream out VC frees as soon as older credits are home.
  for (std::size_t h = 0; h < path.size(); ++h) {
    const topo::ChannelId c = path[h];
    const auto base = vc_base_[static_cast<std::size_t>(c)];
    auto& wire = wire_flits_[static_cast<std::size_t>(c)];
    for (std::int32_t v = 0; v < vc_count_[static_cast<std::size_t>(c)]; ++v) {
      OutVc& out = out_vcs_[static_cast<std::size_t>(base + v)];
      if (out.owner != packet) continue;
      InVc& in = in_vcs_[static_cast<std::size_t>(base + v)];
      int removed = 0;
      if (in.owner == packet) {
        if (h + 1 == path.size()) {
          // The receiver drops the partially delivered message.
          result_.flits_delivered -= in.first;
        }
        if (in.requested) withdraw(path[h + 1], SrcRef{c, v});
        removed = in.buffered;
        in = InVc{};
        deactivate_transit(
            routers_[static_cast<std::size_t>(topo_.channels().channel(c).dst)],
            SrcRef{c, v});
      }
      const auto kept =
          std::remove_if(wire.begin(), wire.end(), [&](const WireFlit& wf) {
            return wf.packet == packet && wf.vc == v;
          });
      removed += static_cast<int>(wire.end() - kept);
      wire.erase(kept, wire.end());
      flits_in_network_ -= removed;
      out.credits += removed;
      out.tail_sent = true;
      if (out.credits == depth_) release_out_vc(c, v);
    }
  }
  schedule_tick(st.src, now_ + 1);
}

std::int32_t FlitSimulator::pick_injection(Router& r) {
  // One injection port per node: the local sources present at most one
  // flit per cycle to the crossbar, highest priority first.
  std::int32_t best = -1;
  Priority best_pr = 0;
  StreamId best_st = 0;
  for (std::int32_t gi : r.inj_active) {
    const InjVc& iv = inj_vcs_[static_cast<std::size_t>(gi)];
    if (iv.packets.empty() || iv.out_vc == -1) continue;
    if (out_vcs_[static_cast<std::size_t>(iv.out_vc)].credits <= 0) continue;
    const auto& st =
        streams_[pool_[static_cast<std::size_t>(iv.packets.front())].stream];
    if (best == -1 || st.priority > best_pr ||
        (st.priority == best_pr && st.id < best_st)) {
      best = gi;
      best_pr = st.priority;
      best_st = st.id;
    }
  }
  return best;
}

void FlitSimulator::arbitrate_switch(Router& r, std::int32_t inj_candidate) {
  const auto& outs = topo_.channels().outgoing(r.node);
  if (outs.empty() && inj_candidate == -1) return;
  struct Cand {
    bool valid = false;
    Priority pr = 0;
    StreamId st = 0;
    SrcRef ref;
  };
  std::vector<Cand> best(outs.size());
  const auto slot = [&outs](topo::ChannelId c) -> std::size_t {
    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (outs[i] == c) return i;
    }
    return outs.size();
  };
  const auto consider = [](Cand& cur, Priority pr, StreamId st,
                           const SrcRef& ref) {
    if (!cur.valid || pr > cur.pr || (pr == cur.pr && st < cur.st)) {
      cur = Cand{true, pr, st, ref};
    }
  };
  // Li & Mutka's VCs share the channel round-robin: the rank is the
  // distance behind the channel's pointer, not the priority.
  const auto rank = [this](Priority pr, std::int32_t out_vc,
                           topo::ChannelId ch) -> Priority {
    if (config_.vc_mode != VcMode::kLiVc) return pr;
    const auto c = static_cast<std::size_t>(ch);
    return -((out_vc - vc_base_[c] - rr_[c] + vc_count_[c]) % vc_count_[c]);
  };
  for (const SrcRef& ref : r.active) {
    const InVc& vc = in_vc(ref);
    if (vc.out_vc == -1 || vc.buffered == 0) continue;
    if (out_vcs_[static_cast<std::size_t>(vc.out_vc)].credits <= 0) continue;
    const auto& st = streams_[pool_[static_cast<std::size_t>(vc.owner)].stream];
    consider(best[slot(vc.out_ch)], rank(st.priority, vc.out_vc, vc.out_ch),
             st.id, ref);
  }
  if (inj_candidate != -1) {
    const InjVc& iv = inj_vcs_[static_cast<std::size_t>(inj_candidate)];
    const auto& st =
        streams_[pool_[static_cast<std::size_t>(iv.packets.front())].stream];
    consider(best[slot(iv.out_ch)], rank(st.priority, iv.out_vc, iv.out_ch),
             st.id, SrcRef{topo::kNoChannel, inj_candidate});
  }
  // Winners hold disjoint source VCs (each source feeds exactly one out
  // channel), so applying them in channel order is order-insensitive.
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (best[i].valid) forward_flit(r, outs[i], best[i].ref);
  }
}

void FlitSimulator::forward_flit(Router& r, topo::ChannelId channel,
                                 const SrcRef& src) {
  std::int32_t out_global = -1;
  Time flit = 0;
  int next_hop = 0;
  if (src.injection()) {
    InjVc& iv = inj_vcs_[static_cast<std::size_t>(src.vc)];
    out_global = iv.out_vc;
    flit = iv.sent++;
    next_hop = 0;
    ++result_.flits_injected;
    ++flits_in_network_;
  } else {
    InVc& vc = in_vc(src);
    out_global = vc.out_vc;
    flit = vc.first++;
    --vc.buffered;
    next_hop = vc.hop + 1;
    send_credit(src.channel, src.vc);
  }
  OutVc& out = out_vcs_[static_cast<std::size_t>(out_global)];
  --out.credits;
  const std::int32_t local =
      out_global - vc_base_[static_cast<std::size_t>(channel)];
  const std::int32_t pkt = out.owner;
  const auto& st = streams_[pool_[static_cast<std::size_t>(pkt)].stream];
  wire_flits_[static_cast<std::size_t>(channel)].push_back(
      WireFlit{now_ + 1, pkt, flit, local, next_hop});
  ++result_.flits_per_channel[static_cast<std::size_t>(channel)];
  schedule_tick(topo_.channels().channel(channel).dst, now_ + 1);
  if (config_.vc_mode == VcMode::kLiVc) {
    rr_[static_cast<std::size_t>(channel)] =
        (local + 1) % vc_count_[static_cast<std::size_t>(channel)];
  }
  if (flit == st.length - 1) {
    // Tail leaves this router: the upstream VC is done (the downstream
    // OutVc frees itself once its credits refill).
    out.tail_sent = true;
    if (src.injection()) {
      InjVc& iv = inj_vcs_[static_cast<std::size_t>(src.vc)];
      iv.out_vc = -1;
      iv.out_ch = topo::kNoChannel;
      // A throttled source keeps the message queued until it is
      // delivered: a preemption may still send it back.
      if (config_.vc_mode != VcMode::kThrottlePreempt) {
        iv.packets.pop_front();
        iv.sent = 0;
        if (iv.packets.empty()) deactivate_injection(r, src.vc);
      }
    } else {
      InVc& vc = in_vc(src);
      vc.owner = -1;
      vc.out_vc = -1;
      vc.out_ch = topo::kNoChannel;
      deactivate_transit(r, src);
    }
  }
}

void FlitSimulator::send_credit(topo::ChannelId channel, std::int32_t vc) {
  wire_credits_[static_cast<std::size_t>(channel)].push_back(
      WireCredit{now_ + 1, vc});
  schedule_tick(topo_.channels().channel(channel).src, now_ + 1);
}

void FlitSimulator::complete_packet(std::int32_t packet, Time delivered) {
  const Packet p = pool_[static_cast<std::size_t>(packet)];
  FlitStreamStats& ss = result_.per_stream[static_cast<std::size_t>(p.stream)];
  const Time latency = delivered - p.generated;
  if (p.generated >= config_.warmup) {
    ++ss.completed;
    ss.latency.add(static_cast<double>(latency));
    if (ss.worst == kNoTime || latency > ss.worst) ss.worst = latency;
  }
  if (config_.record_arrivals) {
    result_.arrivals.push_back(FlitArrival{p.stream, p.generated, delivered});
  }
  if (config_.on_delivery) {
    config_.on_delivery(p.stream, p.generated, delivered);
  } else if (obs::Tracer::enabled()) {
    obs::Tracer::record_complete("flit_delivery", p.generated, latency,
                                 static_cast<unsigned>(p.stream) + 1);
  }
  if (latency_hist_ != nullptr) {
    latency_hist_->observe(static_cast<double>(latency));
  }
  const auto& st = streams_[p.stream];
  if (config_.vc_mode == VcMode::kThrottlePreempt && st.path.hops() > 0) {
    // Delivered at last: the throttled source may start its next message.
    const std::int32_t gi = inj_vc_index(p.stream);
    InjVc& iv = inj_vcs_[static_cast<std::size_t>(gi)];
    iv.packets.pop_front();
    iv.sent = 0;
    if (iv.packets.empty()) {
      deactivate_injection(routers_[static_cast<std::size_t>(st.src)], gi);
    }
  }
  free_.push_back(packet);
}

void FlitSimulator::deactivate_transit(Router& r, const SrcRef& ref) {
  for (std::size_t i = 0; i < r.active.size(); ++i) {
    if (r.active[i] == ref) {
      r.active[i] = r.active.back();
      r.active.pop_back();
      return;
    }
  }
}

void FlitSimulator::deactivate_injection(Router& r, std::int32_t global_inj) {
  for (std::size_t i = 0; i < r.inj_active.size(); ++i) {
    if (r.inj_active[i] == global_inj) {
      r.inj_active[i] = r.inj_active.back();
      r.inj_active.pop_back();
      return;
    }
  }
}

void FlitSimulator::do_tick(topo::NodeId n) {
  Router& r = routers_[static_cast<std::size_t>(n)];
  drain_wires(r);
  drain_credits(r);
  eject_one(r);
  allocate_vcs(r);
  const std::int32_t inj_candidate = pick_injection(r);
  arbitrate_switch(r, inj_candidate);

  // Keep ticking while local state can still make progress on its own.
  // Work gated on remote effects (wire arrivals, returning credits) is
  // woken by the sender's schedule_tick, so idle routers cost nothing.
  bool busy = false;
  for (const SrcRef& ref : r.active) {
    if (in_vc(ref).buffered > 0) {
      busy = true;
      break;
    }
  }
  if (!busy) {
    for (std::int32_t gi : r.inj_active) {
      if (!inj_vcs_[static_cast<std::size_t>(gi)].packets.empty()) {
        busy = true;
        break;
      }
    }
  }
  if (busy) schedule_tick(n, now_ + 1);
}

FlitSimResult FlitSimulator::run() {
  OBS_SPAN("flitsim_run");
  if (used_) {
    throw std::logic_error("FlitSimulator::run: simulator already consumed");
  }
  used_ = true;
  seed_releases();
  bool overran = false;
  while (!events_.empty()) {
    const Event e = events_.pop();
    if (e.time > config_.duration + config_.drain_limit) {
      overran = true;  // worms still in flight past the drain budget
      break;
    }
    now_ = e.time;
    ++result_.events_processed;
    if (e.kind == EventKind::kRelease) {
      do_release(e.id);
    } else {
      do_tick(e.id);
    }
    if (config_.validate) validate_state();
  }
  result_.cycles_run = now_;
  result_.drained = !overran && flits_in_network_ == 0;
  if (result_.drained) check_quiescent();
  apply_metrics();
  return std::move(result_);
}

void FlitSimulator::validate_state() const {
  const auto fail = [this](const std::string& what) {
    throw std::logic_error("flitsim invariant violated at t=" +
                           std::to_string(now_) + ": " + what);
  };
  std::int64_t resident = 0;
  for (std::size_t c = 0; c < topo_.num_channels(); ++c) {
    for (std::int32_t v = 0; v < vc_count_[c]; ++v) {
      const auto idx = static_cast<std::size_t>(vc_base_[c] + v);
      const InVc& iv = in_vcs_[idx];
      const OutVc& ov = out_vcs_[idx];
      if (iv.buffered < 0 || iv.buffered > depth_) {
        fail("buffer occupancy " + std::to_string(iv.buffered) +
             " outside [0, depth] on channel " + std::to_string(c));
      }
      if (ov.credits < 0 || ov.credits > depth_) {
        fail("credit count " + std::to_string(ov.credits) +
             " outside [0, depth] on channel " + std::to_string(c));
      }
      std::int64_t in_flight = 0;
      for (const WireFlit& wf : wire_flits_[c]) {
        if (wf.vc == v) ++in_flight;
      }
      std::int64_t returning = 0;
      for (const WireCredit& wc : wire_credits_[c]) {
        if (wc.vc == v) ++returning;
      }
      if (ov.credits + iv.buffered + in_flight + returning != depth_) {
        fail("credit conservation broken on channel " + std::to_string(c) +
             " vc " + std::to_string(v) + ": credits " +
             std::to_string(ov.credits) + " + buffered " +
             std::to_string(iv.buffered) + " + wire " +
             std::to_string(in_flight) + " + returning " +
             std::to_string(returning) + " != depth " + std::to_string(depth_));
      }
      resident += iv.buffered + in_flight;
    }
  }
  if (resident != flits_in_network_) {
    fail("flit conservation broken: injected - delivered = " +
         std::to_string(flits_in_network_) + " but " +
         std::to_string(resident) + " flits are resident");
  }
}

void FlitSimulator::check_quiescent() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("flitsim failed to quiesce: " + what);
  };
  for (std::size_t i = 0; i < in_vcs_.size(); ++i) {
    if (in_vcs_[i].owner != -1) {
      fail("input VC still owned after drain");
    }
    const OutVc& ov = out_vcs_[i];
    if (ov.owner != -1) fail("output VC not released by tail");
    if (ov.credits != depth_) fail("credits not fully returned");
    if (!ov.waiters.empty()) fail("allocation waiters left behind");
  }
  for (const InjVc& iv : inj_vcs_) {
    if (!iv.packets.empty()) fail("undelivered packets at an injection VC");
  }
  for (const Router& r : routers_) {
    if (!r.active.empty() || !r.inj_active.empty()) {
      fail("router still has active VCs");
    }
  }
}

void FlitSimulator::apply_metrics() {
  if (config_.metrics == nullptr) return;
  obs::Registry& m = *config_.metrics;
  m.counter("wormrt_flitsim_runs_total", {},
            "Flit-level simulation runs completed")
      .inc();
  m.counter("wormrt_flitsim_events_total", {},
            "Events processed by the flit simulator")
      .inc(static_cast<std::uint64_t>(result_.events_processed));
  m.counter("wormrt_flitsim_flits_injected_total", {},
            "Flits injected at source nodes")
      .inc(static_cast<std::uint64_t>(result_.flits_injected));
  m.counter("wormrt_flitsim_flits_delivered_total", {},
            "Flits consumed at destination nodes")
      .inc(static_cast<std::uint64_t>(result_.flits_delivered));
  m.counter("wormrt_flitsim_vc_block_cycles_total", {},
            "Cycles headers spent waiting for VC allocation")
      .inc(static_cast<std::uint64_t>(result_.vc_block_cycles));
}

std::vector<FlitSimResult> run_replications(const topo::Topology& topo,
                                            const core::StreamSet& streams,
                                            const FlitSimConfig& config,
                                            int replications,
                                            int num_threads) {
  std::vector<FlitSimResult> results(
      static_cast<std::size_t>(replications < 0 ? 0 : replications));
  util::parallel_for(results.size(), num_threads, [&](std::size_t rep) {
    FlitSimConfig c = config;
    if (rep > 0) {
      c.random_phase = true;
      c.phase_seed = config.phase_seed * 1000003ull + rep;
    }
    FlitSimulator sim(topo, streams, std::move(c));
    results[rep] = sim.run();
  });
  return results;
}

}  // namespace wormrt::flitsim
