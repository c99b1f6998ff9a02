#include "flitsim/flit_sim.hpp"

#include <algorithm>
#include <bit>
#include <functional>
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

  build_wiring();
  build_vcs();

  routers_.resize(static_cast<std::size_t>(topo_.num_nodes()));
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    routers_[static_cast<std::size_t>(n)].node = n;
  }

  result_.per_stream.assign(streams_.size(), FlitStreamStats{});
  result_.flits_per_channel.assign(topo_.num_channels(), 0);

  if (config_.metrics != nullptr) {
    latency_hist_ = &config_.metrics->histogram(
        "wormrt_flitsim_packet_latency_flits", 0.0, 4096.0, 64, {},
        "Flit-accurate message latency (generation to tail ejection)");
  }
}

void FlitSimulator::build_wiring() {
  const topo::ChannelGraph& graph = topo_.channels();
  const auto num_nodes = static_cast<std::size_t>(topo_.num_nodes());
  links_.assign(topo_.num_channels(), Link{});
  out_begin_.assign(num_nodes + 1, 0);
  in_begin_.assign(num_nodes + 1, 0);
  std::size_t max_out = 0;
  for (topo::NodeId n = 0; n < topo_.num_nodes(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    const auto& outs = graph.outgoing(n);
    out_begin_[i] = static_cast<std::int32_t>(out_ch_.size());
    for (std::size_t port = 0; port < outs.size(); ++port) {
      Link& link = links_[static_cast<std::size_t>(outs[port])];
      link.src = n;
      link.out_port = static_cast<std::int32_t>(port);
      out_ch_.push_back(outs[port]);
    }
    max_out = std::max(max_out, outs.size());
    in_begin_[i] = static_cast<std::int32_t>(in_ch_.size());
    for (const topo::ChannelId c : graph.incoming(n)) {
      Link& link = links_[static_cast<std::size_t>(c)];
      link.dst = n;
      link.in_slot = static_cast<std::int32_t>(in_ch_.size());
      in_ch_.push_back(c);
    }
  }
  out_begin_[num_nodes] = static_cast<std::int32_t>(out_ch_.size());
  in_begin_[num_nodes] = static_cast<std::int32_t>(in_ch_.size());
  best_.resize(max_out);

  for (std::size_t p = 0; p < 2; ++p) {
    wire_flits_[p].assign(in_ch_.size(), WireFlit{});
    arriving_[p].assign(num_nodes, 0);
    wire_credits_[p].assign(num_nodes, {});
  }
  due_.assign((num_nodes + 63) / 64, 0);
  next_.assign(due_.size(), 0);
}

void FlitSimulator::build_vcs() {
  const auto num_channels = topo_.num_channels();
  const auto num_nodes = static_cast<std::size_t>(topo_.num_nodes());
  vc_count_.assign(num_channels, 0);
  vc_base_.assign(num_channels, 0);
  // Injection VCs: node n's occupy [inj_base[n], inj_base[n] +
  // inj_count[n]) of inj_vcs_.
  std::vector<std::int32_t> inj_count(num_nodes, 0);
  std::vector<std::int32_t> inj_base(num_nodes, 0);

  const bool stream_lanes = config_.vc_mode == VcMode::kPerStreamLane;
  const bool stream_injection = config_.vc_mode != VcMode::kPerPriority;
  if (stream_lanes) lanes_.assign(num_channels, {});
  // Every mode but kPerPriority: per node, sorted ids of locally sourced
  // streams — each stream has its own injection queue.
  std::vector<std::vector<StreamId>> inj_lanes(stream_injection ? num_nodes
                                                                : 0);
  // Streams iterate in ascending id order, so every lane list comes out
  // sorted — lane index lookups are binary searches.
  for (const auto& st : streams_) {
    if (stream_lanes) {
      for (topo::ChannelId c : st.path.channels) {
        lanes_[static_cast<std::size_t>(c)].push_back(st.id);
      }
    }
    if (stream_injection && st.path.hops() > 0) {
      inj_lanes[static_cast<std::size_t>(st.src)].push_back(st.id);
    }
  }
  for (std::size_t c = 0; c < num_channels; ++c) {
    vc_count_[c] = stream_lanes ? static_cast<std::int32_t>(lanes_[c].size())
                                : num_vcs_;
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    inj_count[n] = stream_injection
                        ? static_cast<std::int32_t>(inj_lanes[n].size())
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
    inj_base[n] = inj_total;
    inj_total += inj_count[n];
  }

  in_vcs_.assign(static_cast<std::size_t>(total), InVc{});
  out_vcs_.assign(static_cast<std::size_t>(total), OutVc{});
  for (auto& ov : out_vcs_) ov.credits = depth_;
  waiters_.assign(static_cast<std::size_t>(total), {});
  inj_vcs_.assign(static_cast<std::size_t>(inj_total), InjVc{});

  flows_.resize(streams_.size());
  for (const auto& st : streams_) {
    Flow& f = flows_[static_cast<std::size_t>(st.id)];
    f.path = st.path.channels.data();
    f.length = st.length;
    f.priority = st.priority;
    f.hops = st.path.hops();
    f.src = st.src;
    if (f.hops == 0) continue;
    const auto n = static_cast<std::size_t>(st.src);
    if (stream_injection) {
      const auto& lane = inj_lanes[n];
      f.inj_vc = inj_base[n] + static_cast<std::int32_t>(
                                    std::lower_bound(lane.begin(), lane.end(),
                                                     st.id) -
                                    lane.begin());
    } else {
      f.inj_vc = inj_base[n] + st.priority;
    }
  }
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
  return vc_base_[c] + flows_[static_cast<std::size_t>(stream)].priority;
}

Priority FlitSimulator::priority_of(const SrcRef& ref) const {
  const std::int32_t packet =
      ref.injection()
          ? inj_vcs_[static_cast<std::size_t>(ref.vc)].packets.front()
          : in_vcs_[static_cast<std::size_t>(
                        vc_base_[static_cast<std::size_t>(ref.channel)] +
                        ref.vc)]
                .owner;
  return flow_of(packet).priority;
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

std::vector<SrcRef>& FlitSimulator::waiters_of(topo::ChannelId channel,
                                              StreamId s) {
  const std::int32_t global = shared_queue()
                                  ? vc_base_[static_cast<std::size_t>(channel)]
                                  : out_vc_index(channel, s);
  return waiters_[static_cast<std::size_t>(global)];
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
    if (phase < config_.duration) releases_.emplace_back(phase, st.id);
  }
  std::make_heap(releases_.begin(), releases_.end(), std::greater<>());
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
    const std::int32_t gi = flows_[static_cast<std::size_t>(s)].inj_vc;
    InjVc& iv = inj_vcs_[static_cast<std::size_t>(gi)];
    if (iv.packets.empty()) {
      routers_[static_cast<std::size_t>(st.src)].inj_active.push_back(gi);
    }
    iv.packets.push_back(pkt);
    // The source router ticks this cycle, after the remaining releases.
    wake(due_, st.src);
  }
  const Time next = now_ + st.period;
  if (next < config_.duration) {
    releases_.emplace_back(next, s);
    std::push_heap(releases_.begin(), releases_.end(), std::greater<>());
  }
}

void FlitSimulator::drain_wires(Router& r) {
  // Incoming channels in the graph's order: a header's position in
  // r.active decides the rare ties between two worms of one stream.
  const auto p = static_cast<std::size_t>(now_ & 1);
  const auto node = static_cast<std::size_t>(r.node);
  std::int32_t& pending = arriving_[p][node];
  auto& wires = wire_flits_[p];
  for (auto k = static_cast<std::size_t>(in_begin_[node]); pending > 0; ++k) {
    WireFlit& wf = wires[k];
    if (wf.packet == -1) continue;
    --pending;
    const topo::ChannelId c = in_ch_[k];
    InVc& vc = in_vcs_[static_cast<std::size_t>(vc_base_[static_cast<std::size_t>(c)] + wf.vc)];
    if (wf.flit == 0) {
      // Header claims the input VC.  Exclusivity is guaranteed by the
      // upstream OutVc: a new header is only sent after the previous
      // worm's tail drained and every credit returned.
      vc.owner = wf.packet;
      vc.stream = pool_[static_cast<std::size_t>(wf.packet)].stream;
      vc.priority = flows_[static_cast<std::size_t>(vc.stream)].priority;
      vc.hop = wf.hop;
      vc.buffered = 0;
      vc.first = 0;
      vc.out_vc = -1;
      vc.requested = false;
      r.active.push_back(SrcRef{c, wf.vc});
    }
    ++vc.buffered;
    ++r.buffered;
    wf.packet = -1;
  }
}

void FlitSimulator::drain_credits(Router& r) {
  // Send order.  Credits of different channels touch disjoint VCs and
  // waiter queues, so only the per-channel order (FIFO) is observable.
  auto& inbox = wire_credits_[static_cast<std::size_t>(now_ & 1)]
                             [static_cast<std::size_t>(r.node)];
  for (const WireCredit& wc : inbox) {
    OutVc& ov = out_vcs_[static_cast<std::size_t>(vc_base_[static_cast<std::size_t>(wc.channel)] + wc.vc)];
    ++ov.credits;
    if (ov.owner != -1 && ov.tail_sent && ov.credits == depth_) {
      release_out_vc(wc.channel, wc.vc);
    }
  }
  inbox.clear();
}

void FlitSimulator::release_out_vc(topo::ChannelId channel, std::int32_t vc) {
  const std::int32_t base = vc_base_[static_cast<std::size_t>(channel)];
  OutVc& out = out_vcs_[static_cast<std::size_t>(base + vc)];
  out.owner = -1;
  out.tail_sent = false;
  out.src = SrcRef{};
  std::vector<SrcRef>& queue =
      waiters_[static_cast<std::size_t>(shared_queue() ? base : base + vc)];
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
    iv.out_port = links_[static_cast<std::size_t>(channel)].out_port;
    iv.requested = false;
    if (waited) blocked = now_ - iv.wait_since;
  } else {
    InVc& src = in_vc(who);
    pkt = src.owner;
    src.out_vc = global;
    src.out_port = links_[static_cast<std::size_t>(channel)].out_port;
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
    if (vc.hop != flows_[static_cast<std::size_t>(vc.stream)].hops - 1) continue;
    if (best == r.active.size() || vc.priority > best_pr ||
        (vc.priority == best_pr && vc.stream < best_st)) {
      best = i;
      best_pr = vc.priority;
      best_st = vc.stream;
    }
  }
  if (best == r.active.size()) return;

  const SrcRef ref = r.active[best];
  InVc& vc = in_vc(ref);
  const Time flit = vc.first++;
  --vc.buffered;
  --r.buffered;
  send_credit(ref.channel, ref.vc);
  ++result_.flits_delivered;
  --flits_in_network_;
  const std::int32_t pkt = vc.owner;
  if (flit == flows_[static_cast<std::size_t>(vc.stream)].length - 1) {
    complete_packet(pkt, now_);
    vc.owner = -1;
    vc.out_vc = -1;
    deactivate_transit(r, ref);
  }
}

void FlitSimulator::allocate_vcs(Router& r) {
  std::vector<Req>& reqs = reqs_;
  reqs.clear();
  for (const SrcRef& ref : r.active) {
    const InVc& vc = in_vc(ref);
    if (vc.out_vc != -1 || vc.requested) continue;
    if (vc.buffered == 0 || vc.first != 0) continue;  // header not at front
    const Flow& f = flows_[static_cast<std::size_t>(vc.stream)];
    if (vc.hop + 1 >= f.hops) continue;  // last hop ejects instead
    reqs.push_back(Req{vc.priority, vc.stream, ref, f.path[vc.hop + 1]});
  }
  for (std::int32_t gi : r.inj_active) {
    const InjVc& iv = inj_vcs_[static_cast<std::size_t>(gi)];
    // sent != 0 without an out VC: a throttled source's message is still
    // in flight.
    if (iv.packets.empty() || iv.out_vc != -1 || iv.requested ||
        iv.sent != 0) {
      continue;
    }
    const StreamId s = pool_[static_cast<std::size_t>(iv.packets.front())].stream;
    const Flow& f = flows_[static_cast<std::size_t>(s)];
    reqs.push_back(Req{f.priority, s, SrcRef{topo::kNoChannel, gi}, f.path[0]});
  }
  if (reqs.empty()) return;
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
    const Priority p = flow_of(out.owner).priority;
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
  const StreamId s = pool_[static_cast<std::size_t>(packet)].stream;
  const Flow& f = flows_[static_cast<std::size_t>(s)];
  const auto hops = static_cast<std::size_t>(f.hops);
  const topo::ChannelId* path = f.path;
  const std::int32_t gi = f.inj_vc;
  InjVc& iv = inj_vcs_[static_cast<std::size_t>(gi)];
  const auto withdraw = [&](topo::ChannelId channel, const SrcRef& ref) {
    auto& queue = waiters_of(channel, s);
    queue.erase(std::find(queue.begin(), queue.end(), ref));
  };
  if (iv.requested) withdraw(path[0], SrcRef{topo::kNoChannel, gi});
  result_.flits_dropped += iv.sent;
  ++result_.retransmissions;
  iv.sent = 0;
  iv.out_vc = -1;
  iv.requested = false;

  // Hop by hop: the worm's flits on the wire and in the downstream buffer
  // vanish and their credits return at once; its input VC is cleared and
  // its upstream out VC frees as soon as older credits are home.
  for (std::size_t h = 0; h < hops; ++h) {
    const topo::ChannelId c = path[h];
    const auto base = vc_base_[static_cast<std::size_t>(c)];
    const Link& link = links_[static_cast<std::size_t>(c)];
    for (std::int32_t v = 0; v < vc_count_[static_cast<std::size_t>(c)]; ++v) {
      OutVc& out = out_vcs_[static_cast<std::size_t>(base + v)];
      if (out.owner != packet) continue;
      InVc& in = in_vcs_[static_cast<std::size_t>(base + v)];
      int removed = 0;
      if (in.owner == packet) {
        if (h + 1 == hops) {
          // The receiver drops the partially delivered message.
          result_.flits_delivered -= in.first;
        }
        if (in.requested) withdraw(path[h + 1], SrcRef{c, v});
        removed = in.buffered;
        routers_[static_cast<std::size_t>(link.dst)].buffered -= in.buffered;
        in = InVc{};
        deactivate_transit(routers_[static_cast<std::size_t>(link.dst)],
                           SrcRef{c, v});
      }
      for (std::size_t p = 0; p < 2; ++p) {
        WireFlit& wf = wire_flits_[p][static_cast<std::size_t>(link.in_slot)];
        if (wf.packet == packet && wf.vc == v) {
          wf.packet = -1;
          --arriving_[p][static_cast<std::size_t>(link.dst)];
          ++removed;
        }
      }
      flits_in_network_ -= removed;
      out.credits += removed;
      out.tail_sent = true;
      if (out.credits == depth_) release_out_vc(c, v);
    }
  }
  tick_next(f.src);
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
    const StreamId s = pool_[static_cast<std::size_t>(iv.packets.front())].stream;
    const Priority pr = flows_[static_cast<std::size_t>(s)].priority;
    if (best == -1 || pr > best_pr || (pr == best_pr && s < best_st)) {
      best = gi;
      best_pr = pr;
      best_st = s;
    }
  }
  return best;
}

void FlitSimulator::arbitrate_switch(Router& r, std::int32_t inj_candidate) {
  const auto node = static_cast<std::size_t>(r.node);
  const auto ports = static_cast<std::size_t>(out_begin_[node + 1] - out_begin_[node]);
  if (ports == 0) return;
  for (std::size_t i = 0; i < ports; ++i) best_[i].valid = false;
  const auto consider = [this](std::int32_t port, Priority pr, StreamId st,
                               const SrcRef& ref) {
    Cand& cur = best_[static_cast<std::size_t>(port)];
    if (!cur.valid || pr > cur.pr || (pr == cur.pr && st < cur.st)) {
      cur = Cand{true, pr, st, ref};
    }
  };
  // Li & Mutka's VCs share the channel round-robin: the rank is the
  // distance behind the channel's pointer, not the priority.
  const topo::ChannelId* outs = out_ch_.data() + out_begin_[node];
  const auto rank = [this, outs](Priority pr, std::int32_t out_vc,
                                 std::int32_t port) -> Priority {
    if (config_.vc_mode != VcMode::kLiVc) return pr;
    const auto c = static_cast<std::size_t>(outs[port]);
    return -((out_vc - vc_base_[c] - rr_[c] + vc_count_[c]) % vc_count_[c]);
  };
  for (const SrcRef& ref : r.active) {
    const InVc& vc = in_vc(ref);
    if (vc.out_vc == -1 || vc.buffered == 0) continue;
    if (out_vcs_[static_cast<std::size_t>(vc.out_vc)].credits <= 0) continue;
    consider(vc.out_port, rank(vc.priority, vc.out_vc, vc.out_port),
             vc.stream, ref);
  }
  if (inj_candidate != -1) {
    const InjVc& iv = inj_vcs_[static_cast<std::size_t>(inj_candidate)];
    const StreamId s = pool_[static_cast<std::size_t>(iv.packets.front())].stream;
    consider(iv.out_port,
             rank(flows_[static_cast<std::size_t>(s)].priority, iv.out_vc,
                  iv.out_port),
             s, SrcRef{topo::kNoChannel, inj_candidate});
  }
  // Winners hold disjoint source VCs (each source feeds exactly one out
  // channel).  They move in port order, which also orders the credits
  // two VCs of one input channel send back in the same cycle.
  for (std::size_t i = 0; i < ports; ++i) {
    if (best_[i].valid) forward_flit(r, outs[i], best_[i].ref);
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
    --r.buffered;
    next_hop = vc.hop + 1;
    send_credit(src.channel, src.vc);
  }
  OutVc& out = out_vcs_[static_cast<std::size_t>(out_global)];
  --out.credits;
  const std::int32_t local =
      out_global - vc_base_[static_cast<std::size_t>(channel)];
  const std::int32_t pkt = out.owner;
  const Link& link = links_[static_cast<std::size_t>(channel)];
  const auto p = static_cast<std::size_t>((now_ + 1) & 1);
  wire_flits_[p][static_cast<std::size_t>(link.in_slot)] =
      WireFlit{pkt, local, flit, next_hop};
  ++arriving_[p][static_cast<std::size_t>(link.dst)];
  ++result_.flits_per_channel[static_cast<std::size_t>(channel)];
  tick_next(link.dst);
  if (config_.vc_mode == VcMode::kLiVc) {
    rr_[static_cast<std::size_t>(channel)] =
        (local + 1) % vc_count_[static_cast<std::size_t>(channel)];
  }
  if (flit == flow_of(pkt).length - 1) {
    // Tail leaves this router: the upstream VC is done (the downstream
    // OutVc frees itself once its credits refill).
    out.tail_sent = true;
    if (src.injection()) {
      InjVc& iv = inj_vcs_[static_cast<std::size_t>(src.vc)];
      iv.out_vc = -1;
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
      deactivate_transit(r, src);
    }
  }
}

void FlitSimulator::send_credit(topo::ChannelId channel, std::int32_t vc) {
  const topo::NodeId src = links_[static_cast<std::size_t>(channel)].src;
  wire_credits_[static_cast<std::size_t>((now_ + 1) & 1)]
               [static_cast<std::size_t>(src)]
                   .push_back(WireCredit{channel, vc});
  tick_next(src);
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
  const Flow& f = flows_[static_cast<std::size_t>(p.stream)];
  if (config_.vc_mode == VcMode::kThrottlePreempt && f.hops > 0) {
    // Delivered at last: the throttled source may start its next message.
    InjVc& iv = inj_vcs_[static_cast<std::size_t>(f.inj_vc)];
    iv.packets.pop_front();
    iv.sent = 0;
    if (iv.packets.empty()) {
      deactivate_injection(routers_[static_cast<std::size_t>(f.src)], f.inj_vc);
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

  // Keep ticking while local state can still make progress on its own:
  // flits resident here or packets queued at a source (inj_active holds
  // exactly the injection VCs with queued packets).  Work gated on remote
  // effects (wire arrivals, returning credits) is woken by the sender
  // (tick_next), so idle routers cost nothing.
  if (r.buffered > 0 || !r.inj_active.empty()) tick_next(n);
}

FlitSimResult FlitSimulator::run() {
  OBS_SPAN("flitsim_run");
  if (used_) {
    throw std::logic_error("FlitSimulator::run: simulator already consumed");
  }
  used_ = true;
  seed_releases();
  const Time horizon = config_.duration + config_.drain_limit;
  bool overran = false;
  for (;;) {
    // The next event time: next cycle while any router ticks then, else
    // the earliest release.
    Time t = kNoTime;
    if (std::any_of(next_.begin(), next_.end(),
                    [](std::uint64_t w) { return w != 0; })) {
      t = now_ + 1;
    } else if (!releases_.empty()) {
      t = releases_.front().first;
    } else {
      break;
    }
    if (t > horizon) {
      overran = true;  // worms still in flight past the drain budget
      break;
    }
    now_ = t;
    due_.swap(next_);
    // Releases first, streams ascending (they may wake routers this
    // cycle), then ticks, routers ascending.
    while (!releases_.empty() && releases_.front().first == now_) {
      std::pop_heap(releases_.begin(), releases_.end(), std::greater<>());
      const StreamId s = releases_.back().second;
      releases_.pop_back();
      ++result_.events_processed;
      do_release(s);
      if (config_.validate) validate_state();
    }
    for (std::size_t w = 0; w < due_.size(); ++w) {
      for (std::uint64_t bits = std::exchange(due_[w], 0); bits != 0;
           bits &= bits - 1) {
        ++result_.events_processed;
        do_tick(static_cast<topo::NodeId>(w * 64 + static_cast<std::size_t>(
                                                       std::countr_zero(bits))));
        if (config_.validate) validate_state();
      }
    }
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
      const Link& link = links_[c];
      std::int64_t in_flight = 0;
      std::int64_t returning = 0;
      for (std::size_t p = 0; p < 2; ++p) {
        const WireFlit& wf =
            wire_flits_[p][static_cast<std::size_t>(link.in_slot)];
        if (wf.packet != -1 && wf.vc == v) ++in_flight;
        for (const WireCredit& wc :
             wire_credits_[p][static_cast<std::size_t>(link.src)]) {
          if (wc.channel == static_cast<topo::ChannelId>(c) && wc.vc == v) {
            ++returning;
          }
        }
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
  for (const Router& r : routers_) {
    std::int64_t buffered = 0;
    for (const SrcRef& ref : r.active) {
      buffered += in_vcs_[static_cast<std::size_t>(
                              vc_base_[static_cast<std::size_t>(ref.channel)] +
                              ref.vc)]
                      .buffered;
    }
    if (buffered != r.buffered) {
      fail("router " + std::to_string(r.node) + " counts " +
           std::to_string(r.buffered) + " resident flits, its VCs hold " +
           std::to_string(buffered));
    }
    for (const std::int32_t gi : r.inj_active) {
      if (inj_vcs_[static_cast<std::size_t>(gi)].packets.empty()) {
        fail("empty injection VC listed active at router " +
             std::to_string(r.node));
      }
    }
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
    if (!waiters_[i].empty()) fail("allocation waiters left behind");
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
