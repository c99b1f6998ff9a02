#include "core/admission.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"

namespace wormrt::core {

bool flit_valid(Time bound, Time period) {
  return bound != kNoTime && bound + 2 <= period;
}

// A new AnalysisConfig field must feed the fingerprint and
// kContractSettings, unless it changes no result, like num_threads.
static_assert(sizeof(AnalysisConfig) == 40, "update contract_fingerprint");

std::uint64_t contract_fingerprint(const topo::Topology& topology,
                                   const AnalysisConfig& c) {
  const auto u = [](auto v) { return static_cast<std::uint64_t>(v); };
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a, as the topology's
  for (const std::uint64_t v :
       {topology.fingerprint(), u(c.vc_buffer_depth), u(c.credit_slack_guard),
        u(c.ejection_port_overlap), u(c.injection_port_overlap),
        u(c.same_priority_blocks), u(c.carry_over), u(c.relaxation),
        u(c.horizon), u(c.horizon_cap)}) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xff)) * 1099511628211ull;
    }
  }
  return h;
}

AdmissionController::AdmissionController(topo::Topology& topo,
                                         const route::RoutingAlgorithm& routing,
                                         AnalysisConfig config, Mode mode)
    : topo_(topo),
      routing_(routing),
      engine_(topo, config),
      gate_([guard = config.credit_slack_guard](const MessageStream& s,
                                                 Time bound) {
        return bound != kNoTime && bound <= s.deadline &&
               (!guard || flit_valid(bound, s.period));
      }) {
  engine_.set_force_full(mode == Mode::kFullRecompute);
}

AdmissionController::Decision AdmissionController::request(
    topo::NodeId src, topo::NodeId dst, Priority priority, Time period,
    Time length, Time deadline) {
  return request(src, dst, priority, period, length, deadline, nullptr);
}

AdmissionController::Decision AdmissionController::request(
    topo::NodeId src, topo::NodeId dst, Priority priority, Time period,
    Time length, Time deadline, BoundProvenance* provenance) {
  OBS_SPAN("admission_request");
  Decision decision;
  route::FaultAwarePath choice;
  if (!route::route_avoiding_faults(topo_, src, dst, &choice)) {
    decision.no_route = true;
    if (provenance != nullptr) {
      *provenance = BoundProvenance{};
      provenance->deadline = deadline;
      provenance->deadline_pruned = true;
    }
    return decision;  // every route order crosses a faulted link
  }
  decision.route_order = choice.route_order;
  MessageStream candidate =
      make_stream_with_order(topo_, /*id=*/0, src, dst, priority, period,
                             length, deadline, choice.route_order);
  if (candidate.latency > candidate.deadline) {
    if (provenance != nullptr) {
      // No trial happens; report the short-circuit itself.
      *provenance = BoundProvenance{};
      provenance->deadline = candidate.deadline;
      provenance->base_latency = candidate.latency;
      provenance->deadline_pruned = true;
    }
    return decision;  // trivially impossible, nothing else to blame
  }

  // Trial add: the engine recomputes the newcomer's bound plus exactly
  // the established streams the newcomer can delay (its dirty closure).
  // Everyone else provably keeps both its bound and its guarantee.  One
  // failing stream rejects the request, so a plain request stops there;
  // an explained one runs to the end to name every victim.
  const IncrementalAnalyzer::Mutation trial = engine_.add_stream(
      std::move(candidate), /*forced_handle=*/-1,
      provenance == nullptr ? gate_ : IncrementalAnalyzer::Gate{});
  decision.bound = *engine_.bound(trial.handle);
  decision.flit_valid = flit_valid(decision.bound, period);
  bool ok = trial.broken < 0;
  if (provenance == nullptr) {
    if (!ok && trial.broken != trial.handle) {
      decision.would_break.push_back(trial.broken);
    }
  } else {
    // Captured while the trial population is still in place: the terms
    // blame the HP streams of the (possibly rejected) trial set.
    *provenance = *engine_.explain(trial.handle);
    ok = gate_(*engine_.find(trial.handle), decision.bound);
    for (const Handle h : trial.dirty) {
      if (!gate_(*engine_.find(h), *engine_.bound(h))) {
        decision.would_break.push_back(h);
        ok = false;
      }
    }
  }
  if (!ok) {
    // Roll the trial back exactly: the engine drops the appended stream
    // and writes back the dirty closure's pre-trial bounds, with no
    // second recompute.  The trial handle is released too: a rejected
    // request must leave no trace, so the handle sequence is a pure
    // function of the admitted mutations — the property journal recovery
    // relies on.
    engine_.undo_add(trial.handle);
    engine_.set_next_handle(trial.handle);
    return decision;
  }

  decision.admitted = true;
  decision.handle = trial.handle;
  return decision;
}

bool AdmissionController::remove(Handle handle) {
  return engine_.remove_stream(handle).has_value();
}

AdmissionController::LinkMutation AdmissionController::link_down(
    topo::ChannelId channel) {
  OBS_SPAN("admission_link_down");
  LinkMutation m;
  m.channel = channel;
  if (topo_.channel_faulted(channel)) {
    return m;  // already down; nothing to do, nothing to replay
  }
  m.changed = true;
  topo_.set_channel_faulted(channel, true);

  // Channel-level dirtiness: the victims come straight off the engine's
  // overlap index, ascending handles so replay processes them in the
  // same order.
  const std::vector<Handle> victims = engine_.handles_on_channel(channel);
  std::vector<MessageStream> params;
  params.reserve(victims.size());
  engine_.begin_batch();
  for (const Handle h : victims) {
    params.push_back(*engine_.find(h));
    engine_.remove_stream(h);
  }
  // One recompute for the union of the victims' dirty closures.
  m.recomputed = engine_.end_batch();

  // Re-admit each victim on the first fault-free route order that passes
  // the full admission gate, keeping its original handle.  A forced
  // handle below next_handle() never perturbs the handle sequence, so a
  // failed trial rolls back with the engine's exact undo alone.
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const Handle h = victims[i];
    const MessageStream& old = params[i];
    route::FaultAwarePath choice;
    if (!route::route_avoiding_faults(topo_, old.src, old.dst, &choice)) {
      m.evicted.push_back(h);
      continue;
    }
    MessageStream candidate = make_stream_with_order(
        topo_, /*id=*/0, old.src, old.dst, old.priority, old.period,
        old.length, old.deadline, choice.route_order);
    if (candidate.latency > candidate.deadline) {
      m.evicted.push_back(h);
      continue;
    }
    const IncrementalAnalyzer::Mutation trial =
        engine_.add_stream(std::move(candidate), h, gate_);
    if (trial.broken >= 0) {
      engine_.undo_add(h);
      m.evicted.push_back(h);
      continue;
    }
    m.rerouted.push_back(h);
    m.recomputed.insert(m.recomputed.end(), trial.dirty.begin(),
                        trial.dirty.end());
  }

  // Tidy the recompute report: ascending, deduplicated, survivors only.
  std::sort(m.recomputed.begin(), m.recomputed.end());
  m.recomputed.erase(std::unique(m.recomputed.begin(), m.recomputed.end()),
                     m.recomputed.end());
  m.recomputed.erase(
      std::remove_if(m.recomputed.begin(), m.recomputed.end(),
                     [this](Handle h) { return engine_.find(h) == nullptr; }),
      m.recomputed.end());
  return m;
}

AdmissionController::LinkMutation AdmissionController::link_up(
    topo::ChannelId channel) {
  OBS_SPAN("admission_link_up");
  LinkMutation m;
  m.channel = channel;
  if (!topo_.channel_faulted(channel)) {
    return m;  // already up
  }
  m.changed = true;
  topo_.set_channel_faulted(channel, false);
  // Established streams keep their detour paths: their bounds are still
  // valid (the healthy channel only *adds* routing options), and silently
  // migrating them would change interference under their guarantees.
  return m;
}

void AdmissionController::restore(topo::NodeId src, topo::NodeId dst,
                                  Priority priority, Time period, Time length,
                                  Time deadline, Handle handle,
                                  int route_order, StreamId position) {
  MessageStream stream = make_stream_with_order(
      topo_, /*id=*/0, src, dst, priority, period, length, deadline,
      route_order);
  if (position == kNoStream ||
      static_cast<std::size_t>(position) >= engine_.size()) {
    engine_.add_stream(std::move(stream), handle);
    return;
  }
  // Lift from the back (no id shifts), then re-add in engine order.
  std::vector<std::pair<Handle, MessageStream>> lifted;
  while (engine_.size() > static_cast<std::size_t>(position)) {
    const auto last = static_cast<StreamId>(engine_.size() - 1);
    lifted.emplace_back(engine_.handle_of(last), engine_.streams()[last]);
    engine_.remove_stream(lifted.back().first);
  }
  engine_.add_stream(std::move(stream), handle);
  for (auto it = lifted.rbegin(); it != lifted.rend(); ++it) {
    engine_.add_stream(std::move(it->second), it->first);
  }
}

void AdmissionController::unadmit(Handle handle) {
  assert(handle == engine_.next_handle() - 1 &&
         "unadmit only reverses the most recent admission");
  engine_.remove_stream(handle);
  engine_.set_next_handle(handle);
}

std::optional<Time> AdmissionController::bound_of(Handle handle) const {
  return engine_.bound(handle);
}

}  // namespace wormrt::core
