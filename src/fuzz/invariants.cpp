#include "fuzz/invariants.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "core/admission.hpp"
#include "core/feasibility.hpp"
#include "core/incremental.hpp"
#include "core/message_stream.hpp"
#include "flitsim/flit_sim.hpp"
#include "obs/conformance.hpp"
#include "obs/metrics.hpp"
#include "route/dor.hpp"
#include "svc/journal.hpp"
#include "svc/replication.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/fault_injector.hpp"
#include "util/rng.hpp"

namespace wormrt::fuzz {

namespace {

using core::AdmissionController;
using core::AnalysisConfig;
using core::StreamSet;
using svc::Json;

/// Substream id of the monotonicity probe draw (0..2 are generation's).
constexpr std::uint64_t kProbeStream = 3;
/// Substream id of the recovery check's draws (crash point, torn-write
/// size, tail mutilation, post-recovery probe).
constexpr std::uint64_t kRecoveryStream = 4;
/// Substream id of the replication check's draws (pull cadence, follower
/// crashes, buffer sizing, the post-promotion probe).
constexpr std::uint64_t kReplicationStream = 5;

std::optional<Violation> fail(const char* invariant, std::string detail) {
  return Violation{invariant, std::move(detail)};
}

/// From-scratch per-stream bounds: the independent oracle the cached /
/// incremental bounds are compared against.
std::vector<Time> bounds_of(const StreamSet& streams,
                            const AnalysisConfig& config) {
  const core::FeasibilityReport report =
      core::determine_feasibility(streams, config);
  std::vector<Time> bounds(report.streams.size(), kNoTime);
  for (std::size_t j = 0; j < report.streams.size(); ++j) {
    bounds[j] = report.streams[j].bound;
  }
  return bounds;
}

/// kNoTime means "not reached within the deadline" — rank it above every
/// finite bound so "never improves" comparisons order correctly.
Time rank(Time bound) { return bound == kNoTime ? kTimeMax : bound; }

std::string describe_stream(const core::MessageStream& s) {
  return "stream(src=" + std::to_string(s.src) +
         " dst=" + std::to_string(s.dst) +
         " P=" + std::to_string(s.priority) +
         " T=" + std::to_string(s.period) + " C=" + std::to_string(s.length) +
         " D=" + std::to_string(s.deadline) + ")";
}

/// Who diff_engines() names in its messages: the invariant, the engine
/// under test ("recovered", "follower"), its reference ("oracle",
/// "primary"), and a suffix locating the comparison.
struct EngineNames {
  const char* invariant;
  const char* got;
  const char* want;
  std::string where;
};

/// The journaled-state equality the recovery and replication oracles
/// both require of \p got against \p want: population, next handle,
/// handle numbering, bounds (\p skew added to the reference — the
/// replication detection proof), parameters, routes and fault flags.
/// The first difference is the violation.
std::optional<Violation> diff_engines(const AdmissionController& want,
                                      const AdmissionController& got,
                                      const EngineNames& names, Time skew) {
  const core::IncrementalAnalyzer& w = want.engine();
  const core::IncrementalAnalyzer& g = got.engine();
  const std::string who = names.got;
  const std::string vs = std::string(" != ") + names.want + " ";
  const auto differ = [&names](const std::string& detail) {
    return fail(names.invariant, detail + names.where);
  };
  if (w.size() != g.size()) {
    return differ(who + " population " + std::to_string(g.size()) + vs +
                  std::to_string(w.size()));
  }
  if (want.next_handle() != got.next_handle()) {
    return differ(who + " next handle " + std::to_string(got.next_handle()) +
                  vs + std::to_string(want.next_handle()));
  }
  for (std::size_t j = 0; j < w.size(); ++j) {
    const auto id = static_cast<StreamId>(j);
    const std::string stream = std::to_string(j);
    if (w.handle_of(id) != g.handle_of(id)) {
      return differ("handle numbering diverged at stream " + stream + ": " +
                    who + " " + std::to_string(g.handle_of(id)) + vs +
                    std::to_string(w.handle_of(id)));
    }
    const Time want_bound = w.bound_at(id) + skew;
    if (g.bound_at(id) != want_bound) {
      return differ(who + " bound " + std::to_string(g.bound_at(id)) + vs +
                    std::to_string(want_bound) + " for stream " + stream);
    }
    const core::MessageStream& sw = w.streams()[id];
    const core::MessageStream& sg = g.streams()[id];
    if (sw.src != sg.src || sw.dst != sg.dst || sw.priority != sg.priority ||
        sw.period != sg.period || sw.length != sg.length ||
        sw.deadline != sg.deadline) {
      return differ(who + " parameters diverged for stream " + stream + ": " +
                    describe_stream(sg) + " != " + describe_stream(sw));
    }
    if (sw.route_order != sg.route_order ||
        sw.path.channels != sg.path.channels) {
      return differ(who + " route diverged for stream " + stream +
                    ": route_order " + std::to_string(sg.route_order) + vs +
                    std::to_string(sw.route_order));
    }
  }
  // Fault flags are journaled state too: the fabric under test must carry
  // exactly the reference's fault set.
  for (std::size_t c = 0; c < want.topology().num_channels(); ++c) {
    const auto ch = static_cast<topo::ChannelId>(c);
    if (want.topology().channel_faulted(ch) !=
        got.topology().channel_faulted(ch)) {
      return differ(who + " fault flag diverged on channel " +
                    std::to_string(c));
    }
  }
  return std::nullopt;
}

/// Equivalence + monotonicity: replay the churn through the incremental
/// engine (no admission gate, so infeasible streams exercise the kNoTime
/// cache states too) and diff against from-scratch analysis.  Link
/// mutations are skipped — the engine has no fault model of its own;
/// the fault-repair oracle covers that axis at the controller level.
std::optional<Violation> check_engine_invariants(
    const Scenario& scenario, const route::RoutingAlgorithm& routing,
    const CheckConfig& config) {
  const std::unique_ptr<topo::Topology> topo_owned = scenario.topo.build();
  const topo::Topology& topo = *topo_owned;
  core::IncrementalAnalyzer engine(topo, config.analysis);
  std::vector<core::IncrementalAnalyzer::Handle> handle_of_op(
      scenario.ops.size(), -1);

  for (std::size_t i = 0; i < scenario.ops.size(); ++i) {
    const Op& op = scenario.ops[i];
    if (op.kind == Op::Kind::kAdd) {
      const auto mut = engine.add_stream(core::make_stream(
          topo, routing, /*id=*/0, op.src, op.dst, op.priority, op.period,
          op.length, op.deadline));
      handle_of_op[i] = mut.handle;
    } else if (op.kind == Op::Kind::kRemove) {
      auto& handle = handle_of_op[static_cast<std::size_t>(op.target)];
      if (handle >= 0) {
        engine.remove_stream(handle);
        handle = -1;
      }
    } else {
      continue;  // link mutations: not part of the engine's world
    }
    if (!config.check_equivalence) {
      continue;
    }
    // Bitwise equality against determine_feasibility after every single
    // mutation — the dirty-set recompute must be exact, not approximate.
    const std::vector<Time> reference =
        bounds_of(engine.snapshot(), config.analysis);
    for (std::size_t j = 0; j < engine.size(); ++j) {
      const Time cached = engine.bound_at(static_cast<StreamId>(j));
      if (cached != reference[j]) {
        return fail(kInvariantEquivalence,
                    "after op " + std::to_string(i) + " stream " +
                        std::to_string(j) + " cached bound " +
                        std::to_string(cached) + " != from-scratch " +
                        std::to_string(reference[j]));
      }
    }
  }

  if (!config.check_monotonicity || engine.size() == 0) {
    return std::nullopt;
  }
  const StreamSet set = engine.snapshot();
  const std::vector<Time> base = bounds_of(set, config.analysis);

  // (a) U_i can never undercut the contention-free network latency.
  for (std::size_t j = 0; j < set.size(); ++j) {
    const auto& s = set[static_cast<StreamId>(j)];
    if (base[j] != kNoTime && base[j] < s.latency) {
      return fail(kInvariantMonotonicity,
                  "stream " + std::to_string(j) + " bound " +
                      std::to_string(base[j]) + " below network latency " +
                      std::to_string(s.latency) + " " + describe_stream(s));
    }
  }

  // (b) Documented-pessimistic configurations must never yield a bound
  // below the default analysis.
  struct Variant {
    const char* name;
    AnalysisConfig config;
  };
  Variant variants[2] = {{"carry-over", config.analysis},
                         {"no-relaxation", config.analysis}};
  variants[0].config.carry_over = true;
  variants[1].config.relaxation = core::IndirectRelaxation::kNone;
  for (const Variant& v : variants) {
    const std::vector<Time> pessimistic = bounds_of(set, v.config);
    for (std::size_t j = 0; j < set.size(); ++j) {
      if (rank(pessimistic[j]) < rank(base[j])) {
        return fail(kInvariantMonotonicity,
                    std::string(v.name) + " bound " +
                        std::to_string(pessimistic[j]) + " improves on default " +
                        std::to_string(base[j]) + " for stream " +
                        std::to_string(j));
      }
    }
  }

  // (c) Adding a strictly higher-priority stream is pure extra
  // interference: nobody's bound may improve.
  util::Rng probe_rng(scenario.seed, kProbeStream);
  const int nodes = topo.num_nodes();
  const int src = static_cast<int>(probe_rng.uniform_int(0, nodes - 1));
  int dst = static_cast<int>(probe_rng.uniform_int(0, nodes - 2));
  if (dst >= src) {
    ++dst;
  }
  StreamSet grown = set;
  grown.add(core::make_stream(topo, routing,
                              static_cast<StreamId>(set.size()), src, dst,
                              set.max_priority() + 1, /*period=*/60,
                              /*length=*/6, /*deadline=*/60));
  const std::vector<Time> after = bounds_of(grown, config.analysis);
  for (std::size_t j = 0; j < set.size(); ++j) {
    if (rank(after[j]) < rank(base[j])) {
      return fail(kInvariantMonotonicity,
                  "stream " + std::to_string(j) + " bound improved from " +
                      std::to_string(base[j]) + " to " +
                      std::to_string(after[j]) +
                      " when higher-priority interference was added");
    }
  }
  return std::nullopt;
}

Json request_json(const Op& op) {
  Json req = Json::object();
  req.set("verb", "REQUEST");
  req.set("src", static_cast<std::int64_t>(op.src));
  req.set("dst", static_cast<std::int64_t>(op.dst));
  req.set("priority", static_cast<std::int64_t>(op.priority));
  req.set("period", op.period);
  req.set("length", op.length);
  req.set("deadline", op.deadline);
  return req;
}

AdmissionController::Decision decide(AdmissionController& ctrl,
                                     const Op& op) {
  return ctrl.request(op.src, op.dst, op.priority, op.period, op.length,
                      op.deadline);
}

Json handle_json(const char* verb, AdmissionController::Handle handle) {
  Json req = Json::object();
  req.set("verb", verb);
  req.set("handle", handle);
  return req;
}

using Handles = std::vector<AdmissionController::Handle>;

/// The handle array under \p key of a reply (nullopt when absent).
std::optional<Handles> handles_in(const Json& reply, const char* key) {
  const Json* arr = reply.get(key);
  if (arr == nullptr || !arr->is_array()) {
    return std::nullopt;
  }
  Handles out;
  for (const Json& h : arr->items()) {
    out.push_back(h.as_int());
  }
  return out;
}

std::string describe_handles(const Handles& handles) {
  std::string out = "[";
  for (const AdmissionController::Handle h : handles) {
    out += (out.size() > 1 ? "," : "") + std::to_string(h);
  }
  return out + "]";
}

/// The churn driver's reply check for a REQUEST: ok, admitted, bound,
/// the handle of an admission and would_break must equal the in-process
/// decision.
std::optional<std::string> diff_decision(
    const Json& reply, const AdmissionController::Decision& d) {
  const Json* ok = reply.get("ok");
  const Json* admitted = reply.get("admitted");
  const Json* bound = reply.get("bound");
  const Json* handle = reply.get("handle");
  const std::optional<Handles> breaks = handles_in(reply, "would_break");
  if (ok == nullptr || !ok->as_bool() || admitted == nullptr ||
      bound == nullptr || !breaks.has_value()) {
    return "malformed REQUEST reply " + reply.dump();
  }
  if (admitted->as_bool() != d.admitted || bound->as_int() != d.bound) {
    return "wire decision admitted=" + std::to_string(admitted->as_bool()) +
           " bound=" + std::to_string(bound->as_int()) +
           " != in-process admitted=" + std::to_string(d.admitted) +
           " bound=" + std::to_string(d.bound);
  }
  if (d.admitted && (handle == nullptr || handle->as_int() != d.handle)) {
    return "wire handle " + (handle == nullptr ? "missing" : handle->dump()) +
           " != in-process " + std::to_string(d.handle);
  }
  if (*breaks != d.would_break) {
    return "wire would_break " + describe_handles(*breaks) +
           " != in-process " + describe_handles(d.would_break);
  }
  return std::nullopt;
}

/// The churn driver's reply check for LINK_DOWN/LINK_UP.  A no-op
/// mutation (changed == false) must come back as an error reply; a real
/// one must report the identical evicted and rerouted handle lists.
std::optional<std::string> diff_link_reply(
    const Json& reply, const AdmissionController::LinkMutation& m) {
  const Json* ok = reply.get("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return "malformed LINK reply";
  }
  if (ok->as_bool() != m.changed) {
    return "wire ok=" + std::to_string(ok->as_bool()) +
           " != in-process changed=" + std::to_string(m.changed);
  }
  if (!m.changed) {
    return std::nullopt;
  }
  for (const auto& [key, want] :
       {std::pair{"evicted", &m.evicted}, std::pair{"rerouted", &m.rerouted}}) {
    const std::optional<Handles> got = handles_in(reply, key);
    if (got != *want) {
      return std::string("wire ") + key + " " +
             (got.has_value() ? describe_handles(*got) : "missing") +
             " != in-process " + describe_handles(*want);
    }
  }
  return std::nullopt;
}

/// How the churn driver reaches the Service under test: Service::handle,
/// Service::handle_line, or a real Server socket and a blocking Client
/// (framing, EINTR retry, the worker pool).
class ServiceTransport {
 public:
  enum class Mode { kHandle, kLine, kSocket };

  ServiceTransport(svc::Service& service, Mode mode)
      : service_(service), mode_(mode) {
    if (mode != Mode::kSocket) {
      return;
    }
    svc::ServerConfig server_config;
    server_config.tcp_port = 0;  // ephemeral loopback
    server_config.workers = 2;
    server_ = std::make_unique<svc::Server>(service_, server_config);
    std::string error;
    if (!server_->start(&error)) {
      error_ = "server start failed: " + error;
    } else if (!client_.connect_tcp("127.0.0.1", server_->port(), &error)) {
      error_ = "client connect failed: " + error;
    }
  }

  ~ServiceTransport() {
    client_.close();
    if (server_ != nullptr) {
      server_->stop();
    }
  }
  ServiceTransport(const ServiceTransport&) = delete;
  ServiceTransport& operator=(const ServiceTransport&) = delete;

  /// Why the socket could not be set up ("" when it could).
  const std::string& error() const { return error_; }

  /// One request in, one reply out (empty Json + error text on transport
  /// or parse failure).
  Json call(const Json& request, std::string* error) {
    if (mode_ == Mode::kHandle) {
      return service_.handle(request);
    }
    const std::string line = request.dump();
    std::string reply_line;
    if (mode_ == Mode::kLine) {
      reply_line = service_.handle_line(line);
    } else if (!client_.call(line, &reply_line, error)) {
      return Json();
    }
    return Json::parse(reply_line, error);
  }

 private:
  svc::Service& service_;
  Mode mode_;
  std::unique_ptr<svc::Server> server_;
  svc::Client client_;
  std::string error_;
};

/// The churn replay behind the protocol/flit, fault-repair, recovery and
/// replication oracles.  Each op is applied to an in-process
/// AdmissionController on a private topology instance (link mutations
/// flip fault flags in place) and, when a ServiceTransport is given,
/// sent to the Service under test, whose reply must equal the in-process
/// outcome.  The driver owns the op -> handle map: a REMOVE whose add
/// was rejected, removed or evicted is skipped on both sides.
class ChurnDriver {
 public:
  /// One applied op, handed to the per-op hook.
  struct Step {
    std::size_t index;
    /// The in-process mutation of a LINK op that names a channel;
    /// nullptr for every other op.
    const AdmissionController::LinkMutation* link;
  };
  using Hook = std::function<std::optional<Violation>(const Step&)>;

  ChurnDriver(const Scenario& scenario, const route::RoutingAlgorithm& routing,
              const AnalysisConfig& analysis)
      : scenario_(scenario),
        topo_(scenario.topo.build()),
        ctrl_(*topo_, routing, analysis),
        handle_of_op_(scenario.ops.size(), -1) {}

  /// Replays ops [0, \p end), running \p hook after every op that was
  /// not skipped.  The first reply that differs from the in-process
  /// outcome, or the hook's first violation, ends the replay; reply
  /// differences are reported under \p invariant.
  std::optional<Violation> replay(std::size_t end, ServiceTransport* service,
                                  const char* invariant,
                                  const Hook& hook = nullptr) {
    for (std::size_t i = 0; i < end; ++i) {
      const Op& op = scenario_.ops[i];
      Json request;
      AdmissionController::Decision decision;
      bool removed = false;
      AdmissionController::LinkMutation mutation;
      const AdmissionController::LinkMutation* link = nullptr;
      if (op.kind == Op::Kind::kAdd) {
        decision = decide(ctrl_, op);
        if (decision.admitted) {
          handle_of_op_[i] = decision.handle;
        }
        request = request_json(op);
      } else if (op.kind == Op::Kind::kRemove) {
        auto& handle = handle_of_op_[static_cast<std::size_t>(op.target)];
        if (handle < 0) {
          continue;
        }
        removed = ctrl_.remove(handle);
        request = handle_json("REMOVE", handle);
        handle = -1;
      } else {
        // A shrunk scenario may name a pair with no channel between: the
        // in-process side has nothing to apply and the Service must
        // refuse it, as it refuses a no-op mutation.
        const topo::ChannelId channel = topo_->channel_between(op.src, op.dst);
        if (channel != topo::kNoChannel) {
          mutation = op.kind == Op::Kind::kLinkDown ? ctrl_.link_down(channel)
                                                    : ctrl_.link_up(channel);
          link = &mutation;
          for (const auto victim : mutation.evicted) {
            std::replace(handle_of_op_.begin(), handle_of_op_.end(), victim,
                         AdmissionController::Handle{-1});
          }
        }
        request = Json::object();
        request.set("verb",
                    op.kind == Op::Kind::kLinkDown ? "LINK_DOWN" : "LINK_UP");
        request.set("src", static_cast<std::int64_t>(op.src));
        request.set("dst", static_cast<std::int64_t>(op.dst));
      }
      if (service != nullptr) {
        std::string error;
        const Json reply = service->call(request, &error);
        std::optional<std::string> diff;
        if (!error.empty()) {
          diff = error;
        } else if (op.kind == Op::Kind::kAdd) {
          diff = diff_decision(reply, decision);
        } else if (op.kind == Op::Kind::kRemove) {
          const Json* wire = reply.get("removed");
          if (wire == nullptr || wire->as_bool() != removed) {
            diff = "wire removed " +
                   (wire == nullptr ? "missing" : wire->dump()) +
                   " != in-process " + std::to_string(removed);
          }
        } else {
          diff = diff_link_reply(reply, mutation);
        }
        if (diff.has_value()) {
          return fail(invariant, "op " + std::to_string(i) + ": " + *diff);
        }
      }
      if (hook != nullptr) {
        if (auto violation = hook({i, link})) {
          return violation;
        }
      }
    }
    return std::nullopt;
  }

  AdmissionController& reference() { return ctrl_; }
  const topo::Topology& topology() const { return *topo_; }
  /// Live handle of each op's admission (-1: rejected, removed, evicted,
  /// or not an add).
  const std::vector<AdmissionController::Handle>& handles() const {
    return handle_of_op_;
  }

 private:
  const Scenario& scenario_;
  std::unique_ptr<topo::Topology> topo_;  // before ctrl_: init order
  AdmissionController ctrl_;
  std::vector<AdmissionController::Handle> handle_of_op_;
};

/// Flit-accurate soundness + protocol: replay the churn through the
/// admission gate, mirror every decision over the wire protocol, then
/// simulate the final admitted population through the event-driven
/// flit-level router against the cached bounds.
std::optional<Violation> check_admission_invariants(
    const Scenario& scenario, const route::RoutingAlgorithm& routing,
    const CheckConfig& config) {
  ChurnDriver churn(scenario, routing, config.analysis);
  const AdmissionController& ctrl = churn.reference();
  const topo::Topology& topo = churn.topology();
  // The replica gets its own fabric too: LINK verbs flip its fault flags.
  std::unique_ptr<topo::Topology> replica_topo;
  std::unique_ptr<svc::Service> replica;
  std::unique_ptr<ServiceTransport> wire;
  if (config.check_protocol) {
    replica_topo = scenario.topo.build();
    replica = std::make_unique<svc::Service>(*replica_topo, routing,
                                             config.analysis);
    wire = std::make_unique<ServiceTransport>(
        *replica, config.protocol_over_socket
                      ? ServiceTransport::Mode::kSocket
                      : ServiceTransport::Mode::kLine);
    if (!wire->error().empty()) {
      return fail(kInvariantProtocol, wire->error());
    }
  }
  if (auto violation =
          churn.replay(scenario.ops.size(), wire.get(), kInvariantProtocol)) {
    return violation;
  }

  // Cached bounds served over the wire must match the replica's cache.
  if (wire != nullptr) {
    for (const AdmissionController::Handle handle : churn.handles()) {
      if (handle < 0) {
        continue;
      }
      std::string error;
      const Json reply = wire->call(handle_json("QUERY", handle), &error);
      if (!error.empty()) {
        return fail(kInvariantProtocol, "QUERY: " + error);
      }
      const auto expected = ctrl.bound_of(handle);
      const Json* bound = reply.get("bound");
      if (!expected.has_value() || bound == nullptr ||
          bound->as_int() != *expected) {
        return fail(kInvariantProtocol,
                    "QUERY handle " + std::to_string(handle) +
                        ": wire bound != cached bound");
      }
    }
  }

  if (ctrl.size() == 0 || !config.check_flit) {
    return std::nullopt;
  }

  // Flit-accurate soundness: the admitted population is feasible by
  // construction, so under the analysis-consistent service model —
  // per-stream lanes, real VC buffers (depth >= 2 hides the credit round
  // trip), credit flow control, single injection/ejection ports — no
  // delivered message may exceed its stream's bound.  Checked at the
  // synchronized critical instant and under random release phases, on
  // every topology.
  //
  // Validity domain: a lane freed by a tail is re-allocatable only once
  // the tail's last credit returns (conservative VC reallocation, a
  // 2-cycle gap real credit-based routers pay between back-to-back
  // messages).  The analysis' idealized service model does not charge
  // that gap, so its bound only transfers to streams whose period
  // leaves room for it: U_i + 2 <= T_i.  Zero-slack streams (the
  // admission gate allows U_i == T_i) are excluded from the latency
  // comparison — a documented fidelity gap, not a bug (DESIGN.md §12).
  const StreamSet population = ctrl.snapshot();
  std::vector<bool> has_rtt_slack(population.size(), false);
  for (std::size_t j = 0; j < population.size(); ++j) {
    const auto id = static_cast<StreamId>(j);
    const Time bound = ctrl.engine().bound_at(id);
    has_rtt_slack[j] = core::flit_valid(bound, population[id].period);
  }
  // Every flit-accurate arrival is also fed through the runtime
  // ConformanceMonitor (the REPORT-verb machinery) so the fuzzer
  // cross-checks the production violation detector against the direct
  // observed>bound comparison below: the monitor must flag exactly the
  // arrivals the oracle flags, and a sound population must leave it at
  // zero violations.
  obs::Registry conformance_registry;
  obs::ConformanceMonitor conformance(conformance_registry);
  for (int phase = 0; phase <= config.phase_seeds; ++phase) {
    flitsim::FlitSimConfig flit_config;
    flit_config.duration = config.sim_duration;
    flit_config.warmup = 0;
    flit_config.vc_buffer_depth = config.analysis.vc_buffer_depth;
    flit_config.record_arrivals = true;
    if (phase > 0) {
      flit_config.random_phase = true;
      flit_config.phase_seed =
          scenario.seed * 1000003ull + static_cast<std::uint64_t>(phase);
    }
    flitsim::FlitSimulator simulator(topo, population, flit_config);
    const flitsim::FlitSimResult result = simulator.run();
    const std::string phase_tag =
        phase == 0 ? "synchronized" : "phase seed " + std::to_string(phase);
    if (!result.drained) {
      return fail(kInvariantFlit,
                  "admitted population failed to drain (" + phase_tag + ")");
    }
    if (result.flits_injected != result.flits_delivered) {
      return fail(kInvariantFlit,
                  "flit conservation broken (" + phase_tag + ")");
    }
    for (const auto& arrival : result.arrivals) {
      const Time observed = arrival.delivered - arrival.generated;
      const Time bound =
          ctrl.engine().bound_at(arrival.stream) - config.soundness_tightening;
      const bool flit_valid =
          has_rtt_slack[static_cast<std::size_t>(arrival.stream)];
      const obs::ConformanceMonitor::Outcome outcome = conformance.report(
          static_cast<std::int64_t>(arrival.stream),
          static_cast<double>(observed), static_cast<double>(bound),
          static_cast<double>(population[arrival.stream].period),
          flit_valid);
      const bool oracle_violation = flit_valid && observed > bound;
      if (outcome.violation != oracle_violation) {
        return fail(kInvariantFlit,
                    "conformance monitor disagrees with the flit oracle: "
                    "monitor says " +
                        std::string(outcome.violation ? "violation"
                                                      : "conforming") +
                        " for observed " + std::to_string(observed) +
                        " vs bound " + std::to_string(bound) + " (" +
                        phase_tag + ")");
      }
      if (oracle_violation) {
        const auto& s = population[arrival.stream];
        return fail(kInvariantFlit,
                    "flit-accurate latency " + std::to_string(observed) +
                        " > bound " + std::to_string(bound) + " for " +
                        describe_stream(s) + " message generated at " +
                        std::to_string(arrival.generated) + " (" + phase_tag +
                        ")");
      }
    }
  }
  // A sound, feasible population must leave the production violation
  // counter untouched across every phase — the detection-proof half of
  // the monitor's contract (the other half, that injected violations DO
  // fire, is covered by tests/obs/test_conformance.cpp).
  if (conformance.total_violations() != 0) {
    return fail(kInvariantFlit,
                "conformance monitor counted " +
                    std::to_string(conformance.total_violations()) +
                    " violations on a sound population");
  }
  return std::nullopt;
}

/// Fault-repair: replay the full churn (adds, removes, link mutations)
/// through the admission controller; after every topology mutation and
/// once at the end, every surviving stream's cached bound must be
/// bitwise identical to a from-scratch determine_feasibility of the
/// surviving set, and no surviving path may cross a faulted channel —
/// the reroute/evict cascade's dirty closure must be exact.
std::optional<Violation> check_fault_invariants(
    const Scenario& scenario, const route::RoutingAlgorithm& routing,
    const CheckConfig& config) {
  ChurnDriver churn(scenario, routing, config.analysis);
  const AdmissionController& ctrl = churn.reference();
  const auto audit = [&](const std::string& when) -> std::optional<Violation> {
    const StreamSet survivors = ctrl.snapshot();
    const std::vector<Time> reference = bounds_of(survivors, config.analysis);
    for (std::size_t j = 0; j < survivors.size(); ++j) {
      const auto id = static_cast<StreamId>(j);
      const Time cached = ctrl.engine().bound_at(id);
      const Time want = reference[j] + config.fault_oracle_skew;
      if (cached != want) {
        return fail(kInvariantFault,
                    when + ": surviving stream " + std::to_string(j) +
                        " cached bound " + std::to_string(cached) +
                        " != from-scratch " + std::to_string(want) + " " +
                        describe_stream(survivors[id]));
      }
      for (const topo::ChannelId ch : survivors[id].path.channels) {
        if (churn.topology().channel_faulted(ch)) {
          return fail(kInvariantFault,
                      when + ": surviving stream " + std::to_string(j) +
                          " still routed across faulted channel " +
                          std::to_string(ch) + " " +
                          describe_stream(survivors[id]));
        }
      }
    }
    return std::nullopt;
  };
  const auto audit_link = [&](const ChurnDriver::Step& step) {
    return step.link != nullptr ? audit("after op " + std::to_string(step.index))
                                : std::nullopt;
  };
  if (auto violation = churn.replay(scenario.ops.size(), nullptr,
                                    kInvariantFault, audit_link)) {
    return violation;
  }
  // One end-of-run audit regardless: scenarios without link churn keep
  // the oracle (and its detection knob) from being silently vacuous.
  return audit("after final op");
}

/// A plausible extra REQUEST, drawn from the recovery substream — used
/// both as the doomed mid-crash mutation and as the post-recovery
/// decision-parity probe.
Op random_probe(util::Rng& rng, const topo::Topology& topo,
                const Scenario& scenario) {
  Op op;
  const int nodes = topo.num_nodes();
  op.src = static_cast<int>(rng.uniform_int(0, nodes - 1));
  op.dst = static_cast<int>(rng.uniform_int(0, nodes - 2));
  if (op.dst >= op.src) {
    ++op.dst;
  }
  op.priority = static_cast<Priority>(
      rng.uniform_int(1, std::max(1, scenario.priority_levels)));
  op.period = rng.uniform_int(30, 120);
  op.length = rng.uniform_int(1, 24);
  op.deadline = rng.uniform_int(op.length, op.period);
  return op;
}

/// XORs the byte at \p offset of \p path with 0xFF.  Returns false when
/// the file cannot be patched (missing, too short).
bool flip_byte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    return false;
  }
  bool ok = false;
  if (std::fseek(f, offset, SEEK_SET) == 0) {
    const int c = std::fgetc(f);
    if (c != EOF && std::fseek(f, offset, SEEK_SET) == 0) {
      ok = std::fputc(c ^ 0xFF, f) != EOF;
    }
  }
  std::fclose(f);
  return ok;
}

long file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : -1;
}

/// A private journal state dir under CheckConfig::recovery_tmp_root
/// (path empty when mkdtemp failed), emptied and removed on scope exit.
struct StateDir {
  StateDir(const std::string& root, const char* tag)
      : path(root + "/wormrt-" + tag + "-XXXXXX") {
    if (::mkdtemp(path.data()) == nullptr) {
      path.clear();
    }
  }
  ~StateDir() {
    if (path.empty()) {
      return;
    }
    std::remove(svc::Journal::journal_path(path).c_str());
    std::remove(svc::Journal::snapshot_path(path).c_str());
    std::remove((path + "/snapshot.tmp").c_str());
    ::rmdir(path.c_str());
  }
  StateDir(const StateDir&) = delete;
  StateDir& operator=(const StateDir&) = delete;

  std::string path;
};

/// Recovery: the churn driver replays a prefix of the churn into a
/// journaled Service and its in-process oracle, checking every reply;
/// then crash the service at that random point (dropping it,
/// possibly mid-append via an injected torn write, possibly with
/// garbage appended to the WAL afterwards), reopen from the state dir,
/// and require the recovered engine — population order, parameters,
/// bounds, handle numbering, next handle — to equal the oracle exactly.
/// The acknowledged prefix fully determines the state, so anything less
/// than equality is a durability bug.
std::optional<Violation> check_recovery_invariants(
    const Scenario& scenario, const route::RoutingAlgorithm& routing,
    const CheckConfig& config) {
  // Private topology instances: link mutations flip fault flags in
  // place, so oracle (the driver's), crashed primary, and recovered
  // service each need their own fabric (recovery itself re-applies the
  // fault history to the recovered instance — that replay is part of
  // what's under test).
  const std::unique_ptr<topo::Topology> primary_topo = scenario.topo.build();
  const std::unique_ptr<topo::Topology> recovered_topo = scenario.topo.build();
  const StateDir state_dir(config.recovery_tmp_root, "recovery");
  if (state_dir.path.empty()) {
    return fail(kInvariantRecovery,
                std::string("mkdtemp: ") + std::strerror(errno));
  }
  const std::string& dir = state_dir.path;

  util::Rng rng(scenario.seed, kRecoveryStream);
  const std::size_t crash_at =
      scenario.ops.empty()
          ? 0
          : static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(scenario.ops.size())));

  util::FaultInjector faults;
  svc::ServiceOptions options;
  options.state_dir = dir;
  // Small compaction interval: scenarios regularly cross it, so the
  // snapshot + LSN-skip recovery path gets real fuzz coverage.
  options.compact_every = 8;
  // The crash is simulated by destroying the Service, not the process;
  // page-cache contents survive that without fsync, and skipping the
  // syscall keeps thousands of CI seeds fast.
  options.journal_fsync = false;
  options.journal_faults = &faults;

  ChurnDriver churn(scenario, routing, config.analysis);
  AdmissionController& oracle = churn.reference();
  std::optional<Op> doomed;
  {
    svc::Service primary(*primary_topo, routing, config.analysis, options);
    std::string err;
    if (!primary.open_state(&err)) {
      return fail(kInvariantRecovery, "primary open_state: " + err);
    }
    ServiceTransport wire(primary, ServiceTransport::Mode::kHandle);
    if (auto violation = churn.replay(crash_at, &wire, kInvariantRecovery)) {
      return violation;
    }

    // Half the time, die mid-append: arm a torn write and fire one extra
    // REQUEST the oracle never sees.  If it tries to mutate, its journal
    // record is cut short (a partial frame on disk) and the service
    // replies with an error — unacknowledged either way, so recovery
    // must reproduce the state WITHOUT it.
    if (rng.bernoulli(0.5)) {
      faults.arm_torn_write(static_cast<std::size_t>(rng.uniform_int(0, 72)));
      doomed = random_probe(rng, churn.topology(), scenario);
      primary.handle(request_json(*doomed));
    }
  }  // ~Service == the crash: nothing beyond append()'s writes survives

  faults.reset();

  // Post-crash tail mutilation: a real crash can leave arbitrary bytes
  // after the last acknowledged record (torn sector, preallocated
  // zeros).  Recovery must discard them silently.
  const std::string wal = svc::Journal::journal_path(dir);
  const std::int64_t mutilation = rng.uniform_int(0, 2);
  if (mutilation > 0) {
    std::FILE* f = std::fopen(wal.c_str(), "ab");
    if (f != nullptr) {
      const int tail_len = static_cast<int>(rng.uniform_int(1, 40));
      for (int k = 0; k < tail_len; ++k) {
        const int byte =
            mutilation == 1 ? static_cast<int>(rng.uniform_int(0, 255)) : 0;
        std::fputc(byte, f);
      }
      std::fclose(f);
    }
  }

  if (config.recovery_corrupt_acknowledged) {
    // Detection-proof mode: damage a record recovery is NOT allowed to
    // drop.  The comparison below (or recovery itself) must now fail.
    const long wal_size = file_size(wal);
    if (wal_size > 0) {
      flip_byte(wal, wal_size / 2);
    } else {
      const std::string snap = svc::Journal::snapshot_path(dir);
      const long snap_size = file_size(snap);
      if (snap_size > 0) {
        flip_byte(snap, snap_size / 2);
      }
    }
  }

  svc::ServiceOptions recovered_options = options;
  recovered_options.journal_faults = nullptr;
  svc::Service recovered(*recovered_topo, routing, config.analysis,
                         recovered_options);
  std::string err;
  if (!recovered.open_state(&err)) {
    return fail(kInvariantRecovery, "recovery open_state: " + err);
  }

  const std::string where =
      " (crash after op " + std::to_string(crash_at) + "/" +
      std::to_string(scenario.ops.size()) + ")";
  const EngineNames names{kInvariantRecovery, "recovered", "oracle", where};
  const auto compare_state = [&] {
    return diff_engines(oracle, recovered.controller(), names, 0);
  };

  std::optional<Violation> mismatch = compare_state();
  if (mismatch.has_value() && doomed.has_value()) {
    // A torn append is ambiguous when every byte it lost was zero — and
    // record tails usually are, because the payload's small integers are
    // stored as 64-bit little-endian.  Zero-fill mutilation then rebuilds
    // the record byte-for-byte, CRC included, and recovery legitimately
    // replays the in-flight, never-acknowledged mutation: no journal
    // format can tell a reconstructed tail from one that was written.
    // Crash consistency therefore allows exactly two outcomes — the
    // acknowledged prefix with or without the in-flight op — so retry
    // the comparison against the extended oracle before declaring a
    // violation.
    decide(oracle, *doomed);
    if (!compare_state().has_value()) {
      mismatch = std::nullopt;
    }
  }
  if (mismatch.has_value()) {
    return mismatch;
  }

  // The next admission decision must also come out identically — the
  // recovered daemon continues exactly where the crashed one left off.
  const Op probe = random_probe(rng, churn.topology(), scenario);
  if (const auto diff = diff_decision(recovered.handle(request_json(probe)),
                                      decide(oracle, probe))) {
    return fail(kInvariantRecovery,
                "post-recovery admission decision diverged from the oracle" +
                    where + ": " + *diff);
  }
  return std::nullopt;
}

/// Replication: the churn driver replays the churn into a journaled
/// primary (every reply checked against its in-process reference) while
/// an in-process follower pulls it through the REPL_* verbs with the
/// follower step `wormrtd --follow` ships (svc::hello, svc::bootstrap,
/// svc::pull_once), over Service::handle instead of a socket.  The
/// follower is crashed and rebooted at random points (recovery, then
/// the handshake a reconnecting session sends, then resume), and small
/// primary buffers force the snapshot-bootstrap path mid-churn.  After
/// catch-up the follower must equal the primary bitwise, and once
/// PROMOTEd it and the primary must both make the reference's next
/// admission decision.
std::optional<Violation> check_replication_invariants(
    const Scenario& scenario, const route::RoutingAlgorithm& routing,
    const CheckConfig& config) {
  const std::unique_ptr<topo::Topology> primary_topo = scenario.topo.build();

  const StateDir primary_dir(config.recovery_tmp_root, "repl-p");
  const StateDir follower_dir(config.recovery_tmp_root, "repl-f");
  if (primary_dir.path.empty() || follower_dir.path.empty()) {
    return fail(kInvariantReplication,
                std::string("mkdtemp: ") + std::strerror(errno));
  }

  util::Rng rng(scenario.seed, kReplicationStream);

  svc::ServiceOptions primary_options;
  primary_options.state_dir = primary_dir.path;
  primary_options.compact_every = 8;
  primary_options.journal_fsync = false;  // crash = object drop, as in recovery
  // Small buffers half the time: the churn overflows them, the floor
  // rises, and crashed/rebooted followers exercise the snapshot
  // bootstrap path instead of pure streaming.
  primary_options.repl_buffer_records =
      rng.bernoulli(0.5) ? 12 : 4096;
  svc::Service primary(*primary_topo, routing, config.analysis,
                       primary_options);
  std::string err;
  if (!primary.open_state(&err)) {
    return fail(kInvariantReplication, "primary open_state: " + err);
  }

  svc::ServiceOptions follower_options;
  follower_options.state_dir = follower_dir.path;
  follower_options.compact_every = 8;
  follower_options.journal_fsync = false;
  follower_options.follower = true;

  // The primary as the follower step sees it: its verb dispatch, where
  // wormrtd's session has a socket.
  const svc::PrimaryCall call_primary = [&primary](const Json& request,
                                                   Json* reply,
                                                   std::string*) {
    *reply = primary.handle(request);
    return true;
  };
  const std::string follower_id = "oracle";

  // Follower incarnations: a crash drops the Service object (and its
  // topology instance, which carries replicated fault flags) and boots
  // a fresh one from the surviving state dir — recovery, re-handshake,
  // and resume are all under test.
  std::vector<std::unique_ptr<topo::Topology>> follower_topos;
  std::unique_ptr<svc::Service> follower;
  const auto boot_follower = [&]() -> std::optional<Violation> {
    follower_topos.push_back(scenario.topo.build());
    follower = std::make_unique<svc::Service>(
        *follower_topos.back(), routing, config.analysis, follower_options);
    std::string boot_err;
    if (!follower->open_state(&boot_err)) {
      return fail(kInvariantReplication,
                  "follower open_state: " + boot_err);
    }
    svc::HelloReply handshake;
    if (!svc::hello(call_primary, follower_id,
                    core::contract_fingerprint(*follower_topos.back(),
                                               config.analysis),
                    follower->epoch(), follower->durable_lsn(), &handshake,
                    &boot_err) ||
        (handshake.snapshot_needed &&
         !svc::bootstrap(call_primary, *follower, &boot_err))) {
      return fail(kInvariantReplication, "follower handshake: " + boot_err);
    }
    return std::nullopt;
  };
  if (auto violation = boot_follower()) {
    return violation;
  }

  const auto catch_up = [&]() -> std::optional<std::string> {
    for (int rounds = 0; follower->durable_lsn() < primary.durable_lsn();
         ++rounds) {
      if (rounds > 10000) {
        return "catch-up did not converge (follower durable " +
               std::to_string(follower->durable_lsn()) + ", primary " +
               std::to_string(primary.durable_lsn()) + ")";
      }
      const std::uint64_t before = follower->durable_lsn();
      std::string pull_err;
      if (!svc::pull_once(call_primary, *follower, follower_id, 0,
                          &pull_err)) {
        return pull_err;
      }
      if (follower->durable_lsn() == before) {
        return "catch-up stalled without progress (follower durable " +
               std::to_string(before) + ", primary " +
               std::to_string(primary.durable_lsn()) + ")";
      }
    }
    return std::nullopt;
  };

  // Churn on the primary next to an in-process reference, each applied
  // op followed by a pull (p = 0.6) and a follower crash (p = 0.04).
  const auto pull_or_crash =
      [&](const ChurnDriver::Step& step) -> std::optional<Violation> {
    std::string pull_err;
    if (rng.bernoulli(0.6) &&
        !svc::pull_once(call_primary, *follower, follower_id, 0, &pull_err)) {
      return fail(kInvariantReplication,
                  "op " + std::to_string(step.index) + ": " + pull_err);
    }
    if (rng.bernoulli(0.04)) {
      follower.reset();  // SIGKILL-equivalent: nothing flushed beyond disk
      return boot_follower();
    }
    return std::nullopt;
  };
  ChurnDriver churn(scenario, routing, config.analysis);
  ServiceTransport wire(primary, ServiceTransport::Mode::kHandle);
  if (auto violation = churn.replay(scenario.ops.size(), &wire,
                                    kInvariantReplication, pull_or_crash)) {
    return violation;
  }
  if (auto catch_err = catch_up()) {
    return fail(kInvariantReplication, *catch_err);
  }

  // The follower must now BE the primary, bit for bit.
  if (auto diff = diff_engines(
          primary.controller(), follower->controller(),
          {kInvariantReplication, "follower", "primary", ""},
          config.replication_skew)) {
    return diff;
  }

  // Failover decision parity: promote the follower (epoch bump through
  // the same verb wormrt-cli drives) and require its next admission
  // decision, and the primary's, to be the in-process reference's.
  Json promote_req = Json::object();
  promote_req.set("verb", "PROMOTE");
  const Json promoted = follower->handle(promote_req);
  const Json* promote_ok = promoted.get("ok");
  if (promote_ok == nullptr || !promote_ok->as_bool()) {
    return fail(kInvariantReplication,
                "PROMOTE refused: " + promoted.dump());
  }
  const Op probe = random_probe(rng, churn.topology(), scenario);
  const auto decision = decide(churn.reference(), probe);
  for (svc::Service* side : {&primary, follower.get()}) {
    if (const auto diff =
            diff_decision(side->handle(request_json(probe)), decision)) {
      return fail(kInvariantReplication,
                  std::string("post-promotion decision diverged on the ") +
                      (side == &primary ? "primary" : "follower") + ": " +
                      *diff);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Violation> check_scenario(const Scenario& scenario,
                                        const CheckConfig& config) {
  // Each oracle builds its own topology instance: link mutations flip
  // fault flags in place, so a shared fabric would let one consumer's
  // mutation leak into another's view (e.g. a replica LINK_DOWN seeing
  // an already-faulted channel and reporting a spurious no-op).
  const route::DimensionOrderRouting routing;

  if (config.check_equivalence || config.check_monotonicity) {
    if (auto violation = check_engine_invariants(scenario, routing, config)) {
      return violation;
    }
  }
  if (config.check_flit || config.check_protocol) {
    if (auto violation =
            check_admission_invariants(scenario, routing, config)) {
      return violation;
    }
  }
  if (config.check_fault) {
    if (auto violation = check_fault_invariants(scenario, routing, config)) {
      return violation;
    }
  }
  if (config.check_recovery) {
    if (auto violation = check_recovery_invariants(scenario, routing, config)) {
      return violation;
    }
  }
  if (config.check_replication) {
    if (auto violation =
            check_replication_invariants(scenario, routing, config)) {
      return violation;
    }
  }
  return std::nullopt;
}

}  // namespace wormrt::fuzz
