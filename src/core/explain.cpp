#include "core/explain.hpp"

#include <cstdio>
#include <optional>

#include "obs/trace.hpp"

namespace wormrt::core {

BoundProvenance explain_bound(const DelayBoundCalculator& calc, StreamId j,
                              const HpSet& hp) {
  OBS_SPAN("explain_bound");
  const MessageStream& s = calc.streams()[j];

  BoundProvenance p;
  p.stream = j;
  p.deadline = s.deadline;
  p.base_latency = s.latency;

  std::optional<TimingDiagram> final_diagram;
  const DelayBoundResult result = calc.calc_with_hp(j, hp, &final_diagram);
  p.bound = result.bound;
  p.horizon_used = result.horizon_used;
  p.horizon_doublings = result.horizon_doublings;
  p.suppressed_instances = result.suppressed_instances;
  p.deadline_pruned = result.deadline_pruned;
  if (p.deadline_pruned) {
    // No diagram was built: there are no interference terms to
    // attribute the failure to.
    return p;
  }
  const TimingDiagram& diagram = *final_diagram;

  // Attribute: slots in [0, bound) partition into L_j free slots plus
  // the disjoint per-row allocations — the sum identity.  Without a
  // bound, report each row's demand across the whole horizon instead.
  const Time end = p.bound != kNoTime ? p.bound : result.horizon_used;
  for (std::size_t r = 0; r < diagram.num_rows(); ++r) {
    const RowSpec& spec = diagram.row_spec(r);
    InterferenceTerm term;
    term.id = spec.stream;
    term.priority = spec.priority;
    term.period = spec.period;
    term.length = spec.length;
    for (const HpElement& e : hp) {
      if (e.id == spec.stream) {
        term.mode = e.mode;
        break;
      }
    }
    term.slots = diagram.allocated_before(r, end);
    term.instances = diagram.num_windows(r);
    for (std::size_t w = 0; w < term.instances; ++w) {
      if (diagram.window_suppressed(r, w)) {
        ++term.suppressed;
      }
    }
    p.interference += term.slots;
    p.terms.push_back(term);
  }
  return p;
}

std::string BoundProvenance::render() const {
  char line[192];
  std::string out;

  if (bound != kNoTime) {
    std::snprintf(line, sizeof line,
                  "U(stream %lld) = %lld  [deadline %lld, horizon %lld, "
                  "%d doublings]\n",
                  static_cast<long long>(stream), static_cast<long long>(bound),
                  static_cast<long long>(deadline),
                  static_cast<long long>(horizon_used), horizon_doublings);
  } else {
    std::snprintf(line, sizeof line,
                  "U(stream %lld) = unbounded within horizon %lld  "
                  "[deadline %lld, %d doublings]\n",
                  static_cast<long long>(stream),
                  static_cast<long long>(horizon_used),
                  static_cast<long long>(deadline), horizon_doublings);
  }
  out += line;

  std::snprintf(line, sizeof line, "+- base latency   %lld\n",
                static_cast<long long>(base_latency));
  out += line;

  if (deadline_pruned) {
    out += "+- infeasible before analysis: the contention-free latency "
           "alone exceeds the deadline\n";
    return out;
  }

  std::snprintf(line, sizeof line,
                "+- interference   %lld  (%zu HP streams, %d instances "
                "suppressed)\n",
                static_cast<long long>(interference), terms.size(),
                suppressed_instances);
  out += line;

  for (const InterferenceTerm& t : terms) {
    std::snprintf(
        line, sizeof line,
        "   +- stream %-4lld %-8s prio %-4lld T=%-6lld C=%-5lld "
        "slots=%-6lld (%zu inst%s",
        static_cast<long long>(t.id),
        t.mode == BlockMode::kDirect ? "direct" : "indirect",
        static_cast<long long>(t.priority), static_cast<long long>(t.period),
        static_cast<long long>(t.length), static_cast<long long>(t.slots),
        t.instances, t.suppressed != 0 ? "" : ")\n");
    out += line;
    if (t.suppressed != 0) {
      std::snprintf(line, sizeof line, ", %zu suppressed)\n", t.suppressed);
      out += line;
    }
  }
  return out;
}

}  // namespace wormrt::core
