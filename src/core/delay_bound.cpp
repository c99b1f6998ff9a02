#include "core/delay_bound.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"

namespace wormrt::core {

DelayBoundCalculator::DelayBoundCalculator(const StreamSet& streams,
                                           const BlockingAnalysis& blocking,
                                           AnalysisConfig config)
    : streams_(streams), blocking_(blocking), full_(&blocking), config_(config) {}

DelayBoundCalculator::DelayBoundCalculator(const StreamSet& streams,
                                           const DirectBlocking& blocking,
                                           AnalysisConfig config)
    : streams_(streams), blocking_(blocking), config_(config) {}

std::vector<RowSpec> DelayBoundCalculator::make_rows(const HpSet& hp) const {
  std::vector<RowSpec> rows;
  rows.reserve(hp.size());
  for (const auto& e : hp) {
    const auto& s = streams_[e.id];
    rows.push_back(RowSpec{s.id, s.priority, s.period, s.length});
  }
  // Non-increasing priority, ties by ascending stream id — the paper's
  // "Sort HP_j in non-increasing order of priority".
  std::sort(rows.begin(), rows.end(), [](const RowSpec& a, const RowSpec& b) {
    if (a.priority != b.priority) {
      return a.priority > b.priority;
    }
    return a.stream < b.stream;
  });
  return rows;
}

int DelayBoundCalculator::relax(StreamId j, const HpSet& hp,
                                TimingDiagram& diagram) const {
  OBS_SPAN("modify_diagram");
  // One stream-id -> diagram-row map serves every lookup below (row_of_hp
  // and the intermediate rows), instead of a linear scan per query.
  std::vector<std::size_t> row_of_stream(streams_.size(), diagram.num_rows());
  for (std::size_t r = 0; r < diagram.num_rows(); ++r) {
    row_of_stream[static_cast<std::size_t>(diagram.row_spec(r).stream)] = r;
  }

  // Processing order: BFS distance from the analysed stream over the
  // transposed BDG (nearest chain members first), ties by priority then
  // id — matching the paper's Modify_Diagram traversal, which marks an
  // element only once it has been reached through all of its chains.
  const Bdg bdg(blocking_, j, hp);
  std::vector<std::size_t> order;  // indices into hp
  for (std::size_t i = 0; i < hp.size(); ++i) {
    if (hp[i].mode == BlockMode::kIndirect) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (bdg.levels()[a] != bdg.levels()[b]) {
      return bdg.levels()[a] < bdg.levels()[b];
    }
    const auto& sa = streams_[hp[a].id];
    const auto& sb = streams_[hp[b].id];
    if (sa.priority != sb.priority) {
      return sa.priority > sb.priority;
    }
    return hp[a].id < hp[b].id;
  });

  int suppressed = 0;
  std::vector<std::size_t> intermediate_rows;
  for (const std::size_t i : order) {
    intermediate_rows.clear();
    intermediate_rows.reserve(hp[i].intermediates.size());
    for (const StreamId mid : hp[i].intermediates) {
      const std::size_t row = row_of_stream[static_cast<std::size_t>(mid)];
      assert(row < diagram.num_rows() &&
             "every intermediate stream is itself an HP member");
      intermediate_rows.push_back(row);
    }
    suppressed += diagram.relax_indirect_row(
        row_of_stream[static_cast<std::size_t>(hp[i].id)], intermediate_rows);
  }
  return suppressed;
}

TimingDiagram DelayBoundCalculator::build_diagram(StreamId j, const HpSet& hp,
                                                  Time horizon,
                                                  bool do_relax) const {
  TimingDiagram diagram(make_rows(hp), horizon, config_.carry_over);
  if (do_relax) {
    relax(j, hp, diagram);
  }
  return diagram;
}

void DelayBoundCalculator::evaluate(StreamId j, const HpSet& hp,
                                    TimingDiagram& diagram,
                                    DelayBoundResult& result) const {
  OBS_SPAN("diagram_evaluate");
  const bool want_relax = config_.relaxation == IndirectRelaxation::kInstance &&
                          result.indirect_elements > 0 && !config_.carry_over;
  result.suppressed_instances = want_relax ? relax(j, hp, diagram) : 0;
  result.bound = diagram.accumulate_free(streams_[j].latency);
}

DelayBoundResult DelayBoundCalculator::calc_with_hp(
    StreamId j, const HpSet& hp, std::optional<TimingDiagram>* final_diagram,
    Time hint) const {
  OBS_SPAN("cal_u");
  const auto& s = streams_[j];
  DelayBoundResult result;
  for (const auto& e : hp) {
    if (e.mode == BlockMode::kIndirect) {
      ++result.indirect_elements;
    } else {
      ++result.direct_elements;
    }
  }

  if (config_.horizon == HorizonPolicy::kDeadline) {
    // The paper's Cal_U scans exactly dtime = D_j slots.
    const Time horizon = std::max<Time>(s.deadline, 1);
    result.horizon_used = horizon;
    if (s.latency > horizon) {
      // Even a contention-free diagram cannot accumulate `latency` free
      // slots before the deadline: infeasible without building anything.
      result.bound = kNoTime;
      result.deadline_pruned = true;
      return result;
    }
    // Prefix rungs up to D_j itself: a bound at or before the diagram's
    // exactness frontier is the bound at every longer horizon, D_j
    // included, so the first rung that certifies one ends the search and
    // the cost follows U_j instead of D_j.  The last rung is the paper's
    // scan at D_j.  A recomputed bound usually lands near the one it
    // replaces, so a hint starts the ladder just past it.
    Time prefix = std::min(kFirstPrefixHorizon, horizon);
    if (hint >= 1 && horizon > kFirstPrefixHorizon) {
      const Time near = std::min(hint, horizon);
      prefix = std::min(near + near / 4 + 1, horizon);
    }
    TimingDiagram diagram(make_rows(hp), prefix, config_.carry_over);
    for (;;) {
      result.horizon_used = prefix;
      evaluate(j, hp, diagram, result);
      if (prefix == horizon ||
          (result.bound != kNoTime && result.bound <= diagram.exact_until())) {
        break;
      }
      prefix = std::min(prefix * kPrefixGrowth, horizon);
      diagram.reset(prefix);
    }
    if (final_diagram != nullptr) {
      final_diagram->emplace(std::move(diagram));
    }
    return result;
  }

  // Extended search: doubling horizons until the bound converges or the
  // cap is hit.  The slot pattern of a shorter horizon is a prefix of a
  // longer one, so the first horizon that yields a bound is final (the
  // indirect relaxation can shift decisions near the horizon edge, which
  // is why the result records the horizon actually used).  One diagram is
  // reset() across the horizons instead of reconstructed from scratch.
  Time horizon = std::max<Time>({s.deadline, kFirstPrefixHorizon, 1});
  TimingDiagram diagram(make_rows(hp), horizon, config_.carry_over);
  for (;;) {
    result.horizon_used = horizon;
    evaluate(j, hp, diagram, result);
    if (result.bound != kNoTime || horizon >= config_.horizon_cap) {
      break;
    }
    horizon = std::min<Time>(horizon * 2, config_.horizon_cap);
    ++result.horizon_doublings;
    diagram.reset(horizon);
  }
  if (final_diagram != nullptr) {
    final_diagram->emplace(std::move(diagram));
  }
  return result;
}

DelayBoundResult DelayBoundCalculator::calc(StreamId j) const {
  assert(j >= 0 && static_cast<std::size_t>(j) < streams_.size());
  assert(full_ != nullptr && "calc() needs a BlockingAnalysis; use "
                             "calc_with_hp with an oracle-only calculator");
  return calc_with_hp(j, full_->hp_set(j));
}

}  // namespace wormrt::core
