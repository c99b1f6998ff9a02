#include "common/experiment.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "core/delay_bound.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/torus.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace wormrt::bench {

const char* to_string(TopoKind kind) {
  switch (kind) {
    case TopoKind::kMesh: return "mesh";
    case TopoKind::kTorus: return "torus";
    case TopoKind::kHypercube: return "hypercube";
  }
  return "?";
}

namespace {

std::unique_ptr<topo::Topology> build_topology(const ExperimentParams& p) {
  switch (p.topo) {
    case TopoKind::kMesh:
      return std::make_unique<topo::Mesh>(p.mesh_width, p.mesh_height);
    case TopoKind::kTorus:
      return std::make_unique<topo::Torus>(p.mesh_width, p.mesh_height);
    case TopoKind::kHypercube:
      return std::make_unique<topo::Hypercube>(p.hypercube_order);
  }
  return nullptr;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentParams& params) {
  ExperimentResult result;

  struct LevelAccum {
    int streams = 0;
    double ratio_sum = 0.0;
    double ratio_min = 1e300;
    double ratio_max = -1e300;
    double actual_sum = 0.0;
    double bound_sum = 0.0;
  };

  /// Everything one replication contributes, kept in a per-replication
  /// slot so the replications can run in parallel and still be merged in
  /// replication order — the result is identical for any thread count.
  struct RepOutcome {
    std::map<Priority, LevelAccum, std::greater<>> levels;
    int silent_streams = 0;
    int capped_bounds = 0;
    std::int64_t messages_checked = 0;
    std::int64_t bound_violations = 0;
    std::int64_t messages_measured = 0;
    int adjust_iterations = 0;
    std::int64_t retransmissions = 0;
    std::int64_t flits_dropped = 0;
  };

  const std::unique_ptr<topo::Topology> network = build_topology(params);
  const topo::Topology& mesh = *network;
  const route::XYRouting xy;  // dimension-order everywhere (e-cube on cubes)

  const auto reps = static_cast<std::size_t>(params.replications);
  std::vector<RepOutcome> outcomes(reps);
  util::parallel_for(reps, params.analysis.num_threads, [&](std::size_t rep) {
    RepOutcome& out = outcomes[rep];
    core::WorkloadParams wp;
    wp.num_streams = params.num_streams;
    wp.priority_levels = params.priority_levels;
    wp.seed = params.seed + static_cast<std::uint64_t>(rep) * 0x9e37u;
    wp.pattern = params.pattern;
    core::StreamSet streams = generate_workload(mesh, xy, wp);

    // "If the calculated U_i is larger than T_i, we increased T_i."
    const core::AdjustResult adjusted =
        adjust_periods_to_bounds(streams, params.analysis,
                                 /*max_iterations=*/8,
                                 params.stability_utilization);
    out.adjust_iterations = adjusted.iterations;
    for (const Time u : adjusted.bounds) {
      if (u >= params.analysis.horizon_cap) {
        ++out.capped_bounds;
      }
    }

    flitsim::FlitSimConfig fc;
    fc.duration = params.sim_duration;
    fc.warmup = params.sim_warmup;
    fc.vc_mode = params.policy;
    fc.num_vcs = params.num_vcs_override;
    fc.vc_buffer_depth = params.analysis.vc_buffer_depth;
    // Every delivery is checked against its bound, warm-up included: the
    // synchronized t = 0 release is the analysis' critical instant.
    fc.on_delivery = [&](StreamId stream, Time generated, Time delivered) {
      ++out.messages_checked;
      if (delivered - generated >
          adjusted.bounds[static_cast<std::size_t>(stream)]) {
        ++out.bound_violations;
      }
    };
    flitsim::FlitSimulator sim(mesh, streams, fc);
    const flitsim::FlitSimResult fr = sim.run();
    out.retransmissions = fr.retransmissions;
    out.flits_dropped = fr.flits_dropped;
    for (const auto& s : streams) {
      const auto& st = fr.per_stream[static_cast<std::size_t>(s.id)];
      out.messages_measured += st.completed;
      if (st.completed == 0) {
        ++out.silent_streams;
        continue;
      }
      const double actual = st.latency.mean();
      const auto bound = static_cast<double>(
          adjusted.bounds[static_cast<std::size_t>(s.id)]);
      const double ratio = actual / bound;
      auto& acc = out.levels[s.priority];
      ++acc.streams;
      acc.ratio_sum += ratio;
      acc.ratio_min = std::min(acc.ratio_min, ratio);
      acc.ratio_max = std::max(acc.ratio_max, ratio);
      acc.actual_sum += actual;
      acc.bound_sum += bound;
    }
  });

  std::map<Priority, LevelAccum, std::greater<>> levels;
  for (const RepOutcome& out : outcomes) {
    result.silent_streams += out.silent_streams;
    result.capped_bounds += out.capped_bounds;
    result.messages_checked += out.messages_checked;
    result.bound_violations += out.bound_violations;
    result.messages_measured += out.messages_measured;
    result.adjust_iterations =
        std::max(result.adjust_iterations, out.adjust_iterations);
    result.retransmissions += out.retransmissions;
    result.flits_dropped += out.flits_dropped;
    for (const auto& [priority, acc] : out.levels) {
      auto& merged = levels[priority];
      merged.streams += acc.streams;
      merged.ratio_sum += acc.ratio_sum;
      merged.ratio_min = std::min(merged.ratio_min, acc.ratio_min);
      merged.ratio_max = std::max(merged.ratio_max, acc.ratio_max);
      merged.actual_sum += acc.actual_sum;
      merged.bound_sum += acc.bound_sum;
    }
  }

  for (const auto& [priority, acc] : levels) {
    PriorityLevelRow row;
    row.priority = priority;
    row.streams = acc.streams;
    row.ratio_mean = acc.ratio_sum / acc.streams;
    row.ratio_min = acc.ratio_min;
    row.ratio_max = acc.ratio_max;
    row.actual_mean = acc.actual_sum / acc.streams;
    row.bound_mean = acc.bound_sum / acc.streams;
    result.rows.push_back(row);
  }
  return result;
}

std::string format_table(const ExperimentParams& params,
                         const ExperimentResult& result,
                         const std::string& title) {
  std::string out = title + "\n";
  const std::string shape =
      params.topo == TopoKind::kHypercube
          ? std::to_string(params.hypercube_order) + "-cube"
          : std::to_string(params.mesh_width) + "x" +
                std::to_string(params.mesh_height) + " " +
                to_string(params.topo);
  out += "setup: " + shape + ", dimension-order routing, " +
         std::to_string(params.num_streams) + " streams, " +
         std::to_string(params.priority_levels) + " priority level(s), " +
         std::to_string(params.replications) + " replication(s), " +
         std::string(core::to_string(params.pattern)) + " traffic, flitsim " +
         flitsim::to_string(params.policy) + ", depth-" +
         std::to_string(params.analysis.vc_buffer_depth) + " buffers\n";
  util::Table table({"P", "streams", "ratio(actual/U)", "min", "max",
                     "avg actual", "avg U"});
  for (const auto& row : result.rows) {
    table.row()
        .cell(static_cast<std::int64_t>(row.priority))
        .cell(static_cast<std::int64_t>(row.streams))
        .cell(row.ratio_mean, 3)
        .cell(row.ratio_min, 3)
        .cell(row.ratio_max, 3)
        .cell(row.actual_mean, 1)
        .cell(row.bound_mean, 1);
  }
  out += table.to_ascii();
  out += "messages measured: " + std::to_string(result.messages_measured) +
         " (post-warm-up), deliveries checked: " +
         std::to_string(result.messages_checked) +
         ", bound violations: " + std::to_string(result.bound_violations) +
         ", silent streams: " + std::to_string(result.silent_streams) +
         ", capped bounds: " + std::to_string(result.capped_bounds) + "\n";
  return out;
}

}  // namespace wormrt::bench
