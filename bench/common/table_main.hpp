#pragma once

#include <cstdio>
#include <string>

#include "common/experiment.hpp"
#include "util/cli.hpp"

/// \file table_main.hpp
/// Shared main() body of the table benches: applies command-line
/// overrides (--streams, --levels, --seed, --reps, --duration) to the
/// table's canonical parameters, runs the pipeline, prints the table.

namespace wormrt::bench {

inline int run_table_bench(int argc, char** argv, ExperimentParams params,
                           const std::string& title) {
  const util::Args args(argc, argv);
  params.num_streams = static_cast<int>(
      args.get_int("streams", params.num_streams));
  params.priority_levels = static_cast<int>(
      args.get_int("levels", params.priority_levels));
  params.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(params.seed)));
  params.replications = static_cast<int>(
      args.get_int("reps", params.replications));
  params.sim_duration = args.get_int("duration", params.sim_duration);
  params.analysis.vc_buffer_depth = static_cast<int>(
      args.get_int("depth", params.analysis.vc_buffer_depth));
  const bool ports = args.get_bool("ports", true);
  params.analysis.ejection_port_overlap = ports;
  params.analysis.injection_port_overlap = ports;
  const std::string policy = args.get_string("policy", "ideal");
  if (policy == "ideal") {
    params.policy = flitsim::VcMode::kPerStreamLane;
  } else if (policy == "vc") {
    params.policy = flitsim::VcMode::kPerPriority;
  } else if (policy == "li") {
    params.policy = flitsim::VcMode::kLiVc;
  } else if (policy == "fcfs") {
    params.policy = flitsim::VcMode::kFcfs;
  } else {
    std::fprintf(stderr, "unknown --policy '%s' (ideal|vc|li|fcfs)\n",
                 policy.c_str());
    return 2;
  }

  const ExperimentResult result = run_experiment(params);
  std::fputs(format_table(params, result, title).c_str(), stdout);
  return 0;
}

}  // namespace wormrt::bench
