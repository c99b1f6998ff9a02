// Workload explorer: generate (or load) a stream set, run the full
// host-processor analysis, simulate it, and print an engineer-facing
// report — per-stream bounds vs observations, and the hottest channels
// of the mesh (where to re-map jobs if the margins look thin).
//
//   ./examples/workload_explorer [--streams N] [--levels K] [--seed S]
//                                [--load file.csv] [--save file.csv]

#include <cstdio>

#include "core/delay_bound.hpp"
#include "core/stream_io.hpp"
#include "core/workload.hpp"
#include "flitsim/flit_sim.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace wormrt;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const topo::Mesh mesh(10, 10);
  const route::XYRouting xy;

  core::StreamSet streams;
  if (args.has("load")) {
    const auto loaded =
        core::load_streams(args.get_string("load", ""), mesh, xy);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error loading workload: %s\n",
                   loaded.error.c_str());
      return 1;
    }
    streams = loaded.streams;
  } else {
    core::WorkloadParams wp;
    wp.num_streams = static_cast<int>(args.get_int("streams", 20));
    wp.priority_levels = static_cast<int>(args.get_int("levels", 5));
    wp.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    streams = generate_workload(mesh, xy, wp);
    core::adjust_periods_to_bounds(streams);
  }
  if (args.has("save")) {
    if (!core::save_streams(args.get_string("save", ""), streams)) {
      std::fprintf(stderr, "error saving workload\n");
      return 1;
    }
    std::printf("saved %zu streams to %s\n", streams.size(),
                args.get_string("save", "").c_str());
  }

  // Analysis.
  const core::BlockingAnalysis blocking(streams);
  core::AnalysisConfig acfg;
  acfg.horizon = core::HorizonPolicy::kExtended;
  const core::DelayBoundCalculator calc(streams, blocking, acfg);

  // Simulation.
  flitsim::FlitSimConfig scfg;
  scfg.vc_mode = flitsim::VcMode::kPerPriority;
  scfg.vc_buffer_depth = 2;
  flitsim::FlitSimulator sim(mesh, streams, scfg);
  const flitsim::FlitSimResult result = sim.run();

  util::Table table({"stream", "P", "T", "C", "U", "avg delay",
                     "max delay", "margin"});
  for (const auto& s : streams) {
    const Time bound = calc.calc(s.id).bound;
    const auto& st = result.per_stream[static_cast<std::size_t>(s.id)];
    table.row()
        .cell(static_cast<std::int64_t>(s.id))
        .cell(static_cast<std::int64_t>(s.priority))
        .cell(s.period)
        .cell(s.length)
        .cell(bound == kNoTime ? std::string("-")
                               : std::to_string(bound))
        .cell(st.completed ? st.latency.mean() : 0.0, 1)
        .cell(st.completed ? st.latency.max() : 0.0, 0)
        .cell(bound == kNoTime || st.completed == 0
                  ? std::string("-")
                  : util::format_double(
                        1.0 - st.latency.max() / static_cast<double>(bound),
                        2));
  }
  std::fputs(table.to_ascii().c_str(), stdout);

  std::printf("\nHottest channels (%lld cycles):\n",
              static_cast<long long>(result.cycles_run));
  std::fputs(
      flitsim::render_hot_channels(
          result,
          [&](std::size_t c) {
            const auto& ch =
                mesh.channels().channel(static_cast<topo::ChannelId>(c));
            return std::pair<std::string, std::string>(
                topo::to_string(mesh.coord_of(ch.src)),
                topo::to_string(mesh.coord_of(ch.dst)));
          },
          8)
          .c_str(),
      stdout);
  return 0;
}
