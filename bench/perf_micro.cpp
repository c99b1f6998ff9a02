// Micro-benchmarks (google-benchmark): flit simulator throughput and the
// analysis algorithms' scaling in the number of streams.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "core/admission.hpp"
#include "core/delay_bound.hpp"
#include "core/feasibility.hpp"
#include "core/workload.hpp"
#include "flitsim/flit_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"

namespace {

using namespace wormrt;
using namespace wormrt::core;

StreamSet make_workload(const topo::Mesh& mesh, int n, int levels) {
  const route::XYRouting xy;
  WorkloadParams wp;
  wp.num_streams = n;
  wp.priority_levels = levels;
  wp.seed = 42;
  StreamSet streams = generate_workload(mesh, xy, wp);
  adjust_periods_to_bounds(streams);
  return streams;
}

// One flit-simulator fixture per row, built on first use and kept:
// google-benchmark re-enters a benchmark function for every
// iteration-count probe, and the period adjustment alone takes seconds
// at 200 streams.
struct FlitFixture {
  explicit FlitFixture(int side) : mesh(side, side) {}
  topo::Mesh mesh;
  StreamSet streams;
};

// A large-mesh population that builds in milliseconds and keeps the mesh
// loaded: the paper's length range with periods drawn from [400, 800]
// instead of adjusted to the bounds (which pushes most of 1,000 periods
// on a 32x32 mesh past 2^18, leaving the mesh idle).
StreamSet busy_mesh_workload(const topo::Mesh& mesh, int n) {
  const route::XYRouting xy;
  WorkloadParams wp;
  wp.num_streams = n;
  wp.priority_levels = 4;
  wp.seed = 42;
  wp.period_min = 400;
  wp.period_max = 800;
  return generate_workload(mesh, xy, wp);
}

const FlitFixture& flit_fixture(int side, int n, bool busy) {
  static std::map<std::tuple<int, int, bool>, std::unique_ptr<FlitFixture>>
      cache;
  auto& slot = cache[{side, n, busy}];
  if (!slot) {
    slot = std::make_unique<FlitFixture>(side);
    slot->streams = busy ? busy_mesh_workload(slot->mesh, n)
                         : make_workload(slot->mesh, n, 4);
  }
  return *slot;
}

void run_flitsim_rows(benchmark::State& state, const FlitFixture& fx) {
  flitsim::FlitSimConfig cfg;
  cfg.duration = 10000;
  cfg.warmup = 0;
  cfg.vc_buffer_depth = 4;
  std::int64_t events = 0;
  std::int64_t flits = 0;
  for (auto _ : state) {
    flitsim::FlitSimulator sim(fx.mesh, fx.streams, cfg);
    const auto result = sim.run();
    events += result.events_processed;
    flits += result.flits_delivered;
    benchmark::DoNotOptimize(result.flits_delivered);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["flits/s"] = benchmark::Counter(
      static_cast<double>(flits), benchmark::Counter::kIsRate);
}

// Flit simulator throughput (BENCH_flitsim.json): events/s and
// flits/s of the event-driven router as the mesh and the population
// scale, on bound-adjusted periods.  Args are {mesh side, streams}.
void BM_FlitSim(benchmark::State& state) {
  run_flitsim_rows(state, flit_fixture(static_cast<int>(state.range(0)),
                                       static_cast<int>(state.range(1)),
                                       /*busy=*/false));
}
BENCHMARK(BM_FlitSim)
    ->Args({10, 20})->Args({10, 60})->Args({32, 200})
    ->Unit(benchmark::kMillisecond);

// The large-mesh regime: 1,000 streams on a 32x32 mesh with thousands of
// flits in flight (busy_mesh_workload), where the tick calendar's
// per-cycle bitset scan and the per-router wire slots are exercised at
// scale.
void BM_FlitSimBusyMesh(benchmark::State& state) {
  run_flitsim_rows(state, flit_fixture(static_cast<int>(state.range(0)),
                                       static_cast<int>(state.range(1)),
                                       /*busy=*/true));
}
BENCHMARK(BM_FlitSimBusyMesh)->Args({32, 1000})->Unit(benchmark::kMillisecond);

// Parallel replications on the shared thread pool: the scaling knob the
// ablation benches use.  Args are {replications, threads}; the
// threads=1 row is the serial baseline of the speedup ratio (results
// are bitwise identical across rows — see FlitSimDeterminism).
void BM_FlitSimReplications(benchmark::State& state) {
  const auto reps = static_cast<int>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  topo::Mesh mesh(10, 10);
  const StreamSet streams = make_workload(mesh, 40, 4);
  flitsim::FlitSimConfig cfg;
  cfg.duration = 5000;
  cfg.warmup = 0;
  cfg.vc_buffer_depth = 4;
  for (auto _ : state) {
    const auto results =
        flitsim::run_replications(mesh, streams, cfg, reps, threads);
    benchmark::DoNotOptimize(results.size());
  }
  state.counters["reps/s"] = benchmark::Counter(
      static_cast<double>(reps) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FlitSimReplications)
    ->Args({8, 1})->Args({8, 2})->Args({8, 4})->Args({8, 0})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BlockingAnalysis(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  topo::Mesh mesh(10, 10);
  const StreamSet streams = make_workload(mesh, n, 4);
  for (auto _ : state) {
    BlockingAnalysis blocking(streams);
    benchmark::DoNotOptimize(blocking.hp_set(0).size());
  }
}
BENCHMARK(BM_BlockingAnalysis)->Arg(10)->Arg(20)->Arg(40)->Arg(60);

void BM_CalU(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  topo::Mesh mesh(10, 10);
  const StreamSet streams = make_workload(mesh, n, 4);
  const BlockingAnalysis blocking(streams);
  AnalysisConfig cfg;
  cfg.horizon = HorizonPolicy::kExtended;
  const DelayBoundCalculator calc(streams, blocking, cfg);
  // Lowest-priority stream: largest HP set, hardest call.
  const StreamId victim = streams.by_priority_desc().back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.calc(victim).bound);
  }
}
BENCHMARK(BM_CalU)->Arg(10)->Arg(20)->Arg(40)->Arg(60)
    ->Unit(benchmark::kMicrosecond);

void BM_DetermineFeasibilityPipeline(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  topo::Mesh mesh(10, 10);
  const route::XYRouting xy;
  WorkloadParams wp;
  wp.num_streams = n;
  wp.priority_levels = 5;
  wp.seed = 7;
  for (auto _ : state) {
    StreamSet streams = generate_workload(mesh, xy, wp);
    const auto adjusted = adjust_periods_to_bounds(streams);
    benchmark::DoNotOptimize(adjusted.iterations);
  }
}
BENCHMARK(BM_DetermineFeasibilityPipeline)->Arg(20)->Arg(60)
    ->Unit(benchmark::kMillisecond);

// Whole-set feasibility with the per-stream Cal_U calls fanned out over
// the thread pool: args are {streams, threads}.  The report is bitwise
// identical across thread counts; the threads=1 row is the serial
// paper-fidelity path and the baseline of the scaling ratio.
void BM_DetermineFeasibility(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  topo::Mesh mesh(10, 10);
  const StreamSet streams = make_workload(mesh, n, 4);
  AnalysisConfig cfg;
  cfg.horizon = HorizonPolicy::kExtended;
  cfg.num_threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const FeasibilityReport report = determine_feasibility(streams, cfg);
    benchmark::DoNotOptimize(report.feasible);
  }
}
BENCHMARK(BM_DetermineFeasibility)
    ->Args({60, 1})->Args({60, 2})->Args({60, 4})->Args({60, 0})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Admission churn under a standing population, in passes over the slots
// in slot order like perfbench's admit_200: a step tears the slot's
// channel down when it holds one, then requests the slot's stream again.
// Args are {streams, mode} with mode 0 = incremental (a trial computes
// only the newcomer and its dirty closure) and mode 1 = full recompute
// per decision (the pre-incremental baseline).  An iteration is one
// pass: every slot in mode 0, every tenth slot in mode 1, whose steps
// cost a whole-population recompute each.  Decisions are identical in
// both modes; the ratio of decisions/s at equal n is the incremental
// speedup.
//
// One admitted population per row, built on first use and kept like
// the flit fixtures: admitting it takes seconds at 200 streams, and
// google-benchmark re-enters the function for every iteration-count
// probe and every repetition.  Each entry churns its own copy of the
// controller, so every probe measures the same steps from the same
// state.
struct ChurnFixture {
  ChurnFixture(int side, int n, bool busy, AdmissionController::Mode mode)
      : mesh(side, side),
        streams(busy ? busy_mesh_workload(mesh, n)
                     : make_workload(mesh, n, 4)),  // whole set feasible
        admitted(mesh, xy, {}, mode) {
    for (const MessageStream& s : streams) {
      const auto d = admitted.request(s.src, s.dst, s.priority, s.period,
                                      s.length, s.deadline);
      handles.push_back(d.admitted ? d.handle : -1);
    }
  }
  topo::Mesh mesh;
  route::XYRouting xy;
  StreamSet streams;
  AdmissionController admitted;
  std::vector<AdmissionController::Handle> handles;
};

const ChurnFixture& churn_fixture(int side, int n, bool busy,
                                  AdmissionController::Mode mode) {
  static std::map<std::tuple<int, int, bool, AdmissionController::Mode>,
                  std::unique_ptr<ChurnFixture>>
      cache;
  auto& slot = cache[{side, n, busy, mode}];
  if (!slot) {
    slot = std::make_unique<ChurnFixture>(side, n, busy, mode);
  }
  return *slot;
}

void run_churn_passes(benchmark::State& state, const ChurnFixture& fx,
                      bool full) {
  AdmissionController ctrl = fx.admitted;
  std::vector<AdmissionController::Handle> handles = fx.handles;
  const std::size_t stride =
      full ? std::max<std::size_t>(1, handles.size() / 10) : 1;
  std::int64_t decisions = 0;
  for (auto _ : state) {
    for (std::size_t slot = 0; slot < handles.size(); slot += stride) {
      if (handles[slot] >= 0) {
        ctrl.remove(handles[slot]);
      }
      const MessageStream& s = fx.streams[static_cast<StreamId>(slot)];
      const auto d = ctrl.request(s.src, s.dst, s.priority, s.period,
                                  s.length, s.deadline);
      handles[slot] = d.admitted ? d.handle : -1;
      benchmark::DoNotOptimize(d.bound);
      ++decisions;
    }
  }
  state.counters["population"] = static_cast<double>(ctrl.size());
  state.counters["decisions/s"] = benchmark::Counter(
      static_cast<double>(decisions), benchmark::Counter::kIsRate);
}

void BM_AdmissionChurn(benchmark::State& state) {
  const bool full = state.range(1) != 0;
  const auto mode = full ? AdmissionController::Mode::kFullRecompute
                         : AdmissionController::Mode::kIncremental;
  run_churn_passes(
      state,
      churn_fixture(16, static_cast<int>(state.range(0)), /*busy=*/false, mode),
      full);
}
BENCHMARK(BM_AdmissionChurn)
    ->Args({20, 0})->Args({20, 1})
    ->Args({60, 0})->Args({60, 1})
    ->Unit(benchmark::kMillisecond);
// A 200-stream pass takes about a second, so a minimum time leaves one
// sample per row, and one sample spread 150-253 decisions/s across runs
// of one build.  These rows run a fixed one pass per repetition, five
// repetitions, and report their median (the `_median` aggregate).
BENCHMARK(BM_AdmissionChurn)
    ->Args({200, 0})->Args({200, 1})
    ->Iterations(1)->Repetitions(5)->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

// The control rows of the population x horizon grid: busy_mesh_workload
// populations, whose deadlines (= periods, 400-800 slots) stay below
// the first prefix rung, so no recomputed bound there starts from a
// hint.  Args are {mesh side, streams}, incremental mode; one pass per
// iteration, as BM_AdmissionChurn.
void BM_AdmissionChurnBusyMesh(benchmark::State& state) {
  run_churn_passes(
      state,
      churn_fixture(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(1)), /*busy=*/true,
                    AdmissionController::Mode::kIncremental),
      /*full=*/false);
}
BENCHMARK(BM_AdmissionChurnBusyMesh)
    ->Args({16, 200})->Args({32, 1000})
    ->Iterations(1)->Repetitions(5)->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

void BM_XyRouting(benchmark::State& state) {
  topo::Mesh mesh(16, 16);
  const route::XYRouting xy;
  topo::NodeId src = 0;
  for (auto _ : state) {
    const auto path = xy.route(mesh, src, mesh.num_nodes() - 1 - src);
    benchmark::DoNotOptimize(path.hops());
    src = (src + 37) % (mesh.num_nodes() / 2);
  }
}
BENCHMARK(BM_XyRouting);

// Generate_Init_Diagram on synthetic rows (periods 40-89, C 1-40) whose
// lower rows starve.
void build_diagrams(benchmark::State& state, Time horizon) {
  const auto rows_n = static_cast<std::size_t>(state.range(0));
  std::vector<RowSpec> rows;
  for (std::size_t r = 0; r < rows_n; ++r) {
    rows.push_back(RowSpec{static_cast<StreamId>(r),
                           static_cast<Priority>(rows_n - r),
                           static_cast<Time>(40 + 7 * (r % 8)),
                           static_cast<Time>(1 + (r % 40))});
  }
  for (auto _ : state) {
    TimingDiagram d(rows, horizon, /*carry_over=*/false);
    benchmark::DoNotOptimize(d.accumulate_free(64));
  }
}

void BM_TimingDiagramBuild(benchmark::State& state) {
  build_diagrams(state, /*horizon=*/4096);
}
BENCHMARK(BM_TimingDiagramBuild)->Arg(4)->Arg(16)->Arg(60)
    ->Unit(benchmark::kMicrosecond);

// The same rows at the horizon cap (2^18 slots), the longest horizon
// Cal_U scans: most windows of the lower rows wait across many all-busy
// words.
void BM_TimingDiagramBuildAtCap(benchmark::State& state) {
  build_diagrams(state, AnalysisConfig{}.horizon_cap);
}
BENCHMARK(BM_TimingDiagramBuildAtCap)->Arg(60)
    ->Unit(benchmark::kMicrosecond);

// --- Observability-layer costs (BENCH_obs.json) -------------------------
// The contract the obs layer must keep: a counter increment is one
// relaxed atomic op, a histogram observe one uncontended mutex, and a
// span guard with tracing DISABLED (the state every analysis hot path
// runs in by default) one relaxed load + branch — the <2% budget on
// BM_CalU / BM_AdmissionChurn.

void BM_ObsCounterInc(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("bench_counter_total");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench_latency_us", 0.0, 5000.0, 50);
  double x = 0.0;
  for (auto _ : state) {
    h.observe(x);
    x += 17.0;
    if (x >= 5000.0) {
      x -= 5000.0;
    }
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::Tracer::set_enabled(false);
  for (auto _ : state) {
    OBS_SPAN("bench_disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Tracer::set_enabled(true);
  obs::Tracer::clear();
  std::size_t spans = 0;
  for (auto _ : state) {
    OBS_SPAN("bench_enabled");
    benchmark::ClobberMemory();
    // Drop the buffered events periodically so a long --benchmark_min_time
    // run cannot hit the per-thread event cap and silence the record path.
    if (++spans == (1u << 19)) {
      state.PauseTiming();
      obs::Tracer::clear();
      spans = 0;
      state.ResumeTiming();
    }
  }
  obs::Tracer::set_enabled(false);
  obs::Tracer::clear();
}
BENCHMARK(BM_ObsSpanEnabled);

}  // namespace

BENCHMARK_MAIN();
