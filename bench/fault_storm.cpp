// Fault-storm benchmark: kills a spine link under an established
// workload, measures the eviction/reroute cascade and the time until
// the admission state has reconverged (victims re-admitted, every bound
// the storm invalidated computed), then repairs the link and rolls the
// storm to the next row.  Emits BENCH_fault_storm.json.
//
//   ./bench/fault_storm [--streams 60] [--storms 400]
//                       [--mesh 16x16 (cols equal rows: --mesh 16)]
//                       [--out BENCH_fault_storm.json] [--min-speedup N]
//
// The identical storm sequence runs on two engines:
//   incremental   channel-level dirtiness — only the dirty closure of
//                 the faulted channel is invalidated per mutation
//   full          the pre-incremental baseline — every surviving stream
//                 invalidated per mutation
// Either engine computes an invalidated bound in an admission trial or
// when it is read, so each storm ends by settling the engine.
// The ratio of mean reconvergence latencies is the speedup;
// --min-speedup turns it into a CI floor (exit 1 below).  After each
// run the cached bounds are audited against a from-scratch recompute —
// a mismatch is a hard failure, so the bench doubles as a storm-length
// soundness check.

#include <cstdio>
#include <chrono>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "core/admission.hpp"
#include "core/workload.hpp"
#include "route/dor.hpp"
#include "svc/json.hpp"
#include "topo/mesh.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace wormrt;
using svc::Json;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct StormResult {
  double storms_per_sec = 0;
  double cascade_p50_us = 0;    // LINK_DOWN alone: evict + reroute
  double cascade_p99_us = 0;    // trials
  double reconverge_p50_us = 0; // cascade + re-admission of the victims
                                // + the settle of every stale bound
  double reconverge_p99_us = 0;
  double reconverge_mean_us = 0;
  double mean_evicted = 0;
  double mean_rerouted = 0;
  double mean_recomputed = 0;   // dirty-closure size per mutation
  std::uint64_t readmission_failures = 0;
  bool bounds_exact = false;    // post-storm audit vs full recompute
};

/// Runs `storms` LINK_DOWN / reconverge / LINK_UP cycles against the
/// central spine column, rotating the faulted row.  The topology is
/// built fresh per run: fault flags mutate it in place.
StormResult run_storm(int side, const route::XYRouting& routing,
                      const core::StreamSet& streams, int storms,
                      core::AdmissionController::Mode mode) {
  topo::Mesh mesh(side, side);
  core::AdmissionController ctrl(mesh, routing, {}, mode);
  std::unordered_map<core::AdmissionController::Handle, std::size_t> owner;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const core::MessageStream& s = streams[i];
    const auto d = ctrl.request(s.src, s.dst, s.priority, s.period, s.length,
                                s.deadline);
    if (d.admitted) {
      owner.emplace(d.handle, i);
    }
  }

  const auto readmit = [&](core::AdmissionController::Handle h) {
    const auto it = owner.find(h);
    if (it == owner.end()) {
      return false;
    }
    const std::size_t idx = it->second;
    owner.erase(it);
    const core::MessageStream& s = streams[idx];
    const auto d = ctrl.request(s.src, s.dst, s.priority, s.period, s.length,
                                s.deadline);
    if (d.admitted) {
      owner.emplace(d.handle, idx);
    }
    return d.admitted;
  };

  // Each storm kills the busiest link in the spine column — the
  // worst-case fault for the established population.  The scan start
  // rotates so ties spread across rows.
  const auto busiest_spine_channel = [&](int offset) {
    topo::ChannelId pick = topo::kNoChannel;
    std::size_t crossing = 0;
    for (int i = 0; i < side; ++i) {
      const int y = (offset + i) % side;
      const topo::ChannelId ch = mesh.channel_between(
          mesh.node_at({side / 2 - 1, y}), mesh.node_at({side / 2, y}));
      const std::size_t n = ctrl.engine().handles_on_channel(ch).size();
      if (pick == topo::kNoChannel || n > crossing) {
        pick = ch;
        crossing = n;
      }
    }
    return pick;
  };

  StormResult r;
  util::SampleSet cascade, reconverge;
  util::StreamingStats evicted, rerouted, recomputed;
  const double t0 = now_us();
  for (int storm = 0; storm < storms; ++storm) {
    const topo::ChannelId ch = busiest_spine_channel(storm % side);

    const double d0 = now_us();
    const auto m = ctrl.link_down(ch);
    cascade.add(now_us() - d0);
    evicted.add(static_cast<double>(m.evicted.size()));
    rerouted.add(static_cast<double>(m.rerouted.size()));
    recomputed.add(static_cast<double>(m.recomputed.size()));

    // Reconvergence: every victim retries immediately and either lands
    // on a detour or is counted as lost to the fault, and every bound the
    // storm invalidated is computed.
    for (const auto h : m.evicted) {
      if (!readmit(h)) {
        ++r.readmission_failures;
      }
    }
    ctrl.engine().settle();
    reconverge.add(now_us() - d0);

    ctrl.link_up(ch);
  }
  const double elapsed_us = now_us() - t0;

  // Storm-length soundness audit: the cached bounds must equal a
  // from-scratch recompute of the surviving population.
  const std::vector<Time> reference = ctrl.engine().full_recompute_bounds();
  r.bounds_exact = true;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (ctrl.engine().bound_at(static_cast<StreamId>(i)) != reference[i]) {
      r.bounds_exact = false;
      break;
    }
  }

  r.storms_per_sec = static_cast<double>(storms) / (elapsed_us * 1e-6);
  r.cascade_p50_us = cascade.percentile(50);
  r.cascade_p99_us = cascade.percentile(99);
  r.reconverge_p50_us = reconverge.percentile(50);
  r.reconverge_p99_us = reconverge.percentile(99);
  r.reconverge_mean_us = reconverge.mean();
  r.mean_evicted = evicted.mean();
  r.mean_rerouted = rerouted.mean();
  r.mean_recomputed = recomputed.mean();
  return r;
}

Json to_json(const StormResult& r) {
  Json j = Json::object();
  j.set("storms_per_sec", r.storms_per_sec);
  j.set("cascade_p50_us", r.cascade_p50_us);
  j.set("cascade_p99_us", r.cascade_p99_us);
  j.set("reconverge_p50_us", r.reconverge_p50_us);
  j.set("reconverge_p99_us", r.reconverge_p99_us);
  j.set("reconverge_mean_us", r.reconverge_mean_us);
  j.set("mean_evicted", r.mean_evicted);
  j.set("mean_rerouted", r.mean_rerouted);
  j.set("mean_recomputed", r.mean_recomputed);
  j.set("readmission_failures",
        static_cast<std::int64_t>(r.readmission_failures));
  j.set("bounds_exact", r.bounds_exact);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int n = static_cast<int>(args.get_int("streams", 60));
  const int storms = static_cast<int>(args.get_int("storms", 400));
  const double min_speedup =
      static_cast<double>(args.get_int("min-speedup", 0));
  const std::string out_path =
      args.get_string("out", "BENCH_fault_storm.json");
  const int side = static_cast<int>(args.get_int("mesh", 16));
  if (side < 2 || side * side < n) {
    std::fprintf(stderr, "fault_storm: mesh %dx%d too small for %d streams\n",
                 side, side, n);
    return 2;
  }

  // The workload is generated once on a pristine fabric and replayed
  // identically into both engines.
  topo::Mesh gen_mesh(side, side);
  const route::XYRouting routing;
  core::WorkloadParams wp;
  wp.num_streams = n;
  wp.priority_levels = 4;
  wp.seed = 42;
  core::StreamSet streams = core::generate_workload(gen_mesh, routing, wp);
  core::adjust_periods_to_bounds(streams);

  std::printf("fault_storm: %d streams on %s, %d storms on the spine column\n",
              n, gen_mesh.name().c_str(), storms);

  const StormResult incremental = run_storm(
      side, routing, streams, storms,
      core::AdmissionController::Mode::kIncremental);
  std::printf(
      "  incremental: %8.0f storms/s  cascade p50 %7.1f us  "
      "reconverge p50 %7.1f us  p99 %7.1f us\n",
      incremental.storms_per_sec, incremental.cascade_p50_us,
      incremental.reconverge_p50_us, incremental.reconverge_p99_us);
  const StormResult full = run_storm(
      side, routing, streams, storms,
      core::AdmissionController::Mode::kFullRecompute);
  std::printf(
      "  full:        %8.0f storms/s  cascade p50 %7.1f us  "
      "reconverge p50 %7.1f us  p99 %7.1f us\n",
      full.storms_per_sec, full.cascade_p50_us, full.reconverge_p50_us,
      full.reconverge_p99_us);
  std::printf(
      "  per storm: %.1f evicted, %.1f rerouted, %.1f of %d bounds "
      "recomputed (dirty closure)\n",
      incremental.mean_evicted, incremental.mean_rerouted,
      incremental.mean_recomputed, n);

  if (!incremental.bounds_exact || !full.bounds_exact) {
    std::fprintf(stderr,
                 "fault_storm: FAIL — cached bounds diverged from the "
                 "from-scratch recompute after the storm\n");
    return 3;
  }

  const double speedup =
      incremental.reconverge_mean_us > 0
          ? full.reconverge_mean_us / incremental.reconverge_mean_us
          : 0;
  std::printf("  reconvergence speedup (incremental over full): %.2fx\n",
              speedup);

  // Where the numbers came from.
  char host[256] = {};
  ::gethostname(host, sizeof host - 1);
  Json root = Json::object();
  root.set("bench", "fault_storm");
  root.set("host", std::string(host));
  root.set("nproc",
           static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  root.set("mesh", gen_mesh.name());
  root.set("streams", std::int64_t{n});
  root.set("storms", std::int64_t{storms});
  root.set("incremental", to_json(incremental));
  root.set("full", to_json(full));
  root.set("reconvergence_speedup", speedup);
  std::ofstream out(out_path);
  out << root.dump() << "\n";
  std::printf("  wrote %s\n", out_path.c_str());

  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "fault_storm: FAIL — reconvergence speedup %.2fx below "
                 "the --min-speedup %.2fx floor\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
