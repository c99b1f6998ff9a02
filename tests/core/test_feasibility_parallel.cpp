// Determinism of the parallel feasibility engine: fanning the per-stream
// Cal_U calls across threads must change nothing — every field of the
// report is compared against the serial paper-fidelity path.

#include <gtest/gtest.h>

#include <vector>

#include "core/admission.hpp"
#include "core/feasibility.hpp"
#include "core/workload.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"

namespace wormrt::core {
namespace {

void expect_identical(const FeasibilityReport& serial,
                      const FeasibilityReport& parallel,
                      const std::string& what) {
  ASSERT_EQ(serial.streams.size(), parallel.streams.size()) << what;
  EXPECT_EQ(serial.feasible, parallel.feasible) << what;
  for (std::size_t i = 0; i < serial.streams.size(); ++i) {
    const auto& a = serial.streams[i];
    const auto& b = parallel.streams[i];
    EXPECT_EQ(a.id, b.id) << what << " stream " << i;
    EXPECT_EQ(a.bound, b.bound) << what << " stream " << i;
    EXPECT_EQ(a.ok, b.ok) << what << " stream " << i;
    EXPECT_EQ(a.hp_direct, b.hp_direct) << what << " stream " << i;
    EXPECT_EQ(a.hp_indirect, b.hp_indirect) << what << " stream " << i;
    EXPECT_EQ(a.suppressed_instances, b.suppressed_instances)
        << what << " stream " << i;
  }
}

TEST(FeasibilityParallel, ReportIdenticalAcrossThreadCounts) {
  topo::Mesh mesh(10, 10);
  const route::XYRouting xy;
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    for (const int levels : {1, 4}) {
      WorkloadParams wp;
      wp.num_streams = 40;
      wp.priority_levels = levels;
      wp.seed = seed;
      const StreamSet streams = generate_workload(mesh, xy, wp);

      AnalysisConfig serial_cfg;
      serial_cfg.num_threads = 1;
      const FeasibilityReport serial =
          determine_feasibility(streams, serial_cfg);

      for (const int threads : {4, 0}) {
        AnalysisConfig cfg;
        cfg.num_threads = threads;
        const FeasibilityReport parallel = determine_feasibility(streams, cfg);
        expect_identical(serial, parallel,
                         "seed " + std::to_string(seed) + " levels " +
                             std::to_string(levels) + " threads " +
                             std::to_string(threads));
      }
    }
  }
}

TEST(FeasibilityParallel, ExtendedHorizonAlsoIdentical) {
  topo::Mesh mesh(10, 10);
  const route::XYRouting xy;
  WorkloadParams wp;
  wp.num_streams = 30;
  wp.priority_levels = 3;
  wp.seed = 99;
  const StreamSet streams = generate_workload(mesh, xy, wp);

  AnalysisConfig serial_cfg;
  serial_cfg.horizon = HorizonPolicy::kExtended;
  serial_cfg.num_threads = 1;
  AnalysisConfig parallel_cfg = serial_cfg;
  parallel_cfg.num_threads = 4;
  expect_identical(determine_feasibility(streams, serial_cfg),
                   determine_feasibility(streams, parallel_cfg), "extended");
}

TEST(FeasibilityParallel, AdmissionDecisionsIdenticalAcrossThreadCounts) {
  topo::Mesh mesh(6, 6);
  const route::XYRouting xy;
  AnalysisConfig serial_cfg;
  serial_cfg.num_threads = 1;
  AnalysisConfig parallel_cfg;
  parallel_cfg.num_threads = 4;
  AdmissionController serial(mesh, xy, serial_cfg);
  AdmissionController parallel(mesh, xy, parallel_cfg);

  util::Rng rng(5);
  for (int i = 0; i < 25; ++i) {
    const auto src = static_cast<topo::NodeId>(
        rng.uniform_int(0, mesh.num_nodes() - 1));
    auto dst = static_cast<topo::NodeId>(
        rng.uniform_int(0, mesh.num_nodes() - 2));
    if (dst >= src) {
      ++dst;
    }
    const auto priority = static_cast<Priority>(rng.uniform_int(0, 3));
    const Time period = rng.uniform_int(40, 90);
    const Time length = rng.uniform_int(1, 30);

    const auto a = serial.request(src, dst, priority, period, length, period);
    const auto b =
        parallel.request(src, dst, priority, period, length, period);
    EXPECT_EQ(a.admitted, b.admitted) << "request " << i;
    EXPECT_EQ(a.bound, b.bound) << "request " << i;
    EXPECT_EQ(a.would_break, b.would_break) << "request " << i;
  }
  EXPECT_EQ(serial.size(), parallel.size());
}

TEST(FeasibilityParallel, FirstBrokenGuaranteeIsTheSameAtEveryThreadCount) {
  // A churn where a third of the requests carry tight deadlines, so
  // many trials are rejected and stop early.  Each request is plain or
  // explained by a seeded draw.  No thread count may change a decision
  // or a would_break list, and a plain list must be empty or the first
  // element of the same request's explained list (taken on a copy of
  // the serial controller).
  topo::Mesh mesh(8, 8);
  const route::XYRouting xy;
  std::vector<AdmissionController> ctrls;
  ctrls.reserve(3);
  for (const int threads : {1, 2, 4}) {
    AnalysisConfig cfg;
    cfg.num_threads = threads;
    ctrls.emplace_back(mesh, xy, cfg);
  }

  util::Rng rng(11);
  std::vector<AdmissionController::Handle> live;
  int first_of_several = 0;             // plain [v], explained [v, ...]
  int newcomer_stops_with_victims = 0;  // plain [], explained [v, ...]
  for (int step = 0; step < 200; ++step) {
    if (!live.empty() && rng.bernoulli(0.25)) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      for (AdmissionController& ctrl : ctrls) {
        EXPECT_TRUE(ctrl.remove(live[pick])) << "step " << step;
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    const auto src = static_cast<topo::NodeId>(
        rng.uniform_int(0, mesh.num_nodes() - 1));
    auto dst = static_cast<topo::NodeId>(
        rng.uniform_int(0, mesh.num_nodes() - 2));
    if (dst >= src) {
      ++dst;
    }
    const auto priority = static_cast<Priority>(rng.uniform_int(0, 3));
    const Time period = rng.uniform_int(60, 200);
    const Time length = rng.uniform_int(1, 30);
    const Time deadline =
        rng.bernoulli(0.3) ? rng.uniform_int(period / 3, period) : period;
    const bool explain = rng.bernoulli(0.5);

    AdmissionController probe = ctrls[0];
    BoundProvenance full_provenance;
    const auto full = probe.request(src, dst, priority, period, length,
                                    deadline, &full_provenance);
    std::vector<AdmissionController::Decision> d;
    for (AdmissionController& ctrl : ctrls) {
      BoundProvenance provenance;
      d.push_back(ctrl.request(src, dst, priority, period, length, deadline,
                               explain ? &provenance : nullptr));
    }
    for (std::size_t t = 1; t < d.size(); ++t) {
      EXPECT_EQ(d[t].admitted, d[0].admitted) << "step " << step;
      EXPECT_EQ(d[t].bound, d[0].bound) << "step " << step;
      EXPECT_EQ(d[t].handle, d[0].handle) << "step " << step;
      EXPECT_EQ(d[t].would_break, d[0].would_break) << "step " << step;
    }
    EXPECT_EQ(d[0].admitted, full.admitted) << "step " << step;
    EXPECT_EQ(d[0].bound, full.bound) << "step " << step;
    if (explain) {
      EXPECT_EQ(d[0].would_break, full.would_break) << "step " << step;
    } else if (d[0].would_break.empty()) {
      newcomer_stops_with_victims += full.would_break.empty() ? 0 : 1;
    } else {
      ASSERT_FALSE(full.would_break.empty()) << "step " << step;
      EXPECT_EQ(d[0].would_break,
                std::vector<AdmissionController::Handle>{full.would_break[0]})
          << "step " << step;
      first_of_several += full.would_break.size() > 1 ? 1 : 0;
    }
    if (d[0].admitted) {
      live.push_back(d[0].handle);
    }
  }
  // The churn reached both kinds of early stop the contract names.
  EXPECT_GT(first_of_several, 0);
  EXPECT_GT(newcomer_stops_with_victims, 0);
  for (std::size_t t = 1; t < ctrls.size(); ++t) {
    ASSERT_EQ(ctrls[t].size(), ctrls[0].size());
    for (std::size_t id = 0; id < ctrls[0].size(); ++id) {
      const auto j = static_cast<StreamId>(id);
      EXPECT_EQ(ctrls[t].engine().bound_at(j), ctrls[0].engine().bound_at(j));
      EXPECT_EQ(ctrls[t].engine().handle_of(j), ctrls[0].engine().handle_of(j));
    }
  }
}

}  // namespace
}  // namespace wormrt::core
