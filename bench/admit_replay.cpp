// admit_200 replay: perfbench's admit_200 population and one slot-order
// pass, run through an in-process AdmissionController, to time the
// admission engine and to prove that a change to it moves only the cost.
//
//   ./bench/admit_replay [--expect-decisions HEX] [--expect-bounds HEX]
//
// The population is set 0 of perfbench/inputs/admit_200.csv, read with
// perfbench's own loader and shape: 200 streams on a 16x16 mesh, X-Y
// routed.  The
// controller runs wormrtd's analysis config (1 thread, credit-slack
// guard, VC buffer depth 2).  The set-up requests every stream in slot
// order; the pass then walks the slots in order, removing the slot's
// channel when it holds one and requesting the slot's stream again.
//
// Prints the set-up and pass times with their Cal_U counts, and two
// FNV-1a digests: one over every decision (admitted flag, bound, handle,
// route order, flit validity, would_break list) and REMOVE outcome, one
// over every final bound (handle and bound of each standing stream, in
// engine order).  With --expect-decisions / --expect-bounds it exits 1
// when a digest differs, so a change that should move only the cost can
// be checked against the commit before it.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "inputs.hpp"
#include "route/dor.hpp"
#include "topo/mesh.hpp"
#include "util/cli.hpp"
#include "util/fnv1a.hpp"

namespace {

using namespace wormrt;
using core::AdmissionController;
using util::Fnv1a;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Parses a digest given as hex, with or without a 0x prefix.
bool parse_digest(const std::string& text, std::uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  std::size_t used = 0;
  try {
    *out = std::stoull(text, &used, 16);
  } catch (...) {
    return false;
  }
  return used == text.size();
}

/// Compares \p got with the --\p flag digest when one was given.
bool check_digest(const util::Args& args, const std::string& flag,
                  std::uint64_t got) {
  if (!args.has(flag)) {
    return true;
  }
  std::uint64_t want = 0;
  if (!parse_digest(args.get_string(flag, ""), &want)) {
    std::fprintf(stderr, "admit_replay: --%s needs a hex digest\n",
                 flag.c_str());
    std::exit(2);
  }
  if (got != want) {
    std::fprintf(stderr,
                 "admit_replay: %s 0x%016" PRIx64 " != expected 0x%016" PRIx64
                 "\n",
                 flag.c_str(), got, want);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);

  const perfbench::InputShape& shape = perfbench::kAdmit200Shape;
  const std::string csv =
      std::string(WORMRT_PERFBENCH_INPUTS_DIR "/") + shape.file;
  std::vector<perfbench::Row> rows;
  std::string error;
  if (!perfbench::load_rows(csv, &rows, &error)) {
    std::fprintf(stderr, "admit_replay: %s\n", error.c_str());
    return 2;
  }
  topo::Mesh mesh(shape.cols, shape.rows);
  const route::XYRouting xy;
  const core::StreamSet population =
      perfbench::to_stream_set(perfbench::split_sets(rows).front(), mesh);
  std::printf("population: %s set 0, %zu streams on a %dx%d mesh\n",
              csv.c_str(), population.size(), shape.cols, shape.rows);

  core::AnalysisConfig config;
  config.num_threads = 1;
  config.credit_slack_guard = true;
  config.vc_buffer_depth = 2;
  AdmissionController ctrl(mesh, xy, config);

  Fnv1a decisions;
  const auto request = [&](const core::MessageStream& s) {
    const AdmissionController::Decision d = ctrl.request(
        s.src, s.dst, s.priority, s.period, s.length, s.deadline);
    decisions.add(d.admitted ? 1 : 0);
    decisions.add(d.bound);
    decisions.add(d.handle);
    decisions.add(d.route_order);
    decisions.add(d.flit_valid ? 1 : 0);
    decisions.add(d.would_break.size());
    for (const AdmissionController::Handle h : d.would_break) {
      decisions.add(h);
    }
    return d.admitted ? d.handle : AdmissionController::Handle{-1};
  };
  const auto cal_u = [&ctrl] { return ctrl.engine().stats().bound_recomputes; };

  std::vector<AdmissionController::Handle> held;
  std::uint64_t calls = cal_u();
  double t0 = now_s();
  for (const core::MessageStream& s : population) {
    held.push_back(request(s));
  }
  std::printf("set-up: %zu of %zu admitted in %.3f s, %" PRIu64 " Cal_U\n",
              ctrl.size(), population.size(), now_s() - t0, cal_u() - calls);

  calls = cal_u();
  t0 = now_s();
  for (std::size_t slot = 0; slot < population.size(); ++slot) {
    if (held[slot] >= 0) {
      decisions.add(ctrl.remove(held[slot]) ? 1 : 0);
    }
    held[slot] = request(population[static_cast<StreamId>(slot)]);
  }
  const double elapsed = now_s() - t0;
  std::printf("pass: %zu decisions in %.3f s (%.1f /s), %" PRIu64
              " Cal_U, %zu held\n",
              population.size(), elapsed,
              static_cast<double>(population.size()) / elapsed,
              cal_u() - calls, ctrl.size());

  // Reading a bound the last pass left stale computes it.
  Fnv1a bounds;
  calls = cal_u();
  for (std::size_t id = 0; id < ctrl.size(); ++id) {
    bounds.add(ctrl.engine().handle_of(static_cast<StreamId>(id)));
    bounds.add(ctrl.engine().bound_at(static_cast<StreamId>(id)));
  }
  std::printf("final bounds: %zu read, %" PRIu64 " Cal_U\n", ctrl.size(),
              cal_u() - calls);
  std::printf("decisions digest 0x%016" PRIx64 "\n", decisions.value());
  std::printf("bounds digest 0x%016" PRIx64 "\n", bounds.value());

  const bool decisions_ok =
      check_digest(args, "expect-decisions", decisions.value());
  const bool bounds_ok = check_digest(args, "expect-bounds", bounds.value());
  const bool ok = decisions_ok && bounds_ok;
  if (args.has("expect-decisions") || args.has("expect-bounds")) {
    std::printf("%s\n", ok ? "digests match" : "DIGEST MISMATCH");
  }
  return ok ? 0 : 1;
}
