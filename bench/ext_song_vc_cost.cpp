// Extension — the VC-cost question behind the paper's Section 3 choice.
// The paper provisions one virtual channel per priority level and notes
// that Song's throttle-and-preempt achieves the same arrival behaviour
// "with a smaller number of virtual channels" at the price of killed
// and retransmitted messages.  This bench pits the two router designs
// against each other on the Table-3 workload: the per-priority scheme
// with 4 VCs versus throttle-and-preempt with 1..4 VCs.
//
// Exits 1 when the expected shape breaks: throttle-and-preempt's P3
// delay must stay within 10 % of the per-priority router's at every VC
// count, and its retransmissions must be positive at 1 VC and never
// rise as VCs are added.

#include <cmath>
#include <cstdio>

#include "common/experiment.hpp"
#include "util/table.hpp"

int main() {
  using namespace wormrt;
  std::printf(
      "Extension — per-priority VCs vs Song-style throttle-and-preempt "
      "(20 streams, 4 levels)\n\n");
  util::Table table({"router", "VCs", "P3 actual", "P0 actual",
                     "retransmits", "wasted flits", "violations"});

  struct Row {
    double top;
    std::int64_t retransmissions;
  };
  const auto run = [&](const char* name, flitsim::VcMode policy,
                       int vcs) -> Row {
    bench::ExperimentParams params;
    params.num_streams = 20;
    params.priority_levels = 4;
    params.replications = 3;
    params.policy = policy;
    params.num_vcs_override = vcs;
    const bench::ExperimentResult r = bench::run_experiment(params);
    double top = 0, bottom = 0;
    for (const auto& row : r.rows) {
      if (row.priority == 3) {
        top = row.actual_mean;
      }
      if (row.priority == 0) {
        bottom = row.actual_mean;
      }
    }
    table.row()
        .cell(name)
        .cell(static_cast<std::int64_t>(vcs))
        .cell(top, 1)
        .cell(bottom, 1)
        .cell(r.retransmissions)
        .cell(r.flits_dropped)
        .cell(r.bound_violations);
    return Row{top, r.retransmissions};
  };

  const Row paper = run("per-priority VCs (paper)",
                        flitsim::VcMode::kPerPriority, 4);
  bool shape_ok = true;
  std::int64_t previous = 0;
  for (const int vcs : {1, 2, 3, 4}) {
    const Row row =
        run("throttle-and-preempt", flitsim::VcMode::kThrottlePreempt, vcs);
    const bool top_close = std::abs(row.top - paper.top) <= 0.1 * paper.top;
    const bool retransmits_ok = vcs == 1 ? row.retransmissions > 0
                                         : row.retransmissions <= previous;
    if (!top_close || !retransmits_ok) {
      std::fprintf(stderr,
                   "shape broken at %d VCs: P3 %.1f vs %.1f, %lld "
                   "retransmissions\n",
                   vcs, row.top, paper.top,
                   static_cast<long long>(row.retransmissions));
      shape_ok = false;
    }
    previous = row.retransmissions;
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "\nExpected shape: throttle-and-preempt keeps top-priority delays "
      "preemption-fast with as little as one VC, but pays in dropped "
      "flits and retransmissions that grow as VCs shrink; its throttled "
      "(one message per source) injection also stretches low-priority "
      "delays under load.  Shape %s.\n",
      shape_ok ? "holds" : "BROKEN");
  return shape_ok ? 0 : 1;
}
