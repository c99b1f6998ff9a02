// Ablation C — switching policy.  The same Table-3 workload simulated
// under the four arbitration policies, reporting each priority level's
// actual average delay and the bound violations.  Shows (i) why priority
// handling is needed at all (FCFS wrecks high-priority delays), (ii) how
// Li's probabilistic VC scheme sits between FCFS and preemption, and
// (iii) the residual gap between the strict one-VC-per-priority hardware
// and the work-conserving idealisation the analysis charges.
//
// Exits 1 when the expected shape breaks: per-stream lanes (the service
// model the analysis charges) must hold every bound; the per-priority
// hardware may add only the blocking of same-priority peers handing
// over their shared VC (an order of magnitude fewer violations than
// either baseline); Li's scheme and FCFS must each violate some.

#include <algorithm>
#include <cstdio>

#include "common/experiment.hpp"
#include "util/table.hpp"

int main() {
  using namespace wormrt;
  std::printf(
      "Ablation — arbitration policy on the Table-3 workload "
      "(20 streams, 4 levels)\n\n");
  util::Table table({"policy", "P3 actual", "P2 actual", "P1 actual",
                     "P0 actual", "violations"});
  std::int64_t violations[4] = {0, 0, 0, 0};
  int next = 0;
  for (const auto policy :
       {flitsim::VcMode::kPerStreamLane, flitsim::VcMode::kPerPriority,
        flitsim::VcMode::kLiVc, flitsim::VcMode::kFcfs}) {
    bench::ExperimentParams params;
    params.num_streams = 20;
    params.priority_levels = 4;
    params.replications = 3;
    params.policy = policy;
    const bench::ExperimentResult r = bench::run_experiment(params);
    double actual[4] = {0, 0, 0, 0};
    for (const auto& row : r.rows) {
      if (row.priority >= 0 && row.priority < 4) {
        actual[row.priority] = row.actual_mean;
      }
    }
    violations[next++] = r.bound_violations;
    table.row()
        .cell(flitsim::to_string(policy))
        .cell(actual[3], 1)
        .cell(actual[2], 1)
        .cell(actual[1], 1)
        .cell(actual[0], 1)
        .cell(static_cast<std::int64_t>(r.bound_violations));
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  const auto [lane, per_priority, li, fcfs] = violations;
  const bool shape_ok = lane == 0 && li > 0 && fcfs > 0 &&
                        10 * per_priority < std::min(li, fcfs);
  std::printf(
      "\nExpected shape: preemption keeps high-priority delays near "
      "contention-free; per-stream lanes hold every bound, and the "
      "per-priority hardware adds only the credit-return gaps of VC "
      "handovers (an order of magnitude fewer violations than the "
      "baselines); FCFS equalises (inverts) the delays; Li improves "
      "admission odds but not channel bandwidth.  Violations under the "
      "non-preemptive policies quantify blocking the analysis does not "
      "charge.  Shape %s.\n",
      shape_ok ? "holds" : "BROKEN");
  return shape_ok ? 0 : 1;
}
