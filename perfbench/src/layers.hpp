#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/analysis_config.hpp"
#include "core/message_stream.hpp"
#include "inputs.hpp"
#include "svc/journal.hpp"
#include "svc/json.hpp"

/// \file layers.hpp
/// In-process replays of a workload's own operations through each layer's
/// public entry point, timed with spans from this benchmark's code.  The
/// daemon workloads use core_replay() to check every decision; traced
/// runs call measure_layers() for the per-layer metrics.
///
/// Operation shape, shared by every replay: a setup that requests every
/// slot of the population once, in slot order, then churn steps.  A step
/// on slot s is REMOVE (when s holds a channel), REQUEST, and — when the
/// request was admitted — QUERY of the new handle.

namespace perfbench {

struct CoreDecision {
  bool admitted = false;
  std::int64_t bound = -1;
  std::int64_t handle = -1;
  std::int64_t route_order = 0;

  bool operator==(const CoreDecision&) const = default;
};

struct CoreLog {
  /// REQUEST decisions: the setup's, then one per step.
  std::vector<CoreDecision> requests;
  /// Per step: -1 no REMOVE issued, 0 REMOVE failed, 1 REMOVE succeeded.
  std::vector<int> removes;
  /// Bound recomputations (IncrementalAnalyzer::Stats) per step.
  std::vector<double> step_recomputes;
  /// Whether each timed REQUEST was rejected (its trial rolled back).
  std::vector<bool> rejected;
  /// The journal records a primary writes for this history, LSN 1..N,
  /// and how many of them exist after the setup and after each step.
  std::vector<wormrt::svc::JournalRecord> records;
  std::size_t setup_records = 0;
  std::vector<std::size_t> records_after_step;
  /// The population standing after the last step, in engine order.
  wormrt::core::StreamSet standing;
};

/// Protocol lines of the operations above.
std::string request_line(const Row& row);
/// {"verb": verb, "handle": handle}; no handle when \p handle < 0.
std::string verb_line(const char* verb, std::int64_t handle);
/// Whether a reply says "ok": true.
bool reply_ok(const wormrt::svc::Json& reply);
/// The decision carried by a REQUEST reply.
CoreDecision decision_of(const wormrt::svc::Json& reply);

/// Replays setup + \p steps through an in-process AdmissionController on
/// a \p cols x \p rows mesh.  Spans: core.admit_population, core.request,
/// core.remove, core.query.
CoreLog core_replay(const std::vector<Row>& population, int cols, int rows,
                    const std::vector<int>& steps,
                    const wormrt::core::AnalysisConfig& config, Spans& spans);

/// Journal records appended, group commits, and REQUEST decisions.
struct JournalCounts {
  double appends = 0.0;
  double commits = 0.0;
  double decisions = 0.0;
};

struct LayerInput {
  int cols = 0;
  int rows = 0;
  std::vector<Row> population;
  std::vector<int> steps;
  /// The daemon's analysis config (num_threads included).
  wormrt::core::AnalysisConfig config;
  /// Private scratch directory for state dirs and the socket.
  std::string scratch;
  /// True when the engine takes milliseconds per call: the service's
  /// self time is then below the jitter of the core time subtracted from
  /// it, and the svc.service self times are printed as unresolved.
  bool engine_bound = false;
  /// False when the workload times planning and flitsim itself (it then
  /// records core.plan_* and flitsim.run spans and passes the counts).
  bool plan_and_simulate = true;
  std::vector<double> adjust_iterations;
  std::vector<double> flit_events;
  /// Journal counters the workload read from a live daemon's METRICS;
  /// when unset they come from the in-process service instead.
  std::optional<JournalCounts> journal;
};

/// Runs every in-process layer replay and adds the per-layer metrics to
/// \p report.  \p core is the core_replay() of \p in when the workload
/// already ran it (with spans on); null runs it here.  A replay that
/// disagrees with the core replay, or a layer call that fails, is a
/// report mismatch.
void measure_layers(const LayerInput& in, Spans& spans, Report& report,
                    const CoreLog* core);

/// Reads the counter or histogram count \p name (summed over labels) from
/// a METRICS reply; nullopt when absent.
std::optional<double> metric_value(const std::string& metrics_reply,
                                   const std::string& name);

}  // namespace perfbench
