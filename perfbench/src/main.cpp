// perfbench: the end-to-end benchmark binary.  run.py builds it and runs
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --inputs DIR --wormrtd PATH --run-dir DIR [--trace-out FILE]
//
// which prints one line per figure (name, value, unit, sample count): the
// end-to-end set first, then the same figures under the workload's own
// names, then with --trace 1 the per-layer set.  Last comes one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
// The metrics are the end-to-end set, or with --trace 1 the per-layer
// set.  Exit status is 0 only when every operation succeeded and every
// output was correct.
//
//   perfbench --generate DIR       writes the pinned inputs
//   perfbench --probe-setup --inputs DIR   (offline_tables set-up probe)

#include <execinfo.h>
#include <signal.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --inputs DIR --wormrtd PATH --run-dir DIR "
               "[--trace-out FILE]\n"
               "       perfbench --generate DIR\n"
               "       perfbench --probe-setup --inputs DIR\n");
  return 2;
}

/// Prints a backtrace on a fatal signal, then dies of it.
void on_fatal(int sig) {
  void* frames[64];
  const int n = ::backtrace(frames, 64);
  ::backtrace_symbols_fd(frames, n, STDERR_FILENO);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

std::string self_path(const char* argv0) {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) {
    return argv0;
  }
  buf[n] = '\0';
  return buf;
}

void print_metric(const char* group, const Metric& m) {
  std::printf("%-10s %-44s %16.6f %-6s n=%lld%s%s\n", group, m.name.c_str(),
              m.value, m.unit.c_str(), static_cast<long long>(m.samples),
              m.note.empty() ? "" : " ", m.note.c_str());
}

std::string json_line(const Report& report, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += report.mismatches.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  ::signal(SIGSEGV, on_fatal);
  ::signal(SIGABRT, on_fatal);
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return usage();
    }
    const bool has_value = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    args[key.substr(2)] = has_value ? argv[++i] : "";
  }
  if (args.count("generate") != 0) {
    return generate_inputs(args["generate"]);
  }
  if (args.count("probe-setup") != 0) {
    return probe_offline_setup(args["inputs"]);
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "inputs", "wormrtd", "run-dir"}) {
    if (args.count(required) == 0) {
      return usage();
    }
  }
  Options o;
  o.workload = args["workload"];
  o.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  o.seconds = std::atoi(args["seconds"].c_str());
  o.trace = args["trace"] == "1";
  o.inputs = args["inputs"];
  o.wormrtd = args["wormrtd"];
  o.run_dir = args["run-dir"];
  o.self = self_path(argv[0]);
  if (o.seconds < 1) {
    return usage();
  }
  std::string error;
  if (!make_dirs(o.run_dir, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  confine_to_one_cpu();
  Spans spans(o.trace);
  Report report;
  bool ran = false;
  if (o.workload == "admit_200") {
    ran = run_admit_200(o, spans, report);
  } else if (o.workload == "service_20") {
    ran = run_service_20(o, spans, report);
  } else if (o.workload == "offline_tables") {
    ran = run_offline_tables(o, spans, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  if (!ran) {
    return 1;
  }
  if (o.trace && args.count("trace-out") != 0 &&
      !spans.write(args["trace-out"])) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args["trace-out"].c_str());
  }

  std::printf("workload %s seed %llu (%s run)\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced");
  const char* group = o.trace ? "traced" : "untraced";
  for (const Metric& m : report.end_to_end) {
    print_metric(group, m);
  }
  for (const Metric& m : report.detail) {
    print_metric(group, m);
  }
  for (const Metric& m : report.per_layer) {
    print_metric("layer", m);
  }
  for (const std::string& what : report.mismatches) {
    std::printf("MISMATCH %s\n", what.c_str());
  }
  std::printf("%s\n",
              json_line(report, o.trace ? report.per_layer : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return report.mismatches.empty() && report.failed == 0 ? 0 : 1;
}
