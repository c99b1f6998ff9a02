#include "fuzz/fuzzer.hpp"

#include <chrono>
#include <filesystem>

#include "fuzz/shrink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wormrt::fuzz {

std::uint64_t RunStats::violations_of(const std::string& invariant) const {
  std::uint64_t n = 0;
  for (const Failure& f : failures) {
    n += f.invariant == invariant ? 1 : 0;
  }
  return n;
}

svc::Json RunStats::to_json() const {
  svc::Json invariants = svc::Json::object();
  for (const char* name :
       {kInvariantFlit, kInvariantEquivalence, kInvariantMonotonicity,
        kInvariantProtocol, kInvariantRecovery, kInvariantFault,
        kInvariantReplication}) {
    invariants.set(name,
                   static_cast<std::int64_t>(violations_of(name)));
  }

  svc::Json failure_list = svc::Json::array();
  for (const Failure& f : failures) {
    svc::Json j = svc::Json::object();
    j.set("seed", static_cast<std::int64_t>(f.seed));
    j.set("invariant", f.invariant);
    j.set("detail", f.detail);
    j.set("ops_before", static_cast<std::int64_t>(f.ops_before));
    j.set("ops_after", static_cast<std::int64_t>(f.ops_after));
    j.set("shrink_attempts", f.shrink_attempts);
    j.set("corpus_file", f.corpus_file);
    failure_list.push_back(std::move(j));
  }

  svc::Json report = svc::Json::object();
  report.set("seed_start", static_cast<std::int64_t>(seed_start));
  report.set("seeds_run", static_cast<std::int64_t>(seeds_run));
  report.set("violations", static_cast<std::int64_t>(failures.size()));
  report.set("invariant_violations", std::move(invariants));
  report.set("failures", std::move(failure_list));
  report.set("elapsed_seconds", elapsed_seconds);
  return report;
}

RunStats run_fuzz(const FuzzOptions& options) {
  OBS_SPAN("run_fuzz");
  const auto t0 = std::chrono::steady_clock::now();
  RunStats stats;
  stats.seed_start = options.seed_start;

  // The fuzzer feeds the process-global registry (one fuzz binary = one
  // process), unlike svc::Service's per-instance one.
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& seeds_total =
      reg.counter("wormrt_fuzz_seeds_total", {},
                  "Fuzz seeds generated and checked.");

  const auto narrate = [&](const std::string& line) {
    if (options.on_progress) {
      options.on_progress(line);
    }
  };

  for (std::uint64_t k = 0; k < options.seeds; ++k) {
    const std::uint64_t seed = options.seed_start + k;
    const Scenario scenario = generate_scenario(seed, options.gen);
    const auto violation = check_scenario(scenario, options.check);
    ++stats.seeds_run;
    seeds_total.inc();
    if (!violation.has_value()) {
      continue;
    }
    reg.counter("wormrt_fuzz_violations_total",
                {{"invariant", violation->invariant}},
                "Invariant violations found, by invariant.")
        .inc();

    Failure failure;
    failure.seed = seed;
    failure.invariant = violation->invariant;
    failure.detail = violation->detail;
    failure.ops_before = scenario.ops.size();
    narrate("seed " + std::to_string(seed) + ": " + violation->invariant +
            " violated: " + violation->detail);

    Scenario reproducer = scenario;
    if (options.shrink) {
      const ShrinkResult shrunk = shrink_scenario(
          scenario,
          [&](const Scenario& candidate) {
            const auto v = check_scenario(candidate, options.check);
            return v.has_value() && v->invariant == failure.invariant;
          },
          options.max_shrink_checks);
      reproducer = shrunk.scenario;
      failure.shrink_attempts = shrunk.attempts;
      narrate("seed " + std::to_string(seed) + ": shrunk " +
              std::to_string(scenario.ops.size()) + " -> " +
              std::to_string(reproducer.ops.size()) + " ops in " +
              std::to_string(shrunk.attempts) + " attempts");
    }
    failure.ops_after = reproducer.ops.size();

    if (!options.corpus_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.corpus_dir, ec);
      const std::string path = options.corpus_dir + "/seed" +
                               std::to_string(seed) + "_" + failure.invariant +
                               ".corpus";
      if (save_scenario(path, reproducer)) {
        failure.corpus_file = path;
        narrate("seed " + std::to_string(seed) + ": reproducer written to " +
                path);
      } else {
        narrate("seed " + std::to_string(seed) +
                ": FAILED to write reproducer to " + path);
      }
    }
    stats.failures.push_back(std::move(failure));
  }

  stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return stats;
}

std::optional<Violation> replay_corpus_file(const std::string& path,
                                            const CheckConfig& config) {
  const ScenarioParseResult loaded = load_scenario(path);
  if (!loaded.ok()) {
    return Violation{"corpus", path + ": " + loaded.error};
  }
  return check_scenario(loaded.scenario, config);
}

}  // namespace wormrt::fuzz
