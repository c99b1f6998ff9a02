// wormrt-fuzz — differential soundness fuzzer (DESIGN.md §8).
//
// Draws random scenarios (topology + admission churn, including
// link_down/link_up topology mutations) from sequential seeds and
// checks each against seven independent oracles: flit-soundness (the
// event-driven flit-accurate router — real VC buffers, credit flow
// control — never delivers a message later than its computed bound, on
// streams with U + 2 <= T), equivalence
// (incremental bounds == from-scratch analysis after every mutation),
// monotonicity (bounds respect the network-latency floor and never
// improve under added interference or pessimistic configs), protocol
// (wire decisions match the in-process controller), recovery (a
// journaled service crashed mid-churn — possibly with a torn tail —
// recovers to exactly the acknowledged state, fault flags and detour
// routes included), fault-repair (after every link mutation the
// surviving bounds equal a from-scratch analysis and no survivor
// crosses a faulted channel), and replication (a follower replaying
// the primary's shipped journal through the REPL_* verbs — with
// random crashes and snapshot bootstraps — converges to bitwise the
// primary's state and makes the identical post-PROMOTE admission
// decision).  Failing seeds are shrunk to minimal reproducers and
// written as corpus files.
//
//   ./wormrt-fuzz --seeds 500
//   ./wormrt-fuzz --seeds 200 --seed-start 1000 --corpus-dir corpus
//   ./wormrt-fuzz --replay-dir ../tests/fuzz_corpus
//   ./wormrt-fuzz --e2e --seeds 50          (protocol over a real socket)
//
// Exit status: 0 clean, 1 violations found, 2 usage error.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "util/cli.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(
      stderr,
      "usage: %s [options] [corpus files to replay...]\n"
      "  --seeds N         seeds to fuzz (default 100)\n"
      "  --seed-start N    first seed (default 1)\n"
      "  --corpus-dir DIR  write shrunk reproducers here (default\n"
      "                    tests/fuzz_corpus relative to the cwd)\n"
      "  --no-shrink       keep failing scenarios full size\n"
      "  --sim-duration N  flit oracle injection window (default 3000)\n"
      "  --phase-seeds N   extra random-phase soundness runs (default 1)\n"
      "  --e2e             replay the protocol over a loopback socket\n"
      "                    instead of in-process dispatch\n"
      "  --no-recovery     skip the crash/recovery oracle (no journal\n"
      "                    state dirs, faster)\n"
      "  --no-flit-oracle  skip the flit-accurate soundness oracle\n"
      "  --no-fault-oracle skip the fault-repair oracle (link_down/\n"
      "                    link_up reconvergence vs from-scratch "
      "analysis)\n"
      "  --no-replication-oracle\n"
      "                    skip the primary/follower replication oracle\n"
      "  --replication-skew N\n"
      "                    compare follower bounds against primary + N —\n"
      "                    a non-zero value must produce violations on\n"
      "                    healthy code (oracle self-test)\n"
      "  --flit-depth N    per-VC buffer depth of the analysed fabric,\n"
      "                    which the flit oracle simulates (default 2,\n"
      "                    as wormrtd; must be >= 2)\n"
      "  --recovery-tmp D  root for per-scenario journal dirs (default\n"
      "                    /tmp)\n"
      "  --threads N       analysis threads per decision (default 1)\n"
      "  --report FILE     write the RunStats JSON here ('-' = stdout)\n"
      "  --replay-dir DIR  replay every *.corpus file in DIR and exit\n",
      program);
  return 2;
}

int replay(const std::vector<std::string>& files,
           const wormrt::fuzz::CheckConfig& check) {
  int violations = 0;
  for (const std::string& file : files) {
    const auto violation = wormrt::fuzz::replay_corpus_file(file, check);
    if (violation.has_value()) {
      ++violations;
      std::fprintf(stderr, "FAIL %s: %s: %s\n", file.c_str(),
                   violation->invariant.c_str(), violation->detail.c_str());
    } else {
      std::printf("ok   %s\n", file.c_str());
    }
  }
  std::printf("replayed %zu corpus file(s), %d violation(s)\n", files.size(),
              violations);
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wormrt;

  const util::Args args(argc, argv);
  if (args.has("help")) {
    return usage(args.program().c_str());
  }

  fuzz::FuzzOptions options;
  options.seeds = static_cast<std::uint64_t>(args.get_int("seeds", 100));
  options.seed_start =
      static_cast<std::uint64_t>(args.get_int("seed-start", 1));
  options.corpus_dir = args.get_string("corpus-dir", "tests/fuzz_corpus");
  options.shrink = !args.has("no-shrink");
  options.check.sim_duration = args.get_int("sim-duration", 3000);
  options.check.phase_seeds =
      static_cast<int>(args.get_int("phase-seeds", 1));
  options.check.protocol_over_socket = args.has("e2e");
  options.check.check_recovery = !args.has("no-recovery");
  options.check.check_flit = !args.has("no-flit-oracle");
  options.check.check_fault = !args.has("no-fault-oracle");
  options.check.check_replication = !args.has("no-replication-oracle");
  options.check.replication_skew = args.get_int("replication-skew", 0);
  options.check.analysis.vc_buffer_depth =
      static_cast<int>(args.get_int("flit-depth", 2));
  options.check.recovery_tmp_root = args.get_string("recovery-tmp", "/tmp");
  options.check.analysis.num_threads =
      static_cast<int>(args.get_int("threads", 1));
  const std::string config_error =
      core::validate_analysis_config(options.check.analysis);
  if (!config_error.empty()) {
    std::fprintf(stderr, "wormrt-fuzz: %s\n", config_error.c_str());
    return 2;
  }
  options.on_progress = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };

  // Replay mode: explicit files and/or every *.corpus under --replay-dir.
  std::vector<std::string> replay_files = args.positional();
  const std::string replay_dir = args.get_string("replay-dir", "");
  if (!replay_dir.empty()) {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(replay_dir, ec)) {
      if (entry.path().extension() == ".corpus") {
        replay_files.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "cannot read --replay-dir %s: %s\n",
                   replay_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  if (!replay_files.empty()) {
    return replay(replay_files, options.check);
  }

  const fuzz::RunStats stats = fuzz::run_fuzz(options);
  const std::string report = stats.to_json().dump();

  const std::string report_path = args.get_string("report", "-");
  if (report_path == "-") {
    std::printf("%s\n", report.c_str());
  } else {
    std::ofstream out(report_path, std::ios::trunc);
    out << report << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write report to %s\n", report_path.c_str());
      return 2;
    }
  }
  std::fprintf(stderr, "%llu seed(s), %zu violation(s), %.1fs\n",
               static_cast<unsigned long long>(stats.seeds_run),
               stats.failures.size(), stats.elapsed_seconds);
  return stats.clean() ? 0 : 1;
}
