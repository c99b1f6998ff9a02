#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <regex>
#include <string>

#include "fuzz/fuzzer.hpp"
#include "fuzz/invariants.hpp"
#include "fuzz/scenario.hpp"
#include "fuzz/shrink.hpp"
#include "svc/json.hpp"

namespace wormrt::fuzz {
namespace {

// ---------------------------------------------------------------- scenario

TEST(Scenario, GenerationIsDeterministic) {
  const Scenario a = generate_scenario(42);
  const Scenario b = generate_scenario(42);
  EXPECT_EQ(a.topo.kind, b.topo.kind);
  EXPECT_EQ(a.topo.a, b.topo.a);
  EXPECT_EQ(a.topo.b, b.topo.b);
  EXPECT_EQ(a.priority_levels, b.priority_levels);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_NE(a.ops, generate_scenario(43).ops);
}

TEST(Scenario, GenerationRespectsParams) {
  GenParams params;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Scenario s = generate_scenario(seed, params);
    EXPECT_GE(static_cast<int>(s.ops.size()), params.min_ops);
    EXPECT_LE(static_cast<int>(s.ops.size()), params.max_ops);
    const int nodes = s.topo.num_nodes();
    for (const Op& op : s.ops) {
      if (op.kind == Op::Kind::kRemove) {
        ASSERT_GE(op.target, 0);
        ASSERT_LT(op.target, static_cast<int>(s.ops.size()));
        EXPECT_EQ(s.ops[static_cast<std::size_t>(op.target)].kind,
                  Op::Kind::kAdd);
        continue;
      }
      EXPECT_GE(op.src, 0);
      EXPECT_LT(op.src, nodes);
      EXPECT_GE(op.dst, 0);
      EXPECT_LT(op.dst, nodes);
      EXPECT_NE(op.src, op.dst);
      if (op.kind != Op::Kind::kAdd) {
        continue;  // link mutations carry only channel endpoints
      }
      EXPECT_GE(op.priority, 1);
      EXPECT_LE(op.priority, s.priority_levels);
      EXPECT_GE(op.length, params.length_min);
      EXPECT_LE(op.length, op.period);
      EXPECT_GE(op.deadline, op.length);
      EXPECT_LE(op.deadline, op.period);  // deadline_within_period
    }
  }
}

TEST(Scenario, CorpusTextRoundTrips) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Scenario original = generate_scenario(seed);
    const ScenarioParseResult parsed =
        scenario_from_text(scenario_to_text(original));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.scenario.topo.kind, original.topo.kind);
    EXPECT_EQ(parsed.scenario.topo.a, original.topo.a);
    EXPECT_EQ(parsed.scenario.priority_levels, original.priority_levels);
    EXPECT_EQ(parsed.scenario.seed, original.seed);
    EXPECT_EQ(parsed.scenario.ops, original.ops);
  }
}

TEST(Scenario, ParserRejectsMalformedInput) {
  EXPECT_FALSE(scenario_from_text("").ok());
  EXPECT_FALSE(scenario_from_text("not-a-corpus v1\n").ok());
  // Missing topology before the first add.
  EXPECT_FALSE(
      scenario_from_text("wormrt-fuzz-corpus v1\nadd 0 1 1 10 2 10\n").ok());
  const std::string header = "wormrt-fuzz-corpus v1\ntopology mesh 4x4\n";
  // Self-loop, out-of-range node, non-positive period.
  EXPECT_FALSE(scenario_from_text(header + "add 3 3 1 10 2 10\n").ok());
  EXPECT_FALSE(scenario_from_text(header + "add 0 16 1 10 2 10\n").ok());
  EXPECT_FALSE(scenario_from_text(header + "add 0 1 1 0 2 10\n").ok());
  // Remove pointing at nothing / at another remove.
  EXPECT_FALSE(scenario_from_text(header + "remove 0\n").ok());
  EXPECT_FALSE(scenario_from_text(header + "add 0 1 1 10 2 10\nremove 0\nremove 1\n").ok());
  // A well-formed file with comments parses.
  EXPECT_TRUE(scenario_from_text(header + "# comment\nadd 0 1 1 10 2 10\nremove 0\n").ok());
}

// -------------------------------------------------------------- invariants

TEST(Invariants, FixedSeedBlockIsClean) {
  // The CI smoke block in miniature: every oracle on 20 seeds.  Any
  // regression in the analysis, the incremental engine, the simulator,
  // or the protocol shows up here as a named invariant violation.
  CheckConfig config;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto violation = check_scenario(generate_scenario(seed), config);
    EXPECT_FALSE(violation.has_value())
        << "seed " << seed << ": " << violation->invariant << ": "
        << violation->detail;
  }
}

TEST(Invariants, SocketProtocolMatchesInProcess) {
  CheckConfig config;
  config.protocol_over_socket = true;
  config.check_equivalence = false;
  config.check_monotonicity = false;
  const auto violation = check_scenario(generate_scenario(7), config);
  EXPECT_FALSE(violation.has_value())
      << violation->invariant << ": " << violation->detail;
}

TEST(Invariants, FaultInjectionIsDetected) {
  // Tightening the bound manufactures a flit-soundness violation on
  // healthy code — proof the oracle actually compares something — on
  // the first generated scenario of every topology.
  CheckConfig config;
  config.soundness_tightening = 1000;
  for (const TopoKind kind :
       {TopoKind::kMesh, TopoKind::kTorus, TopoKind::kHypercube}) {
    std::uint64_t seed = 1;
    while (generate_scenario(seed).topo.kind != kind) {
      ++seed;
    }
    const auto violation = check_scenario(generate_scenario(seed), config);
    ASSERT_TRUE(violation.has_value()) << to_string(kind) << " seed " << seed;
    EXPECT_EQ(violation->invariant, kInvariantFlit) << violation->detail;
  }
}

TEST(Invariants, FaultOracleDetectsSkewedCache) {
  // Detection proof for the fault-repair oracle: skewing the
  // from-scratch reference by one cycle must flag healthy code —
  // proof the audit really compares cached bounds against a clean
  // recomputation of the surviving set.
  CheckConfig config;
  config.fault_oracle_skew = 1;
  config.check_protocol = false;  // isolate the fault-repair oracle
  config.check_recovery = false;
  int hits = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto violation = check_scenario(generate_scenario(seed), config);
    if (violation.has_value()) {
      EXPECT_EQ(violation->invariant, kInvariantFault) << violation->detail;
      // As for replication: the report prints the skewed reference.
      const std::size_t at = violation->detail.find("cached bound ");
      ASSERT_NE(at, std::string::npos) << violation->detail;
      long long cached = 0, reference = 0;
      ASSERT_EQ(std::sscanf(violation->detail.c_str() + at,
                            "cached bound %lld != from-scratch %lld", &cached,
                            &reference),
                2)
          << violation->detail;
      EXPECT_EQ(reference, cached + config.fault_oracle_skew)
          << violation->detail;
      ++hits;
    }
  }
  // Scenarios without a single surviving stream cannot trip the audit;
  // across ten seeds at least one must.
  EXPECT_GT(hits, 0);
}

TEST(Invariants, FlitOracleDetectsDepthOnePipeliningLoss) {
  // Detection proof for the flit-accurate oracle: depth-1 buffers expose
  // the 2-cycle credit round trip, so an uncontended worm's tail lands
  // at h + 2(C-1) — beyond the analytic bound L_i = h + C - 1, which
  // assumes full pipelining.  Forcing depth 1 therefore manufactures a
  // flit-soundness violation on healthy code, proving the oracle
  // actually measures the flit-level router.
  Scenario scenario;
  scenario.topo.kind = TopoKind::kMesh;
  scenario.topo.a = 4;
  scenario.topo.b = 1;
  scenario.priority_levels = 1;
  Op op;
  op.src = 0;
  op.dst = 3;
  op.priority = 1;
  op.period = 1000;
  op.length = 5;
  op.deadline = 1000;
  scenario.ops.push_back(op);

  CheckConfig config;
  config.check_equivalence = false;
  config.check_monotonicity = false;
  config.check_protocol = false;
  config.check_recovery = false;
  config.analysis.vc_buffer_depth = 1;
  const auto violation = check_scenario(scenario, config);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->invariant, kInvariantFlit);

  // At the documented depth the same scenario is clean.
  config.analysis.vc_buffer_depth = 4;
  EXPECT_FALSE(check_scenario(scenario, config).has_value());
}

TEST(Invariants, RecoveryOracleSurvivesCrashChurn) {
  // The crash/recovery oracle alone, over enough seeds to hit every
  // crash shape: mid-churn, post-compaction, torn-tail, mutilated tail.
  CheckConfig config;
  config.check_equivalence = false;
  config.check_monotonicity = false;
  config.check_protocol = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto violation = check_scenario(generate_scenario(seed), config);
    EXPECT_FALSE(violation.has_value())
        << "seed " << seed << ": " << violation->invariant << ": "
        << violation->detail;
  }
}

TEST(Invariants, CorruptingAnAcknowledgedRecordIsDetected) {
  // Detection proof for the recovery oracle: damage a record recovery
  // is NOT allowed to discard and the invariant must cry foul — on some
  // seed.  (Seeds whose corrupted byte lands in a record that happens
  // not to change the final engine state can stay silent; one loud seed
  // proves the comparison has teeth.)
  CheckConfig config;
  config.check_equivalence = false;
  config.check_monotonicity = false;
  config.check_protocol = false;
  config.recovery_corrupt_acknowledged = true;
  int detected = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto violation = check_scenario(generate_scenario(seed), config);
    if (violation.has_value()) {
      EXPECT_EQ(violation->invariant, kInvariantRecovery);
      ++detected;
    }
  }
  EXPECT_GT(detected, 0);
}

TEST(Invariants, ReplicationOracleSurvivesChurnAndFailover) {
  // The replication oracle alone, over enough seeds to hit every shape:
  // pure streaming, follower crash + resume, small-buffer floor rise
  // forcing a snapshot bootstrap mid-churn, and post-PROMOTE decision
  // parity.
  CheckConfig config;
  config.check_flit = false;
  config.check_equivalence = false;
  config.check_monotonicity = false;
  config.check_protocol = false;
  config.check_recovery = false;
  config.check_fault = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto violation = check_scenario(generate_scenario(seed), config);
    EXPECT_FALSE(violation.has_value())
        << "seed " << seed << ": " << violation->invariant << ": "
        << violation->detail;
  }
}

TEST(Invariants, ReplicationOracleDetectsSkewedReplay) {
  // Detection proof for the replication oracle: comparing the
  // follower's bounds against primary + 1 must flag healthy code —
  // proof the equality check really reads both engines rather than
  // vacuously passing.
  CheckConfig config;
  config.check_flit = false;
  config.check_equivalence = false;
  config.check_monotonicity = false;
  config.check_protocol = false;
  config.check_recovery = false;
  config.check_fault = false;
  config.replication_skew = 1;
  int hits = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto violation = check_scenario(generate_scenario(seed), config);
    if (violation.has_value()) {
      EXPECT_EQ(violation->invariant, kInvariantReplication)
          << violation->detail;
      // The report prints the value it compared, the primary's bound
      // plus the skew, so the two bounds it names differ by the skew.
      long long follower = 0, primary = 0;
      ASSERT_EQ(std::sscanf(violation->detail.c_str(),
                            "follower bound %lld != primary %lld", &follower,
                            &primary),
                2)
          << violation->detail;
      EXPECT_EQ(primary, follower + config.replication_skew)
          << violation->detail;
      ++hits;
    }
  }
  // Scenarios whose churn leaves the population empty cannot trip the
  // bound comparison; across ten seeds at least one must.
  EXPECT_GT(hits, 0);
}

TEST(Invariants, DetectionProofFindingsArePinned) {
  // What each injection mode finds on a fixed seed block, folded into one
  // FNV-1a digest per mode: an oracle that still fires but now reports a
  // different finding (another invariant, op, stream or number) changes
  // the digest.  Each mode runs only the oracle it targets.  State dirs
  // carry a random mkdtemp suffix, so their paths are masked first.  A
  // change that moves a finding must say why before it re-records.
  struct Mode {
    const char* name;
    void (*inject)(CheckConfig&);
    std::uint64_t digest;
  };
  const Mode modes[] = {
      {"soundness_tightening",
       [](CheckConfig& c) {
         c.check_fault = c.check_recovery = c.check_replication = false;
         c.soundness_tightening = 40;
       },
       3801337652827813466ull},
      {"fault_oracle_skew",
       [](CheckConfig& c) {
         c.check_flit = c.check_protocol = false;
         c.check_recovery = c.check_replication = false;
         c.fault_oracle_skew = 1;
       },
       721073140008352708ull},
      {"replication_skew",
       [](CheckConfig& c) {
         c.check_flit = c.check_protocol = false;
         c.check_fault = c.check_recovery = false;
         c.replication_skew = 1;
       },
       3691520641723330016ull},
      {"recovery_corrupt_acknowledged",
       [](CheckConfig& c) {
         c.check_flit = c.check_protocol = false;
         c.check_fault = c.check_replication = false;
         c.recovery_corrupt_acknowledged = true;
       },
       2263497527446162593ull},
  };
  const std::regex state_dir("/[^ :]*wormrt-[a-z-]+-[A-Za-z0-9]{6}");
  for (const Mode& mode : modes) {
    CheckConfig config;
    config.analysis.vc_buffer_depth = 4;
    config.check_equivalence = false;
    config.check_monotonicity = false;
    mode.inject(config);
    std::uint64_t digest = 14695981039346656037ull;
    std::string findings;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const auto v = check_scenario(generate_scenario(seed), config);
      const std::string line =
          std::to_string(seed) + " " +
          (v.has_value() ? v->invariant + ": " +
                               std::regex_replace(v->detail, state_dir,
                                                  "<state-dir>")
                         : std::string("clean")) +
          "\n";
      for (const unsigned char c : line) {
        digest = (digest ^ c) * 1099511628211ull;
      }
      findings += line;
    }
    EXPECT_EQ(digest, mode.digest) << mode.name << " found:\n" << findings;
  }
}

// ------------------------------------------------------------------ shrink

TEST(Shrink, MinimisesAgainstArtificialPredicate) {
  // Predicate: "some add has length >= 5".  The minimal reproducer is a
  // single add with length exactly 5.
  const Scenario start = generate_scenario(3);
  ASSERT_TRUE(std::any_of(start.ops.begin(), start.ops.end(), [](const Op& op) {
    return op.kind == Op::Kind::kAdd && op.length >= 5;
  }));
  const ShrinkResult result = shrink_scenario(start, [](const Scenario& s) {
    return std::any_of(s.ops.begin(), s.ops.end(), [](const Op& op) {
      return op.kind == Op::Kind::kAdd && op.length >= 5;
    });
  });
  ASSERT_EQ(result.scenario.ops.size(), 1u);
  EXPECT_EQ(result.scenario.ops[0].kind, Op::Kind::kAdd);
  EXPECT_EQ(result.scenario.ops[0].length, 5);
  EXPECT_EQ(result.scenario.ops[0].priority, 1);
  EXPECT_GT(result.attempts, 0);
}

TEST(Shrink, KeepsRemoveTargetsConsistent) {
  // Predicate: "at least one remove survives" — forces the shrinker to
  // keep an (add, remove) pair and reindex the target as ops drop out.
  const Scenario start = generate_scenario(3);  // 18 ops, 6 removes
  const ShrinkResult result = shrink_scenario(start, [](const Scenario& s) {
    return std::any_of(s.ops.begin(), s.ops.end(), [](const Op& op) {
      return op.kind == Op::Kind::kRemove;
    });
  });
  ASSERT_EQ(result.scenario.ops.size(), 2u);
  EXPECT_EQ(result.scenario.ops[0].kind, Op::Kind::kAdd);
  EXPECT_EQ(result.scenario.ops[1].kind, Op::Kind::kRemove);
  EXPECT_EQ(result.scenario.ops[1].target, 0);
  // The surviving scenario must still parse (targets are validated).
  EXPECT_TRUE(scenario_from_text(scenario_to_text(result.scenario)).ok());
}

// ------------------------------------------------------------------ fuzzer

TEST(Fuzzer, CleanRunReportsStats) {
  FuzzOptions options;
  options.seed_start = 1;
  options.seeds = 5;
  const RunStats stats = run_fuzz(options);
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.seeds_run, 5u);

  const svc::Json report = stats.to_json();
  ASSERT_TRUE(report.is_object());
  EXPECT_EQ(report.get("seeds_run")->as_int(), 5);
  EXPECT_EQ(report.get("violations")->as_int(), 0);
  ASSERT_NE(report.get("invariant_violations"), nullptr);
  for (const char* name :
       {kInvariantFlit, kInvariantEquivalence, kInvariantMonotonicity,
        kInvariantProtocol, kInvariantRecovery}) {
    ASSERT_NE(report.get("invariant_violations")->get(name), nullptr) << name;
  }
  EXPECT_TRUE(report.get("failures")->is_array());
  // The dumped report is valid single-line JSON.
  std::string error;
  svc::Json::parse(report.dump(), &error);
  EXPECT_TRUE(error.empty()) << error;
}

TEST(Fuzzer, InjectedFailureShrinksAndReplays) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "wormrt_fuzz_test_corpus")
          .string();
  std::filesystem::remove_all(dir);

  FuzzOptions options;
  options.seed_start = 1;
  options.seeds = 2;
  options.corpus_dir = dir;
  options.check.soundness_tightening = 40;  // fault injection
  const RunStats stats = run_fuzz(options);
  ASSERT_FALSE(stats.clean());
  const Failure& failure = stats.failures.front();
  EXPECT_EQ(failure.invariant, kInvariantFlit);
  EXPECT_LT(failure.ops_after, failure.ops_before);
  ASSERT_FALSE(failure.corpus_file.empty());

  // The written reproducer replays deterministically: it fails under the
  // injected config and is clean under the honest one.
  const auto replayed = replay_corpus_file(failure.corpus_file, options.check);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->invariant, kInvariantFlit);
  EXPECT_FALSE(replay_corpus_file(failure.corpus_file, CheckConfig{})
                   .has_value());

  EXPECT_TRUE(replay_corpus_file(dir + "/no_such_file.corpus", CheckConfig{})
                  .has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wormrt::fuzz
