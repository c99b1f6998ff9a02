#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

/// \file workloads.hpp
/// The workloads.  Each fills \p report and returns false only when it
/// could not run at all (then no result is printed).

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// perfbench/inputs: the pinned input files.
  std::string inputs;
  /// Absolute path of the wormrtd binary built from this checkout.
  std::string wormrtd;
  /// Absolute path of this binary (the offline set-up probe re-runs it).
  std::string self;
  /// Private scratch directory inside the checkout, relative to the
  /// working directory (it holds Unix socket paths, which are short).
  std::string run_dir;
};

bool run_admit_200(const Options& o, Spans& spans, Report& report);
bool run_service_20(const Options& o, Spans& spans, Report& report);
bool run_offline_tables(const Options& o, Spans& spans, Report& report);

/// The offline set-up probe: loads and routes every pinned draw, prints
/// READY where the first plan call would start, and exits.
int probe_offline_setup(const std::string& inputs);

}  // namespace perfbench
