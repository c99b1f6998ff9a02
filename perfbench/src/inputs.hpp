#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/message_stream.hpp"
#include "topo/mesh.hpp"

/// \file inputs.hpp
/// The pinned inputs under perfbench/inputs.  They were generated once
/// (`perfbench --generate DIR`) and are loaded, never regenerated, on
/// every run, so a change to the analysis code cannot silently change the
/// workload it is measured on; run.py checks their SHA-256 digests first.
///
/// File format: CSV with the header `set,src,dst,priority,period,length,
/// deadline`; `set` groups the rows of one stream set (always 0 for the
/// daemon populations).

namespace perfbench {

struct Row {
  std::int64_t set = 0;
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::int64_t priority = 0;
  std::int64_t period = 0;
  std::int64_t length = 0;
  std::int64_t deadline = 0;
};

/// Loads one pinned file; false + \p error on I/O or format problems.
bool load_rows(const std::string& path, std::vector<Row>* rows,
               std::string* error);

/// Splits rows by their `set` column (sets numbered densely from 0).
std::vector<std::vector<Row>> split_sets(const std::vector<Row>& rows);

/// Routes \p rows with X-Y routing on \p mesh into a dense StreamSet.
wormrt::core::StreamSet to_stream_set(const std::vector<Row>& rows,
                                      const wormrt::topo::Mesh& mesh);

/// The shapes of the pinned inputs.
struct InputShape {
  const char* file;
  int cols;
  int rows;
  int streams;
  int levels;
  int sets;
  std::uint64_t seed;
  /// Populations are period-adjusted; offline draws are stored raw,
  /// because planning them is the work that workload measures.
  bool adjust;
};

extern const InputShape kAdmit200Shape;
extern const InputShape kService20Shape;
extern const InputShape kOfflineShape;

/// Writes every pinned input into \p dir.  Returns a process exit code.
int generate_inputs(const std::string& dir);

}  // namespace perfbench
