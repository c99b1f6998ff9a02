#include "inputs.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/workload.hpp"
#include "route/dor.hpp"

namespace perfbench {

using namespace wormrt;

// The 200- and 20-stream populations are the repo's svc_churn /
// BM_AdmissionChurn sets (16x16 mesh, 4 levels, seed 42); the offline
// draws are Table-5-shaped (10x10 mesh, 60 streams, 15 levels).
const InputShape kAdmit200Shape = {"admit_200.csv", 16, 16, 200, 4, 1, 42, true};
const InputShape kService20Shape = {"service_20.csv", 16, 16, 20, 4, 1, 42, true};
const InputShape kOfflineShape = {"offline_tables.csv", 10, 10, 60, 15, 16, 1000,
                                  false};

namespace {

const char kHeader[] = "set,src,dst,priority,period,length,deadline";

}  // namespace

bool load_rows(const std::string& path, std::vector<Row>* rows,
               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    *error = path + ": missing header '" + kHeader + "'";
    return false;
  }
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    Row r;
    char tail = 0;
    const int n = std::sscanf(
        line.c_str(), "%ld,%ld,%ld,%ld,%ld,%ld,%ld%c", &r.set, &r.src, &r.dst,
        &r.priority, &r.period, &r.length, &r.deadline, &tail);
    if (n != 7) {
      *error = path + ": line " + std::to_string(line_no) + " malformed";
      return false;
    }
    rows->push_back(r);
  }
  if (rows->empty()) {
    *error = path + ": no rows";
    return false;
  }
  return true;
}

std::vector<std::vector<Row>> split_sets(const std::vector<Row>& rows) {
  std::vector<std::vector<Row>> sets;
  for (const Row& r : rows) {
    if (static_cast<std::size_t>(r.set) >= sets.size()) {
      sets.resize(static_cast<std::size_t>(r.set) + 1);
    }
    sets[static_cast<std::size_t>(r.set)].push_back(r);
  }
  return sets;
}

core::StreamSet to_stream_set(const std::vector<Row>& rows,
                              const topo::Mesh& mesh) {
  const route::XYRouting xy;
  core::StreamSet set;
  for (const Row& r : rows) {
    set.add(core::make_stream(
        mesh, xy, static_cast<StreamId>(set.size()),
        static_cast<topo::NodeId>(r.src), static_cast<topo::NodeId>(r.dst),
        static_cast<Priority>(r.priority), r.period, r.length, r.deadline));
  }
  return set;
}

int generate_inputs(const std::string& dir) {
  for (const InputShape* shape :
       {&kAdmit200Shape, &kService20Shape, &kOfflineShape}) {
    topo::Mesh mesh(shape->cols, shape->rows);
    const route::XYRouting xy;
    std::ostringstream out;
    out << kHeader << "\n";
    for (int set = 0; set < shape->sets; ++set) {
      core::WorkloadParams wp;
      wp.num_streams = shape->streams;
      wp.priority_levels = shape->levels;
      wp.seed = shape->seed + static_cast<std::uint64_t>(set);
      core::StreamSet streams = core::generate_workload(mesh, xy, wp);
      if (shape->adjust) {
        core::adjust_periods_to_bounds(streams);
      }
      for (const core::MessageStream& s : streams) {
        out << set << "," << s.src << "," << s.dst << "," << s.priority << ","
            << s.period << "," << s.length << "," << s.deadline << "\n";
      }
    }
    const std::string path = dir + "/" + shape->file;
    std::ofstream file(path);
    file << out.str();
    if (!file) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace perfbench
