#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

/// \file common.hpp
/// Benchmark plumbing shared by every workload: clocks and percentiles,
/// the run report, the in-memory span recorder of traced runs, a seeded
/// PRNG and the wormrtd child process.

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_s();

/// Nearest-rank percentile (\p q in [0, 100]) of \p v; 0 when empty.
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// Interquartile mean: the mean of the samples ranked between the first
/// and third quartile.  A central figure like the median, but it does
/// not jump when few, uneven samples leave a gap at the middle rank.
double interquartile_mean(std::vector<double> v);
double sum(const std::vector<double>& v);

/// The host's speed, sampled through a run.  A sample times a fixed CPU
/// task that uses none of the repo's code: sorting the same 32k
/// integers, fastest of five tries.  On a 4-vCPU VM the host ran every
/// workload up to 1.6 times faster for minutes at a time, and this task
/// sped up with them (see README.md).  The judged end-to-end times are
/// therefore scaled to a host on which the task takes kReferenceMs
/// (Report::normalize).
class HostSpeed {
 public:
  static constexpr double kReferenceMs = 2.5;

  /// Takes one sample; returns the seconds it cost, to leave out of any
  /// interval it falls in.
  double sample();
  /// Median sample over kReferenceMs: above 1 on a slower host.
  double factor() const;
  std::int64_t samples() const {
    return static_cast<std::int64_t>(ms_.size());
  }

 private:
  std::vector<double> ms_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
  /// Printed after the figure, e.g. why it cannot be trusted.
  std::string note;
};

/// What one run reports.  `end_to_end` and `per_layer` carry the names
/// BENCHMARK.json declares; `detail` holds workload-specific figures that
/// are printed for people but not judged.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Correctness mismatches (each also counts as a failed operation).
  std::vector<std::string> mismatches;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;

  void mismatch(const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit,
           std::int64_t samples);
  void layer(const std::string& name, double value, const std::string& unit,
             std::int64_t samples);
  void info(const std::string& name, double value, const std::string& unit,
            std::int64_t samples);
  /// Scales the end-to-end times to the reference host: durations are
  /// divided by \p host's factor, rates (1/s) multiplied, memory kept.
  /// The measured values stay in `detail` as <name>_raw, beside
  /// host_ref_ms.
  void normalize(const HostSpeed& host);
};

/// Spans of a traced run: kept in memory, written once at exit.  Each
/// span has a name, start, end, parent span and per-request id.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index, or -1 when tracing is off.
  int open(const char* name, std::int64_t request, int parent);
  void close(int index);

  /// Durations in microseconds of every span called \p name.
  std::vector<double> durations_us(const std::string& name) const;

  /// One JSON object per line: name, start_us, end_us, parent, request.
  bool write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::int64_t request;
    int parent;
    double start;
    double end;
  };
  bool enabled_;
  std::vector<Record> records_;
};

/// RAII span.  Nests under \p parent (an index from Spans::open / Span::
/// index, or -1 for a root span).
class Span {
 public:
  Span(Spans& spans, const char* name, std::int64_t request = -1,
       int parent = -1)
      : spans_(spans), index_(spans.open(name, request, parent)) {}
  ~Span() { spans_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int index() const { return index_; }

 private:
  Spans& spans_;
  int index_;
};

/// splitmix64: a small, fully specified PRNG, so a seed maps to the same
/// operation order on every platform and at every commit.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// A uniformly shuffled 0..n-1.
  std::vector<int> permutation(int n);

 private:
  std::uint64_t state_;
};

/// Confines this process, and every thread and child it starts later,
/// to the last CPU it may use.  A request's hand-offs between the
/// client, the daemon's event loop and its workers then stay on one CPU.
/// On a VM a hand-off to another vCPU waits for the host to run or wake
/// that vCPU, so round trips measured the host: see README.md.
void confine_to_one_cpu();

/// Peak resident memory of a live process, MiB: VmHWM minus the file-
/// backed and shared pages resident now.  Those follow the page cache
/// (fault-around maps whatever is cached), not the program.  0 when
/// unreadable.
double peak_rss_mib(pid_t pid);

/// A child process that announces itself with a READY line: wormrtd, or
/// the offline set-up probe.  start() forks and execs it in its own
/// working directory and waits for that line; the destructor (or stop())
/// terminates and reaps it, so no child outlives the benchmark.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// \p argv[0] is the binary; stderr goes to \p log_path.  False +
  /// \p error when it cannot start or prints no READY line in time.
  bool start(const std::vector<std::string>& argv, const std::string& cwd,
             const std::string& log_path, double timeout_s,
             std::string* error);

  pid_t pid() const { return pid_; }

  /// SIGTERM, then SIGKILL after a grace period; reaps the child.
  /// Returns true when it exited cleanly with status 0.
  bool stop();
  /// SIGKILL and reap, for daemons whose shutdown is not under test.
  void kill();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// Creates \p dir and its parents; false + \p error on failure.
bool make_dirs(const std::string& dir, std::string* error);
/// Removes \p path recursively (best effort).
void remove_tree(const std::string& path);

}  // namespace perfbench
