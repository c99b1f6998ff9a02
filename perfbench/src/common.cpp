#include "common.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q% of samples at or
  // below it.
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  return mean(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                                  v.begin() + static_cast<std::ptrdiff_t>(hi)));
}

void Report::mismatch(const std::string& what) {
  ++failed;
  mismatches.push_back(what);
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, std::int64_t samples) {
  end_to_end.push_back({name, value, unit, samples, ""});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, std::int64_t samples) {
  per_layer.push_back({name, value, unit, samples, ""});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, std::int64_t samples) {
  detail.push_back({name, value, unit, samples, ""});
}

double HostSpeed::sample() {
  static const std::vector<std::uint32_t> input = [] {
    Rng rng(1);
    std::vector<std::uint32_t> v(1 << 15);
    for (std::uint32_t& x : v) {
      x = static_cast<std::uint32_t>(rng.next());
    }
    return v;
  }();
  std::vector<std::uint32_t> work;
  const double start = now_s();
  double fastest = 1e9;
  for (int k = 0; k < 5; ++k) {
    const double t0 = now_s();
    work = input;
    std::sort(work.begin(), work.end());
    fastest = std::min(fastest, now_s() - t0);
  }
  ms_.push_back(fastest * 1e3);
  return now_s() - start;
}

double HostSpeed::factor() const {
  return ms_.empty() ? 1.0 : percentile(ms_, 50) / kReferenceMs;
}

void Report::normalize(const HostSpeed& host) {
  const double f = host.factor();
  info("host_ref_ms", f * HostSpeed::kReferenceMs, "ms", host.samples());
  for (Metric& m : end_to_end) {
    const bool duration = m.unit == "s" || m.unit == "ms" || m.unit == "us";
    if (!duration && m.unit != "1/s") {
      continue;
    }
    info(m.name + "_raw", m.value, m.unit, m.samples);
    m.value = duration ? m.value / f : m.value * f;
  }
}

int Spans::open(const char* name, std::int64_t request, int parent) {
  if (!enabled_) {
    return -1;
  }
  records_.push_back({name, request, parent, now_s(), 0.0});
  return static_cast<int>(records_.size()) - 1;
}

void Spans::close(int index) {
  if (index >= 0) {
    records_[static_cast<std::size_t>(index)].end = now_s();
  }
}

std::vector<double> Spans::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (name == r.name) {
      out.push_back((r.end - r.start) * 1e6);
    }
  }
  return out;
}

bool Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const double base = records_.empty() ? 0.0 : records_.front().start;
  for (const Record& r : records_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"request\":%lld}\n",
                 r.name, (r.start - base) * 1e6, (r.end - base) * 1e6,
                 r.parent, static_cast<long long>(r.request));
  }
  return std::fclose(f) == 0;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<int> Rng::permutation(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

void confine_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }
}

double peak_rss_mib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  double hwm_kib = 0.0;
  double file_kib = 0.0;
  while (std::getline(in, line)) {
    const auto field = [&](const char* name) {
      return line.rfind(name, 0) == 0
                 ? std::strtod(line.c_str() + std::strlen(name), nullptr)
                 : 0.0;
    };
    hwm_kib += field("VmHWM:");
    file_kib += field("RssFile:") + field("RssShmem:");
  }
  return (hwm_kib - file_kib) / 1024.0;
}

bool Daemon::start(const std::vector<std::string>& argv,
                   const std::string& cwd, const std::string& log_path,
                   double timeout_s, std::string* error) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    // Die with the benchmark, whatever happens to it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);
    }
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDERR_FILENO);
    }
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    if (::chdir(cwd.c_str()) != 0) {
      ::_exit(126);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  out_fd_ = pipe_fds[0];

  // Wait for "READY ..." on the child's stdout.
  std::string out;
  const double deadline = now_s() + timeout_s;
  while (out.find('\n') == std::string::npos) {
    const double left = deadline - now_s();
    if (left <= 0) {
      *error = "no READY line within " + std::to_string(timeout_s) + " s";
      stop();
      return false;
    }
    pollfd p{out_fd_, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) {
      continue;
    }
    if (rc <= 0) {
      continue;
    }
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      *error = "daemon exited before READY (see " + log_path + ")";
      stop();
      return false;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  if (out.rfind("READY", 0) != 0) {
    *error = "unexpected first line from daemon: " + out;
    stop();
    return false;
  }
  return true;
}

bool Daemon::stop() {
  if (pid_ <= 0) {
    return true;
  }
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool reaped = false;
  const double deadline = now_s() + 20.0;
  while (now_s() < deadline) {
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc == pid_ || (rc < 0 && errno != EINTR)) {
      reaped = rc == pid_;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  pid_ = -1;
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void Daemon::kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
  }
  stop();
}

bool make_dirs(const std::string& dir, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "mkdir " + dir + ": " + ec.message();
    return false;
  }
  return true;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
