// wormrt-top — live terminal dashboard for a running wormrtd.
//
//   wormrt-top --socket /tmp/wormrtd.sock              # live, 1s refresh
//   wormrt-top --port 4817 --interval-ms 250
//   wormrt-top --socket /tmp/wormrtd.sock --once       # one plain snapshot
//
// Each refresh polls the daemon's HEALTH, METRICS and HISTORY verbs and
// renders: a health banner with machine-readable reasons, verb counters
// with per-second rates (delta of two consecutive METRICS polls), dispatch
// latency quantiles, the tightest-slack streams joined with reported
// conformance observations, the busiest channels as utilization bars,
// and sparklines of the sampled history series.
//
// --once prints exactly one snapshot without ANSI control sequences so
// the output can be captured in CI logs and diffed.  Exit status: 0 on
// a clean snapshot (or live session ended by SIGINT), 2 on usage or
// transport errors.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "svc/json.hpp"
#include "svc/server.hpp"
#include "util/cli.hpp"

namespace {

using wormrt::svc::Client;
using wormrt::svc::Json;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage(const char* program) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --port N [--host H]) [--once]\n"
      "          [--interval-ms N] [--top N]\n"
      "  --once           print one plain-text snapshot and exit (no ANSI\n"
      "                   escapes; for scripts and CI logs)\n"
      "  --interval-ms N  refresh period in live mode (default 1000)\n"
      "  --top N          rows in the stream/channel tables (default 8)\n",
      program);
  return 2;
}

double num_or(const Json* v, double fallback) {
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

std::int64_t int_or(const Json* v, std::int64_t fallback) {
  return v != nullptr && v->is_number() ? v->as_int() : fallback;
}

std::string str_or(const Json* v, const std::string& fallback) {
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

bool bool_or(const Json* v, bool fallback) {
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

/// One RPC round trip; nullptr-safe accessors downstream tolerate a
/// failed poll (the dashboard shows the last good data instead of
/// crashing mid-session).
bool poll(Client& client, const char* verb, Json* out, std::string* error) {
  Json request = Json::object();
  request.set("verb", verb);
  std::string response;
  if (!client.call(request.dump(), &response, error)) {
    return false;
  }
  std::string parse_error;
  Json reply = Json::parse(response, &parse_error);
  if (!parse_error.empty() || !reply.is_object()) {
    *error = "unparseable " + std::string(verb) + " reply";
    return false;
  }
  *out = std::move(reply);
  return true;
}

/// The child \p name of a METRICS reply's "metrics" block whose label
/// \p key reads \p value (any child when \p key is null), or nullptr.
const Json* metric(const Json& metrics, const std::string& name,
                   const char* key = nullptr, const char* value = nullptr) {
  const Json* block = metrics.get("metrics");
  const Json* list = block != nullptr ? block->get("metrics") : nullptr;
  if (list == nullptr || !list->is_array()) {
    return nullptr;
  }
  for (const Json& child : list->items()) {
    if (str_or(child.get("name"), "") != name) {
      continue;
    }
    const Json* labels = child.get("labels");
    if (key == nullptr ||
        (labels != nullptr && str_or(labels->get(key), "") == value)) {
      return &child;
    }
  }
  return nullptr;
}

/// A counter's or gauge's value from a METRICS reply (0 when absent).
std::int64_t count_of(const Json& metrics, const std::string& name,
                      const char* key = nullptr, const char* value = nullptr) {
  const Json* child = metric(metrics, name, key, value);
  return int_or(child != nullptr ? child->get("value") : nullptr, 0);
}

std::int64_t verb_count(const Json& metrics, const char* verb) {
  return count_of(metrics, "wormrt_requests_total", "verb", verb);
}

/// "#####----- 50.0%" — fixed-width ASCII utilization bar.
std::string bar(double fraction, int width) {
  fraction = std::min(1.0, std::max(0.0, fraction));
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string out;
  for (int i = 0; i < width; ++i) {
    out.push_back(i < filled ? '#' : '-');
  }
  return out;
}

/// Maps a series window onto a 5-level ASCII ramp, newest sample last.
std::string sparkline(const std::vector<double>& values) {
  static const char kRamp[] = "_.-=#";
  if (values.empty()) {
    return "(no samples)";
  }
  double lo = values[0], hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo;
  std::string out;
  for (const double v : values) {
    const double f = span > 0.0 ? (v - lo) / span : 0.0;
    const int level =
        std::min(4, static_cast<int>(f * 5.0));
    out.push_back(kRamp[level]);
  }
  return out;
}

struct RateTracker {
  bool primed = false;
  std::chrono::steady_clock::time_point at;
  std::int64_t requests = 0;
  std::int64_t reports = 0;
  std::int64_t removes = 0;
  double requests_per_s = 0.0;
  double reports_per_s = 0.0;
  double removes_per_s = 0.0;

  void update(const Json& metrics) {
    const auto now = std::chrono::steady_clock::now();
    const std::int64_t requests_now = verb_count(metrics, "REQUEST");
    const std::int64_t reports_now = verb_count(metrics, "REPORT");
    const std::int64_t removes_now = verb_count(metrics, "REMOVE");
    if (primed) {
      const double dt =
          std::chrono::duration<double>(now - at).count();
      if (dt > 0.0) {
        requests_per_s =
            static_cast<double>(requests_now - requests) / dt;
        reports_per_s = static_cast<double>(reports_now - reports) / dt;
        removes_per_s = static_cast<double>(removes_now - removes) / dt;
      }
    }
    primed = true;
    at = now;
    requests = requests_now;
    reports = reports_now;
    removes = removes_now;
  }
};

void render(const Json& health, const Json& metrics, const Json& history,
            const RateTracker& rates, int top_n) {
  // --- health banner ---------------------------------------------------
  const std::string status = str_or(health.get("status"), "unknown");
  std::printf("wormrt-top | health: %s", status.c_str());
  const Json* reasons = health.get("reasons");
  if (reasons != nullptr && reasons->is_array() &&
      !reasons->items().empty()) {
    std::printf("  [");
    bool first = true;
    for (const Json& r : reasons->items()) {
      if (r.is_string()) {
        std::printf("%s%s", first ? "" : "; ", r.as_string().c_str());
        first = false;
      }
    }
    std::printf("]");
  }
  std::printf("\n");

  // --- replication role / epoch / lag ----------------------------------
  const Json* repl = health.get("replication");
  if (repl != nullptr && repl->is_object()) {
    const std::string role = str_or(repl->get("role"), "primary");
    std::printf("replication: role %s  epoch %lld  durable_lsn %lld",
                role.c_str(),
                static_cast<long long>(int_or(repl->get("epoch"), 1)),
                static_cast<long long>(int_or(repl->get("durable_lsn"),
                                              0)));
    if (role == "follower") {
      const std::int64_t primary =
          int_or(repl->get("primary_durable_lsn"), 0);
      const std::int64_t local = int_or(repl->get("durable_lsn"), 0);
      std::printf("  %s  lag %lld",
                  bool_or(repl->get("connected"), false) ? "connected"
                                                         : "DISCONNECTED",
                  static_cast<long long>(
                      primary > local ? primary - local : 0));
    } else {
      const Json* followers = repl->get("followers");
      if (followers != nullptr && followers->is_array()) {
        std::printf("  followers %zu%s", followers->items().size(),
                    bool_or(repl->get("sync"), false) ? "  sync" : "");
        for (const Json& f : followers->items()) {
          if (f.is_object()) {
            std::printf("  [%s lag %lld]",
                        str_or(f.get("id"), "?").c_str(),
                        static_cast<long long>(int_or(f.get("lag"), 0)));
          }
        }
      }
    }
    std::printf("\n");
  }

  // --- verbs + rates ---------------------------------------------------
  if (metric(metrics, "wormrt_requests_total") != nullptr) {
    std::printf(
        "population %-6lld requests %-8lld (%.1f/s)  removes %-8lld "
        "(%.1f/s)  reports %-8lld (%.1f/s)  errors %lld\n",
        static_cast<long long>(count_of(metrics, "wormrt_population")),
        static_cast<long long>(verb_count(metrics, "REQUEST")),
        rates.requests_per_s,
        static_cast<long long>(verb_count(metrics, "REMOVE")),
        rates.removes_per_s,
        static_cast<long long>(verb_count(metrics, "REPORT")),
        rates.reports_per_s,
        static_cast<long long>(count_of(metrics, "wormrt_errors_total")));
    std::printf(
        "admitted %lld  rejected %lld  link_downs %lld  link_evicted "
        "%lld  link_rerouted %lld\n",
        static_cast<long long>(count_of(metrics,
                                        "wormrt_admission_decisions_total",
                                        "decision", "admitted")),
        static_cast<long long>(count_of(metrics,
                                        "wormrt_admission_decisions_total",
                                        "decision", "rejected")),
        static_cast<long long>(verb_count(metrics, "LINK_DOWN")),
        static_cast<long long>(count_of(metrics, "wormrt_link_streams_total",
                                        "outcome", "evicted")),
        static_cast<long long>(count_of(metrics, "wormrt_link_streams_total",
                                        "outcome", "rerouted")));
  }
  const Json* latency = metric(metrics, "wormrt_admission_latency_us");
  if (latency != nullptr && int_or(latency->get("count"), 0) > 0) {
    std::printf(
        "dispatch latency: p50 %.0fus  p99 %.0fus  p999 %.0fus  max "
        "%.0fus  (n=%lld)\n",
        num_or(latency->get("p50"), 0.0), num_or(latency->get("p99"), 0.0),
        num_or(latency->get("p999"), 0.0), num_or(latency->get("max"), 0.0),
        static_cast<long long>(int_or(latency->get("count"), 0)));
  }

  // --- conformance: tightest-slack streams -----------------------------
  const Json* conformance = health.get("conformance");
  if (conformance != nullptr && conformance->is_object()) {
    std::printf(
        "conformance: tracked %lld  violations %lld\n",
        static_cast<long long>(int_or(conformance->get("tracked"), 0)),
        static_cast<long long>(int_or(conformance->get("violations"), 0)));
    const Json* streams = conformance->get("streams");
    if (streams != nullptr && streams->is_array() &&
        !streams->items().empty()) {
      std::printf("  %-8s %-8s %-8s %-8s %-6s %-12s %-10s %s\n", "handle",
                  "bound", "period", "slack", "valid", "max_observed",
                  "reports", "violations");
      int shown = 0;
      for (const Json& s : streams->items()) {
        if (!s.is_object() || shown++ >= top_n) {
          break;
        }
        const Json* max_observed = s.get("max_observed");
        std::string observed_text = "-";
        if (max_observed != nullptr && max_observed->is_number()) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.1f",
                        max_observed->as_double());
          observed_text = buf;
        }
        std::printf(
            "  %-8lld %-8lld %-8lld %-8lld %-6s %-12s %-10lld %lld\n",
            static_cast<long long>(int_or(s.get("handle"), -1)),
            static_cast<long long>(int_or(s.get("bound"), -1)),
            static_cast<long long>(int_or(s.get("period"), -1)),
            static_cast<long long>(int_or(s.get("slack"), -1)),
            bool_or(s.get("flit_valid"), false) ? "yes" : "no",
            observed_text.c_str(),
            static_cast<long long>(int_or(s.get("reports"), 0)),
            static_cast<long long>(int_or(s.get("violations"), 0)));
      }
    }
  }

  // --- channel utilization ---------------------------------------------
  const Json* channels = health.get("channels");
  if (channels != nullptr && channels->is_object()) {
    std::printf(
        "channels: %lld total, %lld occupied\n",
        static_cast<long long>(int_or(channels->get("count"), 0)),
        static_cast<long long>(int_or(channels->get("occupied"), 0)));
    const Json* busiest = channels->get("busiest");
    if (busiest != nullptr && busiest->is_array()) {
      int shown = 0;
      for (const Json& c : busiest->items()) {
        if (!c.is_object() || shown++ >= top_n) {
          break;
        }
        const double util = num_or(c.get("utilization"), 0.0);
        std::printf(
            "  ch %-5lld %3lld->%-3lld streams %-4lld [%s] %5.1f%%\n",
            static_cast<long long>(int_or(c.get("channel"), -1)),
            static_cast<long long>(int_or(c.get("src"), -1)),
            static_cast<long long>(int_or(c.get("dst"), -1)),
            static_cast<long long>(int_or(c.get("streams"), 0)),
            bar(util, 20).c_str(), util * 100.0);
      }
    }
  }

  // --- history sparklines ----------------------------------------------
  const Json* series = history.get("series");
  if (series != nullptr && series->is_array() &&
      !series->items().empty()) {
    std::printf("history (interval %lldms):\n",
                static_cast<long long>(int_or(history.get("interval_ms"),
                                              0)));
    for (const Json& s : series->items()) {
      if (!s.is_object()) {
        continue;
      }
      const Json* samples = s.get("samples");
      std::vector<double> values;
      if (samples != nullptr && samples->is_array()) {
        // Keep the freshest 60 samples so the line fits a terminal.
        const auto& items = samples->items();
        const std::size_t start =
            items.size() > 60 ? items.size() - 60 : 0;
        for (std::size_t i = start; i < items.size(); ++i) {
          const Json& pair = items[i];
          if (pair.is_array() && pair.items().size() == 2 &&
              pair.items()[1].is_number()) {
            values.push_back(pair.items()[1].as_double());
          }
        }
      }
      const double last = values.empty() ? 0.0 : values.back();
      std::printf("  %-24s %-60s %.1f\n",
                  str_or(s.get("name"), "?").c_str(),
                  sparkline(values).c_str(), last);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wormrt;

  const util::Args args(argc, argv);
  if (args.has("help")) {
    return usage(args.program().c_str());
  }
  const std::string socket_path = args.get_string("socket", "");
  const std::int64_t port = args.get_int("port", -1);
  if (socket_path.empty() && port < 0) {
    return usage(args.program().c_str());
  }
  const bool once = args.has("once");
  const int interval_ms =
      std::max<int>(50, static_cast<int>(args.get_int("interval-ms", 1000)));
  const int top_n =
      std::max<int>(1, static_cast<int>(args.get_int("top", 8)));

  Client client;
  std::string error;
  const bool connected =
      !socket_path.empty()
          ? client.connect_unix(socket_path, &error)
          : client.connect_tcp(args.get_string("host", "127.0.0.1"),
                               static_cast<int>(port), &error);
  if (!connected) {
    std::fprintf(stderr, "%s: %s\n", args.program().c_str(), error.c_str());
    return 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  RateTracker rates;
  Json health = Json::object();
  Json metrics = Json::object();
  Json history = Json::object();
  bool ever_polled = false;
  while (g_stop == 0) {
    Json fresh;
    bool polled = true;
    if (poll(client, "HEALTH", &fresh, &error)) {
      health = std::move(fresh);
    } else {
      polled = false;
    }
    if (poll(client, "METRICS", &fresh, &error)) {
      metrics = std::move(fresh);
      rates.update(metrics);
    } else {
      polled = false;
    }
    if (poll(client, "HISTORY", &fresh, &error)) {
      history = std::move(fresh);
    } else {
      polled = false;
    }
    if (!polled && !ever_polled) {
      std::fprintf(stderr, "%s: %s\n", args.program().c_str(),
                   error.c_str());
      return 2;
    }
    ever_polled = true;

    if (!once) {
      // Home + clear-to-end redraw keeps the refresh flicker-free.
      std::printf("\x1b[H\x1b[2J");
    }
    render(health, metrics, history, rates, top_n);
    if (!polled) {
      std::printf("(poll failed: %s — showing last good data)\n",
                  error.c_str());
    }
    std::fflush(stdout);

    if (once) {
      return polled ? 0 : 2;
    }
    for (int waited = 0; waited < interval_ms && g_stop == 0;
         waited += 25) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  return 0;
}
