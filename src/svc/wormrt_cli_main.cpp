// wormrt-cli — command-line client for the wormrtd daemon.
//
//   wormrt-cli --socket /tmp/wormrtd.sock request --src 0 --dst 5
//       --priority 2 --period 50 --length 20 --deadline 250
//   wormrt-cli --socket /tmp/wormrtd.sock query --handle 3
//   wormrt-cli --port 4817 metrics
//   wormrt-cli --socket /tmp/wormrtd.sock raw '{"verb":"SNAPSHOT"}'
//
// Every invocation sends one protocol line and prints the one response
// line to stdout.  Exit status: 0 when the response carries "ok":true
// (and, for `request`, the channel was admitted), 1 otherwise, 2 for
// usage or transport errors.

#include <cstdio>
#include <string>
#include <vector>

#include "svc/json.hpp"
#include "svc/server.hpp"
#include "util/cli.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --port N [--host H] | --server LIST)\n"
      "          COMMAND [flags]\n"
      "  --server LIST     comma-separated failover endpoints (unix:PATH,\n"
      "                    HOST:PORT, or bare socket paths), tried in\n"
      "                    order; \"not primary\" replies rotate to the\n"
      "                    next endpoint (kill-the-primary failover)\n"
      "commands:\n"
      "  request  --src N --dst N --priority N --period N --length N "
      "--deadline N [--explain]\n"
      "  remove   --handle H\n"
      "  query    --handle H\n"
      "  explain  --handle H   bound provenance of an established channel\n"
      "  link-down (--channel C | --src N --dst N)   take a directed link\n"
      "                    down; crossing streams are rerouted or evicted\n"
      "  link-up   (--channel C | --src N --dst N)   repair a link\n"
      "  snapshot\n"
      "  metrics               Prometheus text exposition of the daemon\n"
      "  health            aggregate health; exit 0 ok, 1 degraded,\n"
      "                    2 critical, 3 transport failure\n"
      "  history  [--window-ms N] [--series a,b]   sampled time series\n"
      "  report   --handle H --latency L   report an observed end-to-end\n"
      "                    latency for conformance checking\n"
      "  promote           promote a follower to primary (fencing epoch\n"
      "                    bump); idempotent on a primary\n"
      "  shutdown\n"
      "  raw JSON          send a raw protocol line\n"
      "  batch             read protocol lines from stdin, send them all\n"
      "                    pipelined in one write, print one response per\n"
      "                    line (exit 1 if any response is not ok)\n"
      "resilience flags:\n"
      "  --timeout-ms N    connect/call deadline (default: block forever)\n"
      "  --retries N       retry transport failures up to N times with\n"
      "                    backoff; only idempotent verbs (DESIGN.md 7.2)\n"
      "                    retry unless --retry-mutations is given\n"
      "  --retry-mutations retry every verb (at-least-once)\n",
      program);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wormrt;
  using svc::Json;

  const util::Args args(argc, argv);
  if (args.positional().empty() || args.has("help")) {
    return usage(args.program().c_str());
  }
  const std::string& command = args.positional().front();

  Json request = Json::object();
  bool want_admitted = false;
  if (command == "request") {
    request.set("verb", "REQUEST");
    for (const char* key :
         {"src", "dst", "priority", "period", "length", "deadline"}) {
      if (!args.has(key)) {
        std::fprintf(stderr, "%s: request needs --%s\n",
                     args.program().c_str(), key);
        return 2;
      }
      request.set(key, args.get_int(key, 0));
    }
    if (args.has("explain")) {
      request.set("explain", true);
    }
    want_admitted = true;
  } else if (command == "remove" || command == "query" ||
             command == "explain") {
    if (!args.has("handle")) {
      std::fprintf(stderr, "%s: %s needs --handle\n", args.program().c_str(),
                   command.c_str());
      return 2;
    }
    request.set("verb", command == "remove"  ? "REMOVE"
                        : command == "query" ? "QUERY"
                                             : "EXPLAIN");
    request.set("handle", args.get_int("handle", -1));
  } else if (command == "link-down" || command == "link-up") {
    request.set("verb", command == "link-down" ? "LINK_DOWN" : "LINK_UP");
    if (args.has("channel")) {
      request.set("channel", args.get_int("channel", -1));
    } else if (args.has("src") && args.has("dst")) {
      request.set("src", args.get_int("src", -1));
      request.set("dst", args.get_int("dst", -1));
    } else {
      std::fprintf(stderr, "%s: %s needs --channel, or --src and --dst\n",
                   args.program().c_str(), command.c_str());
      return 2;
    }
  } else if (command == "snapshot") {
    request.set("verb", "SNAPSHOT");
  } else if (command == "metrics") {
    request.set("verb", "METRICS");
  } else if (command == "health") {
    request.set("verb", "HEALTH");
  } else if (command == "history") {
    request.set("verb", "HISTORY");
    if (args.has("window-ms")) {
      request.set("window_ms", args.get_int("window-ms", 0));
    }
    if (args.has("series")) {
      Json names = Json::array();
      const std::string list = args.get_string("series", "");
      std::string name;
      for (std::size_t i = 0; i <= list.size(); ++i) {
        if (i == list.size() || list[i] == ',') {
          if (!name.empty()) {
            names.push_back(Json(name));
            name.clear();
          }
        } else {
          name.push_back(list[i]);
        }
      }
      request.set("series", std::move(names));
    }
  } else if (command == "report") {
    for (const char* key : {"handle", "latency"}) {
      if (!args.has(key)) {
        std::fprintf(stderr, "%s: report needs --%s\n",
                     args.program().c_str(), key);
        return 2;
      }
    }
    request.set("verb", "REPORT");
    request.set("handle", args.get_int("handle", -1));
    request.set("observed_latency", args.get_double("latency", 0.0));
  } else if (command == "promote") {
    request.set("verb", "PROMOTE");
  } else if (command == "shutdown") {
    request.set("verb", "SHUTDOWN");
  } else if (command == "raw") {
    if (args.positional().size() < 2) {
      std::fprintf(stderr, "%s: raw needs a JSON argument\n",
                   args.program().c_str());
      return 2;
    }
  } else if (command == "batch") {
    // Handled below: needs the connection first.
  } else {
    return usage(args.program().c_str());
  }

  const std::string socket_path = args.get_string("socket", "");
  const std::string server_list = args.get_string("server", "");
  const std::int64_t port = args.get_int("port", -1);
  if (args.has("port") && (port < 0 || port > 65535)) {
    std::fprintf(stderr, "%s: bad --port (want 0-65535)\n",
                 args.program().c_str());
    return 2;
  }
  svc::Client client;
  client.set_timeout_ms(static_cast<int>(args.get_int("timeout-ms", 0)));
  std::string error;
  bool connected = false;
  if (!server_list.empty()) {
    connected = client.connect_endpoints(server_list, &error);
  } else if (!socket_path.empty()) {
    connected = client.connect_unix(socket_path, &error);
  } else if (port >= 0) {
    connected = client.connect_tcp(args.get_string("host", "127.0.0.1"),
                                   static_cast<int>(port), &error);
  } else {
    std::fprintf(stderr, "%s: need --socket, --port, or --server\n",
                 args.program().c_str());
    return 2;
  }
  // `health` is written for liveness probes: its exit code IS the health
  // status (0 ok / 1 degraded / 2 critical), so transport failures get a
  // distinct code 3 instead of the usual 2.
  const int transport_status = command == "health" ? 3 : 2;
  if (!connected) {
    std::fprintf(stderr, "%s: %s\n", args.program().c_str(), error.c_str());
    return transport_status;
  }

  if (command == "batch") {
    // Pipelined mode: every stdin line goes out in ONE coalesced write;
    // the server streams the responses back in order.
    std::vector<std::string> lines;
    std::string in_line;
    for (int c = std::getchar(); ; c = std::getchar()) {
      if (c == EOF || c == '\n') {
        if (!in_line.empty()) {
          lines.push_back(in_line);
          in_line.clear();
        }
        if (c == EOF) {
          break;
        }
        continue;
      }
      in_line.push_back(static_cast<char>(c));
    }
    std::vector<std::string> responses;
    if (!client.call_pipelined(lines, &responses, &error)) {
      std::fprintf(stderr, "%s: %s\n", args.program().c_str(), error.c_str());
      return 2;
    }
    int status = 0;
    for (const std::string& resp : responses) {
      std::printf("%s\n", resp.c_str());
      std::string batch_parse_error;
      const Json r = Json::parse(resp, &batch_parse_error);
      const Json* ok =
          batch_parse_error.empty() && r.is_object() ? r.get("ok") : nullptr;
      if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
        status = 1;
      }
    }
    return status;
  }

  const std::string line =
      command == "raw" ? args.positional()[1] : request.dump();
  svc::RetryPolicy retry;
  retry.max_retries = static_cast<int>(args.get_int("retries", 0));
  retry.retry_non_idempotent = args.has("retry-mutations");
  std::string response;
  if (!client.call_with_retry(line, retry, &response, &error)) {
    std::fprintf(stderr, "%s: %s\n", args.program().c_str(), error.c_str());
    return transport_status;
  }

  std::string parse_error;
  const Json reply = Json::parse(response, &parse_error);

  // `metrics` and `explain` carry a multi-line text payload escaped
  // inside the one-line JSON response; print the unescaped text (the
  // Prometheus exposition / the provenance tree).  Everything else — and
  // any failure reply — prints the raw response line.
  const Json* pretty = nullptr;
  if (parse_error.empty() && reply.is_object()) {
    if (command == "metrics") {
      pretty = reply.get("prometheus");
    } else if (command == "explain") {
      pretty = reply.get("text");
    }
  }
  if (pretty != nullptr && pretty->is_string()) {
    std::printf("%s", pretty->as_string().c_str());
  } else {
    std::printf("%s\n", response.c_str());
  }

  if (!parse_error.empty() || !reply.is_object()) {
    return 1;
  }
  const Json* ok = reply.get("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    return 1;
  }
  if (command == "health") {
    const Json* status = reply.get("status");
    if (status == nullptr || !status->is_string()) {
      return 3;
    }
    if (status->as_string() == "ok") {
      return 0;
    }
    return status->as_string() == "degraded" ? 1 : 2;
  }
  if (want_admitted) {
    const Json* admitted = reply.get("admitted");
    return (admitted != nullptr && admitted->is_bool() && admitted->as_bool())
               ? 0
               : 1;
  }
  return 0;
}
