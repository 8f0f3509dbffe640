// lh_client: a command-line client for lh_serve.
//
//   $ ./tools/lh_client --port 8437 "SELECT count(*) FROM lineitem"
//   {"ok":true,"num_rows":1,...}
//   $ ./tools/lh_client --port 8437 --stats
//   $ echo "SELECT 1" | ./tools/lh_client --port 8437
//
// Builds one request line per query (protocol in server/protocol.h),
// prints the raw JSON response line. SQL comes from the command line or,
// when absent, one statement per stdin line.
//
// Flags (numeric values are parsed strictly: non-numeric text, a negative
// value, or an out-of-range one prints the usage and exits 2 before
// connecting):
//   --port N         server port on 127.0.0.1 (required; 1 to 65535)
//   --mode M         query | analyze | explain (default query)
//   --timeout-ms X   per-request deadline in ms, finite and >= 0
//                    (0 = server default)
//   --stats          request the server.* counters instead of a query
//   --metrics        print the Prometheus text exposition (unwrapped from
//                    the {"metrics": true} response) instead of a query
//   --slowlog        request the server's slow-query log instead of a query
//   --trace-out F    run the query with "trace": true and write the Chrome
//                    trace_event JSON to F (open in Perfetto/about:tracing)

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/json_writer.h"
#include "util/flag_parse.h"
#include "util/socket.h"

namespace levelheaded {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--mode query|analyze|explain] "
               "[--timeout-ms X] [--stats]\n"
               "       [--metrics] [--slowlog] [--trace-out F] [sql]\n",
               argv0);
  return 2;
}

int BadValue(const std::string& flag, const char* argv0) {
  std::fprintf(stderr, "missing or bad value for %s\n", flag.c_str());
  return Usage(argv0);
}

std::string BuildRequestLine(const std::string& sql, const std::string& mode,
                             double timeout_ms, bool want_trace) {
  obs::JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.Key("sql");
  w.String(sql);
  w.Key("mode");
  w.String(mode);
  if (timeout_ms > 0) {
    w.Key("timeout_ms");
    w.Number(timeout_ms);
  }
  if (want_trace) {
    w.Key("trace");
    w.Bool(true);
  }
  w.EndObject();
  return w.str() + "\n";
}

/// Sends one request line and captures the response line. Returns false on
/// a transport failure (the response itself may still be an ok:false JSON).
bool RoundTripCapture(const Socket& conn, LineReader* reader,
                      const std::string& request, std::string* response) {
  if (!SendAll(conn, request).ok()) {
    std::fprintf(stderr, "send failed (server gone?)\n");
    return false;
  }
  const LineReader::ReadStatus rs = reader->ReadLine(response);
  if (rs != LineReader::ReadStatus::kLine) {
    std::fprintf(stderr, "connection closed before response\n");
    return false;
  }
  return true;
}

/// RoundTripCapture + print.
bool RoundTrip(const Socket& conn, LineReader* reader,
               const std::string& request) {
  std::string response;
  if (!RoundTripCapture(conn, reader, request, &response)) return false;
  std::printf("%s\n", response.c_str());
  return true;
}

/// Fetches {"metrics": true} and prints the exposition text itself — the
/// multi-line Prometheus format, not its JSON wrapper.
bool PrintMetrics(const Socket& conn, LineReader* reader) {
  std::string response;
  if (!RoundTripCapture(conn, reader, "{\"metrics\": true}\n", &response)) {
    return false;
  }
  obs::JsonValue doc;
  std::string error;
  if (!obs::ParseJson(response, &doc, &error)) {
    std::fprintf(stderr, "bad response JSON: %s\n", error.c_str());
    return false;
  }
  const obs::JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr || !metrics->IsString()) {
    std::fprintf(stderr, "%s\n", response.c_str());
    return false;
  }
  std::fputs(metrics->string.c_str(), stdout);
  return true;
}

/// Runs `request` (built with "trace": true), writes the Chrome-trace JSON
/// member to `path`, and prints a one-line summary.
bool SaveTrace(const Socket& conn, LineReader* reader,
               const std::string& request, const std::string& path) {
  std::string response;
  if (!RoundTripCapture(conn, reader, request, &response)) return false;
  obs::JsonValue doc;
  std::string error;
  if (!obs::ParseJson(response, &doc, &error)) {
    std::fprintf(stderr, "bad response JSON: %s\n", error.c_str());
    return false;
  }
  const obs::JsonValue* trace = doc.Find("trace");
  if (trace == nullptr) {
    std::fprintf(stderr, "no trace in response: %s\n", response.c_str());
    return false;
  }
  obs::JsonWriter w(/*pretty=*/true);
  obs::WriteJsonValue(&w, *trace);
  std::ofstream out(path, std::ios::binary);
  out << w.str() << "\n";
  if (!out) {
    std::fprintf(stderr, "write failed: %s\n", path.c_str());
    return false;
  }
  const obs::JsonValue* events = trace->Find("traceEvents");
  const obs::JsonValue* rows = doc.Find("num_rows");
  std::printf("trace: %zu events -> %s (num_rows=%llu)\n",
              events != nullptr ? events->array.size() : 0, path.c_str(),
              rows != nullptr
                  ? static_cast<unsigned long long>(rows->number)
                  : 0ull);
  return true;
}

int Run(int argc, char** argv) {
  uint16_t port = 0;
  std::string mode = "query";
  double timeout_ms = 0;
  bool want_stats = false;
  bool want_metrics = false;
  bool want_slowlog = false;
  std::string trace_out;
  std::string sql;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      uint64_t n = 0;
      if (!ParseCount(next(), 1, kMaxPort, &n)) return BadValue(arg, argv[0]);
      port = static_cast<uint16_t>(n);
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      mode = v;
    } else if (arg == "--timeout-ms") {
      if (!ParseMillis(next(), &timeout_ms)) return BadValue(arg, argv[0]);
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--metrics") {
      want_metrics = true;
    } else if (arg == "--slowlog") {
      want_slowlog = true;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      trace_out = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      if (!sql.empty()) sql += ' ';
      sql += arg;
    }
  }
  if (port == 0) return Usage(argv[0]);
  if (mode != "query" && mode != "analyze" && mode != "explain") {
    std::fprintf(stderr, "bad --mode %s\n", mode.c_str());
    return Usage(argv[0]);
  }

  // Retry transient refusals: lh_client is routinely exec'd right after
  // lh_serve, before the server has bound its listener.
  Result<Socket> conn = ConnectLoopbackRetry(port, /*deadline_ms=*/2000);
  if (!conn.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 conn.status().ToString().c_str());
    return 1;
  }
  LineReader reader(&conn.value(), 64u << 20);

  if (want_stats) {
    return RoundTrip(conn.value(), &reader, "{\"stats\": true}\n") ? 0 : 1;
  }
  if (want_metrics) {
    return PrintMetrics(conn.value(), &reader) ? 0 : 1;
  }
  if (want_slowlog) {
    return RoundTrip(conn.value(), &reader, "{\"slowlog\": true}\n") ? 0 : 1;
  }
  if (!trace_out.empty()) {
    if (sql.empty()) {
      std::fprintf(stderr, "--trace-out needs a query\n");
      return Usage(argv[0]);
    }
    return SaveTrace(conn.value(), &reader,
                     BuildRequestLine(sql, mode, timeout_ms,
                                      /*want_trace=*/true),
                     trace_out)
               ? 0
               : 1;
  }
  if (!sql.empty()) {
    return RoundTrip(conn.value(), &reader,
                     BuildRequestLine(sql, mode, timeout_ms,
                                      /*want_trace=*/false))
               ? 0
               : 1;
  }
  // No SQL on the command line: one statement per stdin line.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (!RoundTrip(conn.value(), &reader,
                   BuildRequestLine(line, mode, timeout_ms,
                                    /*want_trace=*/false))) {
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace levelheaded

int main(int argc, char** argv) { return levelheaded::Run(argc, argv); }
