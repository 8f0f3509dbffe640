// lh_serve: the LevelHeaded server binary (DESIGN.md §12).
//
//   $ ./tools/lh_serve schema.lh --port 8437 --workers 4
//   lh_serve: listening on 127.0.0.1:8437 (4 workers, queue 16)
//
// Loads a catalog from one or more text schema files (see
// storage/schema_file.h; several files — e.g. one per data partition —
// share one catalog and one dictionary set) or a .lhsnap snapshot, then
// serves newline-delimited JSON queries through one Engine until
// SIGINT/SIGTERM triggers a graceful drain. Caps result sets at 4M rows by
// default (--max-rows 0 lifts the cap) so one runaway SELECT cannot OOM a
// shared server.
//
// Flags (numeric values are parsed strictly: non-numeric text, a negative
// value, or an out-of-range one prints the usage and exits 2 before any
// data is loaded):
//   --port N                TCP port on 127.0.0.1 (0 = ephemeral, printed;
//                           at most 65535)
//   --workers N             worker threads (default 4; 1 to 1024)
//   --queue N               admission queue capacity (default 16)
//   --default-timeout-ms X  deadline for requests without timeout_ms
//   --max-rows N            result-row cap (default 4000000, 0 = unlimited)
//   --drain-ms X            graceful-shutdown drain budget (default 5000)
//   --metrics-port N        Prometheus scrape endpoint on 127.0.0.1
//                           (0 = ephemeral, printed; omit to disable)
//   --slow-query-ms X       slow-query log threshold (default 1000;
//                           0 disables the log)
//   --no-request-stats      skip per-request stats collection (disables
//                           engine-lifetime exec.* metrics and slow-log
//                           span/cache attribution; shaves the per-query
//                           counter bookkeeping)

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "server/server.h"
#include "storage/schema_file.h"
#include "storage/snapshot.h"
#include "util/signals.h"

namespace levelheaded {
namespace {

constexpr size_t kDefaultMaxResultRows = 4'000'000;
constexpr uint64_t kMaxPort = 65535;
constexpr uint64_t kMaxWorkers = 1024;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [schema.lh...|data.lhsnap] [--port N] "
               "[--workers N] [--queue N]\n"
               "       [--default-timeout-ms X] [--max-rows N] "
               "[--drain-ms X]\n"
               "       [--metrics-port N] [--slow-query-ms X] "
               "[--no-request-stats]\n",
               argv0);
  return 2;
}

/// Parses all of `text` as a decimal integer in [min, max]: no sign, no
/// trailing characters. False for a missing value (nullptr).
bool ParseCount(const char* text, uint64_t min, uint64_t max,
                uint64_t* out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < min || v > max) return false;
  *out = v;
  return true;
}

/// Parses all of `text` as a finite, non-negative number of milliseconds.
bool ParseMillis(const char* text, double* out) {
  if (text == nullptr) return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) {
    return false;
  }
  *out = v;
  return true;
}

int Serve(int argc, char** argv) {
  std::vector<std::string> data_paths;
  server::ServerOptions server_options;
  server_options.port = 8437;
  server_options.collect_request_stats = true;
  size_t max_result_rows = kDefaultMaxResultRows;
  double slow_query_ms = 1000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;
    uint64_t n = 0;
    if (arg == "--port") {
      ok = ParseCount(next(), 0, kMaxPort, &n);
      server_options.port = static_cast<uint16_t>(n);
    } else if (arg == "--workers") {
      ok = ParseCount(next(), 1, kMaxWorkers, &n);
      server_options.num_workers = static_cast<int>(n);
    } else if (arg == "--queue") {
      ok = ParseCount(next(), 0, SIZE_MAX, &n);
      server_options.queue_capacity = static_cast<size_t>(n);
    } else if (arg == "--default-timeout-ms") {
      ok = ParseMillis(next(), &server_options.default_timeout_ms);
    } else if (arg == "--max-rows") {
      ok = ParseCount(next(), 0, SIZE_MAX, &n);
      max_result_rows = static_cast<size_t>(n);
    } else if (arg == "--drain-ms") {
      ok = ParseMillis(next(), &server_options.drain_timeout_ms);
    } else if (arg == "--metrics-port") {
      ok = ParseCount(next(), 0, kMaxPort, &n);
      server_options.metrics_port = static_cast<int>(n);
    } else if (arg == "--slow-query-ms") {
      ok = ParseMillis(next(), &slow_query_ms);
    } else if (arg == "--no-request-stats") {
      server_options.collect_request_stats = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      data_paths.push_back(arg);
    }
    if (!ok) {
      std::fprintf(stderr, "missing or bad value for %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  std::unique_ptr<Catalog> owned;
  Catalog local;
  Catalog* catalog = &local;
  if (data_paths.size() == 1 && data_paths[0].size() > 7 &&
      data_paths[0].substr(data_paths[0].size() - 7) == ".lhsnap") {
    auto loaded = LoadCatalog(data_paths[0]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "snapshot error: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    owned = loaded.TakeValue();
    catalog = owned.get();
  } else {
    // Several schema files — e.g. one per data partition — parse
    // independently but declare tables and load rows into ONE catalog: key
    // columns encode through the shared domain dictionaries, so partitions
    // never duplicate dictionary memory.
    for (const std::string& path : data_paths) {
      auto spec = ParseSchemaFile(path);
      if (!spec.ok()) {
        std::fprintf(stderr, "schema error: %s\n",
                     spec.status().ToString().c_str());
        return 1;
      }
      Status st = DeclareSchemaTables(spec.value(), &local);
      if (st.ok()) st = LoadSchemaData(spec.value(), &local);
      if (!st.ok()) {
        std::fprintf(stderr, "schema error: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  if (!catalog->finalized()) {
    Status st = catalog->Finalize();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  EngineOptions engine_options;
  engine_options.max_result_rows = max_result_rows;
  engine_options.slow_query_ms = slow_query_ms;
  Engine engine(catalog, engine_options);

  Status st = InstallShutdownSignalHandlers();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  server::Server server(&engine, server_options);
  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("lh_serve: listening on 127.0.0.1:%u (%d workers, queue %zu, "
              "max %zu result rows)\n",
              static_cast<unsigned>(server.port()),
              server_options.num_workers, server_options.queue_capacity,
              max_result_rows);
  if (server_options.metrics_port >= 0) {
    std::printf("lh_serve: metrics on http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(server.metrics_port()));
  }
  std::fflush(stdout);

  while (!ShutdownSignalled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("lh_serve: shutdown signalled, draining...\n");
  server.Stop();

  // Slow queries survive the shutdown as one grep-able JSON line each.
  const std::vector<obs::SlowQueryRecord> slow =
      engine.slow_query_log()->Snapshot();
  for (const obs::SlowQueryRecord& record : slow) {
    std::printf("lh_serve: slow-query %s\n", record.ToJsonLine().c_str());
  }

  const obs::ServerStats::Snapshot stats = server.stats().snapshot();
  std::printf("lh_serve: done. accepted=%llu completed=%llu errors=%llu "
              "timeouts=%llu cancelled=%llu rejected_overload=%llu "
              "p50=%.3fms p99=%.3fms max=%.3fms slow=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.errors),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.rejected_overload),
              stats.latency_ms_p50, stats.latency_ms_p99,
              stats.latency_ms_max,
              static_cast<unsigned long long>(
                  engine.slow_query_log()->total_recorded()));
  return 0;
}

}  // namespace
}  // namespace levelheaded

int main(int argc, char** argv) { return levelheaded::Serve(argc, argv); }
