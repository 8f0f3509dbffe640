// Metric composition for the serving layer (DESIGN.md §13): one place
// that knows how to assemble the server's counters, the engine's
// lifetime execution totals, and the trie cache's tallies into (a) the
// flat key/value list behind the wire {"stats": true} response and (b)
// the Prometheus text exposition behind {"metrics": true} and the
// --metrics-port HTTP endpoint.

#ifndef LEVELHEADED_SERVER_METRICS_H_
#define LEVELHEADED_SERVER_METRICS_H_

#include <string>
#include <utility>
#include <vector>

#include "core/query_backend.h"
#include "obs/server_stats.h"

namespace levelheaded::server {

/// The {"stats": true} payload: server.* counters, cache.* trie-cache
/// tallies (always live, no profiling needed), and the engine's lifetime
/// intersect.*/trie.*/exec.*/pool.*/expr.* totals (accumulated
/// from profiled queries). Keys are unique: the trie cache is
/// authoritative for cache.*, so the profile-attributed duplicates are
/// skipped.
[[nodiscard]] std::vector<std::pair<std::string, double>> CollectStatsExport(
    const obs::ServerStats& stats, QueryBackend* backend);

/// Everything above plus the latency histograms (global, per request
/// class, per outcome) as Prometheus text exposition format 0.0.4.
[[nodiscard]] std::string RenderPrometheusMetrics(
    const obs::ServerStats& stats, QueryBackend* backend);

}  // namespace levelheaded::server

#endif  // LEVELHEADED_SERVER_METRICS_H_
