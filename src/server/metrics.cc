#include "server/metrics.h"

#include "core/trie_cache.h"
#include "obs/metrics_text.h"
#include "obs/stats.h"
#include "util/thread_pool.h"

namespace levelheaded::server {

namespace {

/// Trie-cache lifetime tallies as dotted cache.* keys. These are live
/// regardless of per-request profiling (the cache counts its own traffic),
/// which is why they — not the profile-accumulated duplicates — are the
/// cache.* surface.
std::vector<std::pair<std::string, double>> CacheExport(TrieCache* cache) {
  return {
      {"cache.hits", static_cast<double>(cache->hits())},
      {"cache.misses", static_cast<double>(cache->misses())},
      {"cache.probes", static_cast<double>(cache->probes())},
      {"cache.builds", static_cast<double>(cache->builds())},
      {"cache.build_waits", static_cast<double>(cache->build_waits())},
      {"cache.evictions", static_cast<double>(cache->evictions())},
      {"cache.bytes", static_cast<double>(cache->bytes())},
      {"cache.entries", static_cast<double>(cache->size())},
  };
}

bool IsGaugeCounter(const std::string& dotted) {
  // The gauges among the StatsSnapshot items; everything else is a
  // monotone total.
  return dotted == "engine.cache.bytes" || dotted == "engine.shard.lanes";
}

}  // namespace

std::vector<std::pair<std::string, double>> CollectStatsExport(
    const obs::ServerStats& stats, QueryBackend* backend) {
  std::vector<std::pair<std::string, double>> out = stats.Export();
  for (auto& kv : CacheExport(backend->trie_cache())) {
    out.push_back(std::move(kv));
  }
  const obs::StatsSnapshot lifetime = backend->LifetimeStats();
  for (const auto& [name, value] : lifetime.Items()) {
    if (name.rfind("cache.", 0) == 0) continue;  // trie cache authoritative
    out.emplace_back(name, static_cast<double>(value));
  }
  return out;
}

std::string RenderPrometheusMetrics(const obs::ServerStats& stats,
                                    QueryBackend* backend) {
  obs::MetricsTextWriter w;
  const obs::ServerStats::Snapshot s = stats.snapshot();

  w.Counter("lh_server_accepted_total",
            "Connections admitted by the accept loop.",
            static_cast<double>(s.accepted));
  w.Counter("lh_server_rejected_overload_total",
            "Connections refused because the admission queue was full.",
            static_cast<double>(s.rejected_overload));
  w.Counter("lh_server_requests_total",
            "Requests answered, by outcome (ok|error|timeout|cancelled).",
            static_cast<double>(s.completed), {{"outcome", "ok"}});
  w.Counter("lh_server_requests_total", "",
            static_cast<double>(s.errors), {{"outcome", "error"}});
  w.Counter("lh_server_requests_total", "",
            static_cast<double>(s.timeouts), {{"outcome", "timeout"}});
  w.Counter("lh_server_requests_total", "",
            static_cast<double>(s.cancelled), {{"outcome", "cancelled"}});
  w.Gauge("lh_server_inflight", "Requests currently being served.",
          static_cast<double>(s.inflight));

  w.Histogram("lh_server_latency_seconds",
              "Request wall time, request line to response write, any "
              "class or outcome.",
              stats.LatencySnapshot());
  for (int c = 0; c < obs::kNumRequestClasses; ++c) {
    const auto cls = static_cast<obs::RequestClass>(c);
    w.Histogram("lh_server_latency_class_seconds",
                "Request wall time by request class "
                "(query|analyze|explain|other).",
                stats.LatencySnapshot(cls),
                {{"class", obs::RequestClassName(cls)}});
  }
  for (int o = 0; o < obs::kNumRequestOutcomes; ++o) {
    const auto outcome = static_cast<obs::RequestOutcome>(o);
    w.Histogram("lh_server_latency_outcome_seconds",
                "Request wall time by outcome "
                "(ok|error|timeout|cancelled).",
                stats.LatencySnapshot(outcome),
                {{"outcome", obs::RequestOutcomeName(outcome)}});
  }

  TrieCache* cache = backend->trie_cache();
  w.Counter("lh_trie_cache_hits_total", "Trie-cache lookup hits.",
            static_cast<double>(cache->hits()));
  w.Counter("lh_trie_cache_misses_total", "Trie-cache lookup misses.",
            static_cast<double>(cache->misses()));
  w.Counter("lh_trie_cache_probes_total",
            "Raw signature probes (a lookup tries up to two signatures).",
            static_cast<double>(cache->probes()));
  w.Counter("lh_trie_cache_builds_total", "Tries built into the cache.",
            static_cast<double>(cache->builds()));
  w.Counter("lh_trie_cache_build_waits_total",
            "Lookups that waited on another query's in-flight build "
            "(single-flight deduplication).",
            static_cast<double>(cache->build_waits()));
  w.Counter("lh_trie_cache_evictions_total",
            "Entries evicted to stay under the cache budget.",
            static_cast<double>(cache->evictions()));
  w.Gauge("lh_trie_cache_bytes", "Resident trie-cache bytes.",
          static_cast<double>(cache->bytes()));
  w.Gauge("lh_trie_cache_entries", "Resident trie-cache entries.",
          static_cast<double>(cache->size()));
  w.Gauge("lh_trie_cache_budget_bytes",
          "Configured trie-cache budget (0 = unbounded).",
          static_cast<double>(cache->budget_bytes()));

  // The process-wide pool's parallel regions: concurrent queries' regions
  // run side by side as separate jobs (DESIGN.md §10), so the gauge reads
  // how many are sharing the workers at scrape time.
  const ThreadPool::JobCounts jobs = ThreadPool::Global().job_counts();
  w.Gauge("lh_pool_live_jobs",
          "Parallel regions currently registered with the thread pool.",
          static_cast<double>(jobs.live));
  w.Counter("lh_pool_jobs_started_total",
            "Parallel regions registered with the thread pool (small and "
            "nested regions run inline and are not counted).",
            static_cast<double>(jobs.started));

  // Engine-lifetime execution totals: the sum of every profiled query's
  // counter snapshot, under an engine_ prefix so the per-query counter
  // names (DESIGN.md §8 glossary) stay recognizable without colliding
  // with the trie-cache families above.
  const obs::StatsSnapshot lifetime = backend->LifetimeStats();
  for (const auto& [name, value] : lifetime.Items()) {
    const std::string dotted = "engine." + name;
    const std::string metric = obs::MetricsTextWriter::SanitizeName(dotted);
    const std::string help =
        "Engine-lifetime total of the " + name +
        " execution counter (accumulated from profiled queries).";
    if (IsGaugeCounter(dotted)) {
      w.Gauge(metric,
              "Engine-lifetime sample of the " + name +
                  " execution gauge (from the last profiled query).",
              static_cast<double>(value));
    } else {
      w.Counter(metric + "_total", help, static_cast<double>(value));
    }
  }

  // Per-lane dispatch tallies of a sharded backend (src/shard); always
  // live, labelled by lane index. Empty for a plain Engine.
  for (const ShardLaneInfo& lane : backend->ShardLanes()) {
    const std::string label = std::to_string(lane.lane);
    w.Counter("lh_shard_lane_queries_total",
              "Scattered queries this lane participated in.",
              static_cast<double>(lane.queries), {{"lane", label}});
    w.Counter("lh_shard_lane_chunks_total",
              "Plan chunks dispatched to this lane.",
              static_cast<double>(lane.chunks), {{"lane", label}});
    w.Gauge("lh_shard_lane_threads", "Worker threads in this lane's pool.",
            static_cast<double>(lane.threads), {{"lane", label}});
  }
  return w.str();
}

}  // namespace levelheaded::server
