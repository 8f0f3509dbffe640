// The traced run's backend. It answers Query() the way Engine::Query does
// for a plain SELECT, but makes the four layer calls itself —
// ParseSelect -> Bind -> BuildPlan -> ExecutePlan on the engine's catalog
// and trie cache — and records a span around each, so the harness gets a
// per-layer breakdown without instrumentation inside the engine. Every
// other QueryBackend call forwards to the engine.
//
// A request names its request id with a trailing SQL comment
// ("... -- rid=<n>"); the backend span becomes a child of that request's
// root span (the client round trip) in the log.

#ifndef PERFBENCH_TRACING_BACKEND_H_
#define PERFBENCH_TRACING_BACKEND_H_

#include <string>

#include "core/engine.h"
#include "spans.h"

namespace perfbench {

/// Appends the request-id comment TracingBackend reads.
std::string WithRequestId(const std::string& sql, int64_t rid);

/// The request id in `sql`'s trailing comment, or -1.
int64_t RequestIdOf(const std::string& sql);

class TracingBackend : public levelheaded::QueryBackend {
 public:
  /// `engine`, `catalog` (the engine's) and `log` must outlive the backend.
  TracingBackend(levelheaded::Engine* engine,
                 const levelheaded::Catalog* catalog, SpanLog* log)
      : engine_(engine), catalog_(catalog), log_(log) {}

  levelheaded::Result<levelheaded::QueryResult> Query(
      const std::string& sql,
      const levelheaded::QueryOptions& options) override;
  levelheaded::Result<levelheaded::QueryResult> QueryAnalyze(
      const std::string& sql,
      const levelheaded::QueryOptions& options) override {
    return engine_->QueryAnalyze(sql, options);
  }
  levelheaded::Result<levelheaded::ExplainInfo> Explain(
      const std::string& sql,
      const levelheaded::QueryOptions& options) override {
    return engine_->Explain(sql, options);
  }
  levelheaded::obs::StatsSnapshot LifetimeStats() const override {
    return engine_->LifetimeStats();
  }
  levelheaded::obs::SlowQueryLog* slow_query_log() override {
    return engine_->slow_query_log();
  }
  levelheaded::TrieCache* trie_cache() override {
    return engine_->trie_cache();
  }

 private:
  levelheaded::Engine* engine_;
  const levelheaded::Catalog* catalog_;
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_BACKEND_H_
