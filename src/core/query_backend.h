// The query-serving surface: SQL in, columnar results out. The server and
// the metrics composers program against this interface rather than against
// Engine, so a harness can wrap the engine (e.g. a tracing backend) without
// touching the serving layer.

#ifndef LEVELHEADED_CORE_QUERY_BACKEND_H_
#define LEVELHEADED_CORE_QUERY_BACKEND_H_

#include <string>
#include <vector>

#include "core/options.h"
#include "core/plan.h"
#include "core/result.h"
#include "obs/stats.h"
#include "util/status.h"

namespace levelheaded {

class TrieCache;

namespace obs {
class SlowQueryLog;
}  // namespace obs

/// Plan diagnostics for tooling and the Figure 5 experiments.
struct ExplainInfo {
  bool scan_only = false;
  DenseKernel dense = DenseKernel::kNone;
  size_t num_ghd_nodes = 0;
  double fhw = 0;
  std::string root_order;
  double root_cost = 0;
  bool union_relaxed = false;
  /// Every valid root attribute order with its cost, best first. Each entry
  /// is (comma-joined vertex names, cost, relaxed?).
  struct Candidate {
    std::string order;
    double cost = 0;
    bool union_relaxed = false;
  };
  std::vector<Candidate> root_candidates;
};

/// Abstract SQL-in / columnar-results-out backend. Implementations must be
/// thread-safe for concurrent calls (the server's workers share one
/// backend).
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// Runs one SELECT statement (EXPLAIN [ANALYZE] prefixes included); see
  /// Engine::Query for the full contract.
  [[nodiscard]] virtual Result<QueryResult> Query(
      const std::string& sql, const QueryOptions& options = QueryOptions()) = 0;

  /// Runs one SELECT with stats collection forced on.
  [[nodiscard]] virtual Result<QueryResult> QueryAnalyze(
      const std::string& sql, const QueryOptions& options = QueryOptions()) = 0;

  /// Plans without executing.
  [[nodiscard]] virtual Result<ExplainInfo> Explain(
      const std::string& sql, const QueryOptions& options = QueryOptions()) = 0;

  /// Lifetime execution counters for the metrics surfaces; see
  /// Engine::LifetimeStats.
  [[nodiscard]] virtual obs::StatsSnapshot LifetimeStats() const = 0;

  /// The backend's slow-query log (never null; may be disabled).
  virtual obs::SlowQueryLog* slow_query_log() = 0;

  /// The backend's shared trie cache (never null).
  virtual TrieCache* trie_cache() = 0;
};

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_QUERY_BACKEND_H_
