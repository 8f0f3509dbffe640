#include "core/engine.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "obs/profile.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "util/timer.h"

namespace levelheaded {

namespace {

/// EXPLAIN [ANALYZE] prefix detection on the token stream (so casing and
/// whitespace are free). Returns 0 (no prefix), 1 (EXPLAIN), or 2
/// (EXPLAIN ANALYZE), with `rest` set to the statement after the prefix.
int StripExplainPrefix(const std::string& sql, std::string* rest) {
  Result<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return 0;  // let the parser report the error
  const std::vector<Token>& t = tokens.value();
  if (t.size() < 2 || t[0].type != TokenType::kIdentifier ||
      t[0].text != "EXPLAIN") {
    return 0;
  }
  if (t.size() >= 3 && t[1].type == TokenType::kIdentifier &&
      t[1].text == "ANALYZE") {
    *rest = sql.substr(t[2].position);
    return 2;
  }
  *rest = sql.substr(t[1].position);
  return 1;
}

/// Wraps multi-line text as a one-column string result (the psql-style
/// "QUERY PLAN" surface).
QueryResult TextResult(const std::string& text) {
  QueryResult result;
  ResultColumn col;
  col.name = "QUERY PLAN";
  col.type = ValueType::kString;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    col.strs.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  result.num_rows = col.strs.size();
  result.columns.push_back(std::move(col));
  return result;
}

std::string RenderExplainText(const ExplainInfo& info) {
  std::string out;
  if (info.scan_only) {
    out += "plan: scan\n";
  } else if (info.dense == DenseKernel::kGemm) {
    out += "plan: dense gemm\n";
  } else if (info.dense == DenseKernel::kGemv) {
    out += "plan: dense gemv\n";
  } else {
    out += "plan: ghd+wcoj\n";
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "ghd nodes: %zu, fhw: %g\n",
                info.num_ghd_nodes, info.fhw);
  out += buf;
  if (!info.root_order.empty()) {
    out += "root order: " + info.root_order +
           (info.union_relaxed ? " (union-relaxed)" : "") + "\n";
    std::snprintf(buf, sizeof(buf), "root cost: %g\n", info.root_cost);
    out += buf;
  }
  return out;
}

}  // namespace

QueryGuard Engine::MakeGuard(const QueryOptions& options) const {
  QueryGuard guard;
  guard.token = options.cancel_token;
  if (options.timeout_ms > 0) {
    guard.has_deadline = true;
    guard.deadline = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             options.timeout_ms));
  }
  guard.max_result_rows = options_.max_result_rows;
  return guard;
}

Result<PhysicalPlan> Engine::Prepare(const std::string& sql,
                                     const QueryOptions& options,
                                     QueryResult::Timing* timing,
                                     obs::Trace* trace,
                                     const QueryGuard* guard) {
  if (!catalog_->finalized()) {
    return Status::InvalidArgument(
        "catalog must be finalized before querying");
  }
  WallTimer parse_timer;
  obs::TraceSpan parse_span(trace, "parse");
  Result<SelectStmt> stmt = ParseSelect(sql);
  if (!stmt.ok()) return stmt.status();
  parse_span.End();
  obs::TraceSpan bind_span(trace, "bind");
  Result<LogicalQuery> bound = Bind(stmt.TakeValue(), *catalog_);
  if (!bound.ok()) return bound.status();
  bind_span.End();
  timing->parse_ms = parse_timer.ElapsedMillis();

  WallTimer plan_timer;
  obs::TraceSpan plan_span(trace, "plan");
  Result<PhysicalPlan> plan =
      BuildPlan(bound.TakeValue(), *catalog_, options, trace, guard);
  plan_span.End();
  timing->plan_ms = plan_timer.ElapsedMillis();
  return plan;
}

Result<QueryResult> Engine::RunQuery(const std::string& sql,
                                     const QueryOptions& options) {
  WallTimer timer;
  Result<QueryResult> result = RunQueryImpl(sql, options);
  const double elapsed_ms = timer.ElapsedMillis();

  const obs::QueryProfile* profile =
      result.ok() ? result.value().profile.get() : nullptr;
  if (profile != nullptr) lifetime_stats_.Add(profile->counters);

  if (slow_query_log_.enabled() && elapsed_ms >= slow_query_log_.threshold_ms()) {
    obs::SlowQueryRecord record;
    record.sql = sql;
    record.latency_ms = elapsed_ms;
    if (result.ok()) {
      record.status = "OK";
      record.num_rows = result.value().num_rows;
    } else {
      record.status = StatusCodeName(result.status().code());
    }
    // Cache effectiveness and span attribution need a profile; plain
    // queries (collect_stats off) log sql/latency/status only.
    if (profile != nullptr) {
      record.cache_hits = profile->counters.trie_cache_hits;
      record.cache_misses = profile->counters.trie_cache_misses;
      record.top_spans = obs::SlowQueryRecord::TopSpans(profile->spans);
    }
    slow_query_log_.MaybeRecord(std::move(record));
  }
  return result;
}

obs::StatsSnapshot Engine::LifetimeStats() const {
  obs::StatsSnapshot s = lifetime_stats_.Snapshot();
  s.cache_bytes = trie_cache_.bytes();
  return s;
}

Result<QueryResult> Engine::RunQueryImpl(const std::string& sql,
                                         const QueryOptions& options) {
  QueryResult::Timing timing;
  const QueryGuard guard = MakeGuard(options);
  if (!options.collect_stats) {
    LH_ASSIGN_OR_RETURN(PhysicalPlan plan,
                        Prepare(sql, options, &timing, nullptr, &guard));
    return ExecutePlan(plan, *catalog_, &trie_cache_, &timing, nullptr,
                       &guard);
  }
  auto qobs = std::make_unique<obs::QueryObs>();
  obs::StatsScope stats_scope(&qobs->stats);
  obs::TraceSpan query_span(&qobs->trace, "query");
  Result<PhysicalPlan> plan =
      Prepare(sql, options, &timing, &qobs->trace, &guard);
  if (!plan.ok()) return plan.status();
  obs::TraceSpan exec_span(&qobs->trace, "execute");
  Result<QueryResult> result = ExecutePlan(plan.value(), *catalog_,
                                           &trie_cache_, &timing, qobs.get(),
                                           &guard);
  exec_span.End();
  query_span.End();
  // Cache residency is a gauge, not an event counter: sample it after the
  // query so the profile reports the bytes this engine's cache holds now.
  qobs->stats.SetCacheBytes(trie_cache_.bytes());
  if (result.ok()) result.value().profile = qobs->Finish();
  return result;
}

Result<QueryResult> Engine::Query(const std::string& sql,
                                  const QueryOptions& options) {
  std::string rest;
  const int explain_mode = StripExplainPrefix(sql, &rest);
  if (explain_mode == 1) {
    LH_ASSIGN_OR_RETURN(ExplainInfo info, Explain(rest, options));
    return TextResult(RenderExplainText(info));
  }
  if (explain_mode == 2) {
    QueryOptions opts = options;
    opts.collect_stats = true;
    LH_ASSIGN_OR_RETURN(QueryResult inner, RunQuery(rest, opts));
    QueryResult result = TextResult(
        inner.profile != nullptr ? inner.profile->ToText() : std::string());
    result.timing = inner.timing;
    result.profile = inner.profile;
    return result;
  }
  return RunQuery(sql, options);
}

Result<QueryResult> Engine::QueryAnalyze(const std::string& sql,
                                         const QueryOptions& options) {
  QueryOptions opts = options;
  opts.collect_stats = true;
  return RunQuery(sql, opts);
}

Result<ExplainInfo> Engine::Explain(const std::string& sql,
                                    const QueryOptions& options) {
  QueryResult::Timing timing;
  LH_ASSIGN_OR_RETURN(PhysicalPlan plan,
                      Prepare(sql, options, &timing, nullptr));
  ExplainInfo info;
  info.scan_only = plan.scan_only;
  info.dense = plan.dense;
  info.num_ghd_nodes = plan.nodes.size();
  info.fhw = plan.ghd.fhw;
  if (!plan.nodes.empty()) {
    const NodePlan& root = plan.nodes[0];
    info.root_order = plan.RootOrderString();
    info.root_cost = root.cost;
    info.union_relaxed = root.union_relaxed;
    for (const OrderCandidate& cand : root.candidates) {
      ExplainInfo::Candidate c;
      for (size_t i = 0; i < cand.order.size(); ++i) {
        if (i > 0) c.order += ",";
        const int g = root.local_to_global[cand.order[i]];
        c.order += plan.query.vertices[g].name;
      }
      c.cost = cand.cost;
      c.union_relaxed = cand.union_relaxed;
      info.root_candidates.push_back(std::move(c));
    }
  }
  return info;
}

}  // namespace levelheaded
