#include "tracing_backend.h"

#include <cstdlib>

#include "core/cancel.h"
#include "core/executor.h"
#include "core/plan.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

using namespace levelheaded;

namespace {
constexpr char kRidTag[] = " -- rid=";
}  // namespace

std::string WithRequestId(const std::string& sql, int64_t rid) {
  return sql + kRidTag + std::to_string(rid);
}

int64_t RequestIdOf(const std::string& sql) {
  const size_t at = sql.rfind(kRidTag);
  if (at == std::string::npos) return -1;
  return std::strtoll(sql.c_str() + at + sizeof(kRidTag) - 1, nullptr, 10);
}

Result<QueryResult> TracingBackend::Query(const std::string& sql,
                                          const QueryOptions& options) {
  const int64_t rid = RequestIdOf(sql);
  const int backend = log_->Begin("backend", rid, log_->RootOf(rid));
  // Honour the server's cancel token as Engine::Query does, so shutdown
  // behaves alike (the benchmark sets no deadlines).
  QueryGuard guard;
  guard.token = options.cancel_token;

  int span = log_->Begin("parse", rid, backend);
  Result<SelectStmt> stmt = ParseSelect(sql);
  log_->End(span);
  if (!stmt.ok()) {
    log_->End(backend);
    return stmt.status();
  }
  span = log_->Begin("bind", rid, backend);
  Result<LogicalQuery> bound = Bind(stmt.TakeValue(), *catalog_);
  log_->End(span);
  if (!bound.ok()) {
    log_->End(backend);
    return bound.status();
  }
  span = log_->Begin("plan", rid, backend);
  Result<PhysicalPlan> plan =
      BuildPlan(bound.TakeValue(), *catalog_, options, nullptr, &guard);
  log_->End(span);
  if (!plan.ok()) {
    log_->End(backend);
    return plan.status();
  }
  QueryResult::Timing timing;
  span = log_->Begin("execute", rid, backend);
  Result<QueryResult> result =
      ExecutePlan(plan.value(), *catalog_, engine_->trie_cache(), &timing,
                  nullptr, &guard);
  log_->End(span, {{"filter_ms", timing.filter_ms},
                   {"index_build_ms", timing.index_build_ms}});
  log_->End(backend);
  return result;
}

}  // namespace perfbench
