// Executor-level cancellation, deadline, and result-cap tests: the
// cooperative QueryGuard plumbed from QueryOptions through the planner and
// executor (core/cancel.h). The serving layer's use of the same machinery
// is covered by server_test.cc.

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cancel.h"
#include "core/engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace levelheaded {
namespace {

constexpr char kTriangleSql[] =
    "SELECT count(*) FROM edge e1, edge e2, edge e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src";

/// A random graph over a shared "node" domain, dense enough that queries
/// pass through every executor path (trie build, WCOJ loops, aggregation).
class CancelTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 40;
  static constexpr size_t kEdges = 400;

  void SetUp() override {
    Table* t = catalog_
                   .CreateTable(TableSchema(
                       "edge",
                       {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                        ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                        ColumnSpec::Annotation("w", ValueType::kDouble)}))
                   .ValueOrDie();
    Rng rng(0xCA9CE1);
    std::set<std::pair<int, int>> seen;
    while (seen.size() < kEdges) {
      int a = static_cast<int>(rng.Uniform(kNodes));
      int b = static_cast<int>(rng.Uniform(kNodes));
      if (a == b || !seen.insert({a, b}).second) continue;
      ASSERT_TRUE(t->AppendRow({Value::Int(a), Value::Int(b),
                                Value::Real(rng.UniformDouble(0, 1))})
                      .ok());
    }
    ASSERT_TRUE(catalog_.Finalize().ok());
  }

  Catalog catalog_;
};

TEST_F(CancelTest, NoGuardByDefaultSucceeds) {
  Engine engine(&catalog_);
  auto result = engine.Query(kTriangleSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, 1u);
}

TEST_F(CancelTest, PreCancelledTokenReturnsCancelled) {
  Engine engine(&catalog_);
  CancelToken token;
  token.Cancel();
  QueryOptions opts;
  opts.cancel_token = &token;
  auto result = engine.Query(kTriangleSql, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(CancelTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  Engine engine(&catalog_);
  QueryOptions opts;
  // A deadline this small has passed by the first guard check, whatever
  // the machine speed — the deterministic version of "query too slow".
  opts.timeout_ms = 1e-6;
  auto result = engine.Query(kTriangleSql, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(CancelTest, AnalyzePathHonoursDeadline) {
  Engine engine(&catalog_);
  QueryOptions opts;
  opts.timeout_ms = 1e-6;
  auto result = engine.QueryAnalyze(kTriangleSql, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(CancelTest, TokenResetAllowsReuse) {
  Engine engine(&catalog_);
  CancelToken token;
  QueryOptions opts;
  opts.cancel_token = &token;

  token.Cancel();
  auto cancelled = engine.Query(kTriangleSql, opts);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  token.Reset();
  auto ok = engine.Query(kTriangleSql, opts);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().num_rows, 1u);
}

TEST_F(CancelTest, GenerousDeadlineDoesNotTrip) {
  Engine engine(&catalog_);
  QueryOptions opts;
  opts.timeout_ms = 60'000;
  auto result = engine.Query(kTriangleSql, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(CancelTest, CancelFromAnotherThreadUnblocksQuery) {
  Engine engine(&catalog_);
  CancelToken token;
  QueryOptions opts;
  opts.cancel_token = &token;
  // The cancel may land before, during, or after the (fast) query — all
  // three are legal outcomes; what must hold is that the call returns and
  // any failure is kCancelled, not a hang or a crash.
  std::thread canceller([&token] { token.Cancel(); });
  auto result = engine.Query(kTriangleSql, opts);
  canceller.join();
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

// Concurrent callers on one engine, each racing its own canceller: every
// parallel region a cancelled query registered must leave the pool's
// live-job list, and the engine must answer in full afterwards.
TEST_F(CancelTest, ConcurrentCancelBurstLeavesNoLiveJobs) {
  Engine engine(&catalog_);
  const std::string heavy =
      "SELECT sum(e1.w * e2.w * e3.w) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src";
  constexpr int kCallers = 4;
  constexpr int kRounds = 8;
  std::vector<int> wrong_code(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        CancelToken token;
        QueryOptions opts;
        opts.cancel_token = &token;
        std::thread canceller([&token] { token.Cancel(); });
        auto result = engine.Query(heavy, opts);
        canceller.join();
        if (!result.ok() &&
            result.status().code() != StatusCode::kCancelled) {
          ++wrong_code[c];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(wrong_code[c], 0) << c;

  EXPECT_EQ(ThreadPool::Global().job_counts().live, 0);
  auto follow_up = engine.Query(heavy);
  ASSERT_TRUE(follow_up.ok()) << follow_up.status().ToString();
  EXPECT_EQ(follow_up.value().num_rows, 1u);
}

TEST_F(CancelTest, MaxResultRowsCapsScans) {
  EngineOptions limits;
  limits.max_result_rows = kEdges - 1;
  Engine engine(&catalog_, limits);
  auto result = engine.Query("SELECT src, dst FROM edge");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CancelTest, MaxResultRowsExactFitPasses) {
  EngineOptions limits;
  limits.max_result_rows = kEdges;
  Engine engine(&catalog_, limits);
  auto result = engine.Query("SELECT src, dst FROM edge");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, kEdges);
}

TEST_F(CancelTest, MaxResultRowsCapsJoinOutput) {
  EngineOptions limits;
  limits.max_result_rows = 8;
  Engine engine(&catalog_, limits);
  // Two-hop paths materialize far more than 8 rows on this graph.
  auto result = engine.Query(
      "SELECT e1.src, e2.dst FROM edge e1, edge e2 "
      "WHERE e1.dst = e2.src");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(CancelTest, MaxResultRowsIgnoresAggregates) {
  EngineOptions limits;
  limits.max_result_rows = 8;
  Engine engine(&catalog_, limits);
  // The aggregate output is one row; the cap applies to materialized
  // output rows, not intermediate join size.
  auto result = engine.Query(kTriangleSql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().num_rows, 1u);
}

TEST(CancelTokenTest, ResetAndCancelAreIdempotent) {
  CancelToken token;
  EXPECT_FALSE(token.IsCancelled());
  token.Cancel();
  token.Cancel();
  EXPECT_TRUE(token.IsCancelled());
  token.Reset();
  token.Reset();
  EXPECT_FALSE(token.IsCancelled());
}

TEST(QueryGuardTest, ChecksReportTheRightCodes) {
  QueryGuard guard;
  EXPECT_TRUE(guard.Check().ok());  // inert guard
  EXPECT_TRUE(guard.CheckRows(1u << 30).ok());

  CancelToken token;
  guard.token = &token;
  EXPECT_TRUE(guard.Check().ok());
  token.Cancel();
  EXPECT_EQ(guard.Check().code(), StatusCode::kCancelled);
  token.Reset();

  guard.has_deadline = true;
  guard.deadline = std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1);
  EXPECT_EQ(guard.Check().code(), StatusCode::kDeadlineExceeded);
  guard.deadline = std::chrono::steady_clock::now() +
                   std::chrono::hours(1);
  EXPECT_TRUE(guard.Check().ok());

  guard.max_result_rows = 100;
  EXPECT_TRUE(guard.CheckRows(100).ok());
  EXPECT_EQ(guard.CheckRows(101).code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace levelheaded
