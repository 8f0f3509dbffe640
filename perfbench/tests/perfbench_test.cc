// Tests of the harness's own arithmetic and checks.

#include <gtest/gtest.h>

#include <vector>

#include "metrics.h"
#include "oracle.h"
#include "spans.h"
#include "tracing_backend.h"

namespace perfbench {
namespace {

using levelheaded::QueryResult;
using levelheaded::ValueType;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailTest, KeepsFixedPercentileWithTenBeyond) {
  const TailChoice t = SelectTail(Ramp(1000), 99);
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 990);
}

TEST(TailTest, StepsDownWhenTooFewBeyond) {
  // 999 samples leave 9 beyond p99; p95 leaves 49.
  const TailChoice t = SelectTail(Ramp(999), 99);
  EXPECT_EQ(t.pct, 95);
  EXPECT_EQ(t.beyond, 49u);
  EXPECT_EQ(t.value, 950);
}

TEST(TailTest, NeverAboveTheFixedPercentile) {
  const TailChoice t = SelectTail(Ramp(100000), 90);
  EXPECT_EQ(t.pct, 90);
  EXPECT_EQ(t.beyond, 10000u);
}

TEST(TailTest, SmallSamplesFallToMedian) {
  const TailChoice t = SelectTail(Ramp(12), 99);
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.beyond, 6u);
  EXPECT_EQ(SelectTail({}, 99).value, 0);
}

TEST(TailTest, SamplesBeyondIsExactAtFractionalPercentiles) {
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99.9), 1u);
  EXPECT_EQ(SamplesBeyond(3, 50), 1u);
}

TEST(StealTest, ShareWeighsIntervalsByOverlap) {
  StealTrace trace;
  trace.Record(0, 0, 0);
  trace.Record(1, 0, 100);    // [0,1]: nothing stolen
  trace.Record(2, 50, 150);   // [1,2]: 50 of 100 wanted ticks stolen
  EXPECT_DOUBLE_EQ(trace.Share(0, 1), 0);
  EXPECT_DOUBLE_EQ(trace.Share(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(trace.Share(0, 2), 0.25);
  // Half of each interval: 25 stolen of 50 + 50 wanted.
  EXPECT_DOUBLE_EQ(trace.Share(0.5, 1.5), 0.25);
  EXPECT_DOUBLE_EQ(trace.Share(3, 4), 0);
  EXPECT_DOUBLE_EQ(StealTrace().Share(0, 1), 0);
}

TEST(SpanTest, SelfTimeSubtractsUnionOfChildren) {
  std::vector<Span> spans(5);
  spans[0] = {"client", 1, 0, 10, -1, 0, {}};
  spans[1] = {"backend", 1, 1, 9, 0, 0, {}};
  spans[2] = {"parse", 1, 1, 3, 1, 0, {}};
  spans[3] = {"plan", 1, 2, 5, 1, 0, {}};    // overlaps parse
  spans[4] = {"execute", 1, 6, 8, 1, 0, {}};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 2);  // 10 - backend's 8
  EXPECT_DOUBLE_EQ(self[1], 2);  // 8 - [1,5] - [6,8]
  EXPECT_DOUBLE_EQ(self[2], 2);
  EXPECT_DOUBLE_EQ(self[3], 3);
  EXPECT_DOUBLE_EQ(self[4], 2);
}

TEST(SpanTest, ChildOutsideParentCountsOnlyItsOverlap) {
  std::vector<Span> spans(2);
  spans[0] = {"client", 1, 0, 4, -1, 0, {}};
  spans[1] = {"backend", 1, 3, 7, 0, 0, {}};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 3);
}

TEST(SpanTest, LogLinksBackendToRequestRoot) {
  SpanLog log;
  const int root = log.Begin("client", 42, -1);
  EXPECT_EQ(log.RootOf(42), root);
  EXPECT_EQ(log.RootOf(7), -1);
  const int child = log.Begin("backend", 42, log.RootOf(42));
  log.End(child, {{"x", 1}});
  log.End(root);
  const std::vector<Span> spans = log.Snapshot();
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_GE(spans[0].duration_ms(), spans[1].duration_ms());
}

TEST(SpanTest, RequestIdRoundTripsThroughSql) {
  EXPECT_EQ(RequestIdOf(WithRequestId("SELECT 1 FROM t", 1234)), 1234);
  EXPECT_EQ(RequestIdOf("SELECT 1 FROM t"), -1);
}

TEST(MetricNameTest, CharacterSet) {
  for (const char* ok : {"qps", "p50_ms", "op.q10.p50_ms", "cache.hit-ratio",
                         "9lives", "A_b.c-D"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/x", "colon:x", "uni\xc3\xa9", "tab\t"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricNameTest, MetricSetRejectsBadAndRepeatedNames) {
  MetricSet set;
  set.Add("qps", 1, "1/s");
  EXPECT_DEATH(set.Add("qps", 2, "1/s"), "bad metric name");
  EXPECT_DEATH(set.Add("bad name", 2, "ms"), "bad metric name");
}

QueryResult Table() {
  QueryResult r;
  r.columns.resize(3);
  r.columns[0] = {"k", ValueType::kInt64, {2, 1, 3}, {}, {}, {}, nullptr};
  r.columns[1] = {"name", ValueType::kString, {}, {}, {"b", "a", "c"}, {},
                  nullptr};
  r.columns[2] = {"v", ValueType::kDouble, {}, {0.5, 1e6, -2.25}, {}, {},
                  nullptr};
  r.num_rows = 3;
  return r;
}

TEST(OracleTest, AcceptsReorderedRowsWithinTolerance) {
  QueryResult want = Table();
  QueryResult got = Table();
  std::swap(got.columns[0].ints[0], got.columns[0].ints[1]);
  std::swap(got.columns[1].strs[0], got.columns[1].strs[1]);
  std::swap(got.columns[2].reals[0], got.columns[2].reals[1]);
  got.columns[2].reals[0] *= 1 + 1e-12;
  std::string why;
  EXPECT_TRUE(SameAnswer(got, want, 1e-9, &why)) << why;
  EXPECT_FALSE(SameBytes(got, want));
  EXPECT_TRUE(SameBytes(want, Table()));
}

TEST(OracleTest, RejectsOnePerturbedCell) {
  std::string why;
  QueryResult real = Table();
  real.columns[2].reals[2] += 1e-6;
  EXPECT_FALSE(SameAnswer(real, Table(), 1e-9, &why));
  EXPECT_NE(why.find("column v"), std::string::npos) << why;
  EXPECT_FALSE(SameBytes(real, Table()));

  QueryResult integer = Table();
  integer.columns[0].ints[1] = 4;
  EXPECT_FALSE(SameAnswer(integer, Table(), 1e-9, &why));

  QueryResult text = Table();
  text.columns[1].strs[0] = "z";
  EXPECT_FALSE(SameAnswer(text, Table(), 1e-9, &why));
}

TEST(OracleTest, RejectsShapeAndTypeChanges) {
  std::string why;
  QueryResult fewer = Table();
  fewer.num_rows = 2;
  for (auto& c : fewer.columns) {
    if (!c.ints.empty()) c.ints.pop_back();
    if (!c.strs.empty()) c.strs.pop_back();
    if (!c.reals.empty()) c.reals.pop_back();
  }
  EXPECT_FALSE(SameAnswer(fewer, Table(), 1e-9, &why));
  QueryResult retyped = Table();
  retyped.columns[0].type = ValueType::kInt32;
  EXPECT_FALSE(SameAnswer(retyped, Table(), 1e-9, &why));
}

TEST(OracleTest, ResponseBodyDropsTiming) {
  EXPECT_EQ(ResponseBody(R"({"ok":true,"columns":[],"timing":{"a":1}})"),
            R"({"ok":true,"columns":[])");
}

}  // namespace
}  // namespace perfbench
