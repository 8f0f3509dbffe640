#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/group_accum.h"
#include "core/plan.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/rng.h"

namespace levelheaded {
namespace {

std::vector<AggExec> MakeAggs(std::initializer_list<AggFunc> funcs) {
  std::vector<AggExec> aggs;
  for (AggFunc f : funcs) {
    AggExec a;
    a.func = f;
    aggs.push_back(std::move(a));
  }
  return aggs;
}

TEST(GroupAccumTest, HashedGrouping) {
  auto aggs = MakeAggs({AggFunc::kSum, AggFunc::kCount});
  GroupAccum g(1, &aggs);
  const double main1[] = {2.5, 1.0};
  const double aux1[] = {0.0, 0.0};
  uint64_t k1 = 7, k2 = 9;
  g.Apply(g.FindOrCreate(&k1), main1, aux1);
  g.Apply(g.FindOrCreate(&k2), main1, aux1);
  g.Apply(g.FindOrCreate(&k1), main1, aux1);
  ASSERT_EQ(g.num_groups(), 2u);
  // Group order is insertion order.
  EXPECT_EQ(g.key(0)[0], 7u);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.Finalize(1, 0), 2.5);
}

TEST(GroupAccumTest, MinMaxInitialization) {
  auto aggs = MakeAggs({AggFunc::kMin, AggFunc::kMax});
  GroupAccum g(1, &aggs);
  uint64_t k = 1;
  const double m1[] = {5.0, 5.0};
  const double m2[] = {-2.0, -2.0};
  const double aux[] = {0.0, 0.0};
  g.Apply(g.FindOrCreate(&k), m1, aux);
  g.Apply(g.FindOrCreate(&k), m2, aux);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 1), 5.0);
}

TEST(GroupAccumTest, AvgDividesByAux) {
  auto aggs = MakeAggs({AggFunc::kAvg});
  GroupAccum g(0, &aggs);
  const double main1[] = {10.0};
  const double aux1[] = {1.0};
  const double main2[] = {20.0};
  const double aux2[] = {1.0};
  g.Apply(g.ScalarGroup(), main1, aux1);
  g.Apply(g.ScalarGroup(), main2, aux2);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), 15.0);
}

TEST(GroupAccumTest, AppendModeDetectsRepeats) {
  auto aggs = MakeAggs({AggFunc::kSum});
  GroupAccum g(2, &aggs);
  const double main[] = {1.0};
  const double aux[] = {0.0};
  uint64_t k1[] = {1, 2};
  uint64_t k2[] = {1, 3};
  g.Apply(g.AppendOrLast(k1), main, aux);
  g.Apply(g.AppendOrLast(k1), main, aux);
  g.Apply(g.AppendOrLast(k2), main, aux);
  ASSERT_EQ(g.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.Finalize(1, 0), 1.0);
}

TEST(GroupAccumTest, MergeCombinesAllFuncs) {
  auto aggs =
      MakeAggs({AggFunc::kSum, AggFunc::kMin, AggFunc::kMax, AggFunc::kAvg});
  GroupAccum a(1, &aggs), b(1, &aggs);
  uint64_t k = 42;
  const double main1[] = {1.0, 3.0, 3.0, 4.0};
  const double aux1[] = {0.0, 0.0, 0.0, 1.0};
  const double main2[] = {2.0, -1.0, 7.0, 8.0};
  const double aux2[] = {0.0, 0.0, 0.0, 1.0};
  a.Apply(a.FindOrCreate(&k), main1, aux1);
  b.Apply(b.FindOrCreate(&k), main2, aux2);
  a.MergeFrom(b);
  ASSERT_EQ(a.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(a.Finalize(0, 0), 3.0);   // sum
  EXPECT_DOUBLE_EQ(a.Finalize(0, 1), -1.0);  // min
  EXPECT_DOUBLE_EQ(a.Finalize(0, 2), 7.0);   // max
  EXPECT_DOUBLE_EQ(a.Finalize(0, 3), 6.0);   // avg
}

TEST(GroupAccumTest, ConcatMergesBoundaryGroup) {
  auto aggs = MakeAggs({AggFunc::kSum});
  GroupAccum a(1, &aggs), b(1, &aggs);
  const double main[] = {1.0};
  const double aux[] = {0.0};
  uint64_t k1 = 1, k2 = 2, k3 = 3;
  a.Apply(a.AppendOrLast(&k1), main, aux);
  a.Apply(a.AppendOrLast(&k2), main, aux);
  // b starts with the same group a ended with.
  b.Apply(b.AppendOrLast(&k2), main, aux);
  b.Apply(b.AppendOrLast(&k3), main, aux);
  a.ConcatFrom(b);
  ASSERT_EQ(a.num_groups(), 3u);
  EXPECT_DOUBLE_EQ(a.Finalize(1, 0), 2.0);  // k2 merged across the boundary
  EXPECT_DOUBLE_EQ(a.Finalize(2, 0), 1.0);
}

TEST(GroupAccumTest, ScalarGroupSingleton) {
  auto aggs = MakeAggs({AggFunc::kCount});
  GroupAccum g(0, &aggs);
  EXPECT_EQ(g.num_groups(), 0u);
  const double main[] = {1.0};
  const double aux[] = {0.0};
  g.Apply(g.ScalarGroup(), main, aux);
  g.Apply(g.ScalarGroup(), main, aux);
  EXPECT_EQ(g.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(g.Finalize(0, 0), 2.0);
}

// ---------------------------------------------------------------------------
// Multi-part materialization: append-mode chunk partials go to
// MaterializeGroups as they are, after GroupAccum::ResolveBoundaryGroups.
// That must give the same bytes as ConcatFrom into one table followed by
// single-part materialization.

class MultiPartMaterializeTest : public ::testing::Test {
 protected:
  static constexpr int kNames = 12;
  static constexpr int kKeys = 3000;

  void SetUp() override {
    Table* t =
        catalog_
            .CreateTable(TableSchema(
                "t", {ColumnSpec::Key("name", ValueType::kString, "name"),
                      ColumnSpec::Key("k", ValueType::kInt64, "k"),
                      ColumnSpec::Annotation("v", ValueType::kDouble)}))
            .ValueOrDie();
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(t->AppendRow({Value::Str(Name(i % kNames)), Value::Int(i),
                                Value::Real(1.0)})
                      .ok());
    }
    Table* u = catalog_
                   .CreateTable(TableSchema(
                       "u", {ColumnSpec::Key("k", ValueType::kInt64, "k"),
                             ColumnSpec::Annotation("w", ValueType::kDouble)}))
                   .ValueOrDie();
    ASSERT_TRUE(u->AppendRow({Value::Int(0), Value::Real(1.0)}).ok());
    ASSERT_TRUE(catalog_.Finalize().ok());

    // A string key vertex and an integer key vertex; SUM, AVG, MIN and MAX
    // slots; a post-aggregation expression; a HAVING that drops groups.
    auto parsed = ParseSelect(
        "SELECT t.name, t.k, sum(t.v), avg(t.v), min(t.v), max(t.v), "
        "sum(t.v) * 2 - min(t.v) FROM t, u WHERE t.k = u.k "
        "GROUP BY t.name, t.k HAVING sum(t.v) > 0");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto bound = Bind(parsed.TakeValue(), catalog_);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto plan = BuildPlan(bound.TakeValue(), catalog_, QueryOptions());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::make_unique<PhysicalPlan>(plan.TakeValue());
    ASSERT_EQ(plan_->aggs.size(), 4u);
    for (const GroupDimExec& d : plan_->dims) {
      dims_.push_back(ClassifyDim(d, *plan_, catalog_, /*join_path=*/true));
      ASSERT_EQ(dims_.back().kind, DimKind::kKeyVertex);
    }
  }

  static std::string Name(int i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "n%02d", i);
    return buf;
  }

  std::unique_ptr<GroupAccum> NewPart() const {
    return std::make_unique<GroupAccum>(2, &plan_->aggs);
  }

  /// Adds one row with value `x` to group (name code, k code) of `part`.
  static void Add(GroupAccum* part, uint64_t name, uint64_t k, double x) {
    const uint64_t key[] = {name, k};
    const double main[] = {x, x, x, x};
    const double aux[] = {0.0, 1.0, 0.0, 0.0};
    part->Apply(part->AppendOrLast(key), main, aux);
  }

  /// Materializes `parts` both ways and checks the bytes agree, under both
  /// string forms. Returns the multi-part result with decoded strings.
  QueryResult CheckAgainstConcat(
      std::vector<std::unique_ptr<GroupAccum>>* parts) {
    GroupAccum one(2, &plan_->aggs);
    for (const auto& p : *parts) one.ConcatFrom(*p);
    GroupAccum::ResolveBoundaryGroups(*parts);
    std::vector<const GroupAccum*> const_parts;
    for (const auto& p : *parts) const_parts.push_back(p.get());
    QueryResult decoded;
    for (bool encoded : {true, false}) {
      plan_->options.keep_strings_encoded = encoded;
      QueryResult want = MaterializeGroups(*plan_, {&one}, dims_);
      QueryResult got = MaterializeGroups(*plan_, const_parts, dims_);
      ExpectSameBytes(want, got, encoded ? "encoded" : "decoded");
      if (!encoded) decoded = std::move(got);
    }
    // Independent of MaterializeGroups: the groups HAVING keeps, in order.
    // Codes are ranks, so name code i decodes to Name(i) and k code i to i.
    size_t row = 0;
    for (size_t g = 0; g < one.num_groups(); ++g) {
      if (!(one.Finalize(g, 0) > 0)) continue;
      EXPECT_LT(row, decoded.num_rows);
      if (row >= decoded.num_rows) break;
      EXPECT_EQ(decoded.columns[0].strs[row],
                Name(static_cast<int>(one.key(g)[0])));
      EXPECT_EQ(decoded.columns[1].ints[row],
                static_cast<int64_t>(one.key(g)[1]));
      EXPECT_EQ(BitcastDouble(decoded.columns[2].reals[row]),
                BitcastDouble(one.Finalize(g, 0)));
      ++row;
    }
    EXPECT_EQ(row, decoded.num_rows);
    return decoded;
  }

  static void ExpectSameBytes(const QueryResult& x, const QueryResult& y,
                              const std::string& what) {
    ASSERT_EQ(x.num_rows, y.num_rows) << what;
    ASSERT_EQ(x.columns.size(), y.columns.size()) << what;
    for (size_t c = 0; c < x.columns.size(); ++c) {
      const ResultColumn& xc = x.columns[c];
      const ResultColumn& yc = y.columns[c];
      EXPECT_EQ(xc.name, yc.name) << what;
      EXPECT_EQ(xc.type, yc.type) << what;
      EXPECT_EQ(xc.dict, yc.dict) << what;
      EXPECT_EQ(xc.ints, yc.ints) << what << " column " << xc.name;
      EXPECT_EQ(xc.strs, yc.strs) << what << " column " << xc.name;
      EXPECT_EQ(xc.codes, yc.codes) << what << " column " << xc.name;
      ASSERT_EQ(xc.reals.size(), yc.reals.size()) << what;
      for (size_t i = 0; i < xc.reals.size(); ++i) {
        ASSERT_EQ(BitcastDouble(xc.reals[i]), BitcastDouble(yc.reals[i]))
            << what << " column " << xc.name << " row " << i;
      }
    }
  }

  Catalog catalog_;
  std::unique_ptr<PhysicalPlan> plan_;
  std::vector<DimInfo> dims_;
};

TEST_F(MultiPartMaterializeTest, BoundaryGroupsEmptyPartsAndHaving) {
  std::vector<std::unique_ptr<GroupAccum>> parts;
  for (int i = 0; i < 5; ++i) parts.push_back(NewPart());
  Add(parts[0].get(), 0, 0, 1.0);
  Add(parts[0].get(), 0, 1, -5.0);  // dropped by HAVING, before a boundary
  Add(parts[0].get(), 1, 2, 2.0);
  // parts[1] stays empty: (n01, 2) straddles it.
  Add(parts[2].get(), 1, 2, 3.0);
  Add(parts[2].get(), 1, 3, -1.0);  // dropped by HAVING, after a boundary
  Add(parts[2].get(), 2, 4, 4.0);
  Add(parts[3].get(), 2, 4, 0.5);  // a part that is one boundary group
  Add(parts[4].get(), 2, 4, 0.25);
  Add(parts[4].get(), 2, 4, -2.0);
  Add(parts[4].get(), 3, 5, 7.0);

  const QueryResult r = CheckAgainstConcat(&parts);
  ASSERT_EQ(r.num_rows, 4u);
  EXPECT_EQ(r.columns[0].strs,
            (std::vector<std::string>{"n00", "n01", "n02", "n03"}));
  EXPECT_EQ(r.columns[1].ints, (std::vector<int64_t>{0, 2, 4, 5}));
  EXPECT_EQ(r.columns[2].reals, (std::vector<double>{1.0, 5.0, 2.75, 7.0}));
  EXPECT_DOUBLE_EQ(r.columns[3].reals[2], 2.75 / 4);  // avg over 4 rows
  EXPECT_EQ(r.columns[4].reals[2], -2.0);             // min
  EXPECT_EQ(r.columns[5].reals[2], 4.0);              // max
  EXPECT_EQ(r.columns[6].reals[1], 5.0 * 2 - 2.0);    // expression
}

// Enough groups for several materialization slices, with slices and part
// boundaries cut at unrelated places, random empty parts and groups that
// straddle up to three parts.
TEST_F(MultiPartMaterializeTest, ManyPartsMatchConcatBytes) {
  Rng rng(20261019);
  std::vector<std::unique_ptr<GroupAccum>> parts;
  parts.push_back(NewPart());
  for (uint64_t name = 0; name < kNames; ++name) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      const int pieces = 1 + static_cast<int>(rng.Uniform(3));
      for (int piece = 0; piece < pieces; ++piece) {
        if (piece > 0 || rng.Bernoulli(0.001)) {
          while (rng.Bernoulli(0.3)) parts.push_back(NewPart());
          parts.push_back(NewPart());
        }
        // Magnitude-varying values: the merge order shows up in the bits.
        const double x =
            rng.UniformDouble(-1, 1) * (rng.Bernoulli(0.5) ? 1e6 : 1);
        Add(parts.back().get(), name, k, x);
      }
    }
  }
  const QueryResult r = CheckAgainstConcat(&parts);
  EXPECT_GT(r.num_rows, 16384u);  // the output spans slices too
}

TEST(BitcastTest, RoundTrip) {
  for (double d : {0.0, -1.5, 3.14159, 1e300, -1e-300}) {
    EXPECT_EQ(UnbitcastDouble(BitcastDouble(d)), d);
  }
}

}  // namespace
}  // namespace levelheaded
