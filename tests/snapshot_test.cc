#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "reference_executor.h"
#include "storage/snapshot.h"
#include "workload/tpch_gen.h"

namespace levelheaded {
namespace {

using ::levelheaded::testing::ExpectResultsMatch;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SnapshotTest, RoundTripPreservesQueries) {
  Catalog original;
  TpchGenerator gen(0.001);
  ASSERT_TRUE(gen.Populate(&original).ok());
  ASSERT_TRUE(original.Finalize().ok());

  const std::string path = TempPath("tpch.lhsnap");
  ASSERT_TRUE(SaveCatalog(original, path).ok());

  auto loaded = LoadCatalog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value()->finalized());
  EXPECT_EQ(loaded.value()->TableNames(), original.TableNames());

  Engine a(&original);
  Engine b(loaded.value().get());
  for (const char* q : {"q1", "q5", "q9", "q12"}) {
    auto ra = a.Query(TpchQuery(q));
    auto rb = b.Query(TpchQuery(q));
    ASSERT_TRUE(ra.ok()) << q;
    ASSERT_TRUE(rb.ok()) << q << ": " << rb.status().ToString();
    ExpectResultsMatch(rb.value(), ra.value(), q);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, SharedDomainsSurvive) {
  Catalog original;
  Table* e = original
                 .CreateTable(TableSchema(
                     "edge",
                     {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                      ColumnSpec::Key("dst", ValueType::kInt64, "node")}))
                 .ValueOrDie();
  ASSERT_TRUE(e->AppendRow({Value::Int(5), Value::Int(9)}).ok());
  ASSERT_TRUE(e->AppendRow({Value::Int(9), Value::Int(5)}).ok());
  ASSERT_TRUE(original.Finalize().ok());

  const std::string path = TempPath("edge.lhsnap");
  ASSERT_TRUE(SaveCatalog(original, path).ok());
  auto loaded = LoadCatalog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dictionary* dom = loaded.value()->GetDomain("node");
  ASSERT_NE(dom, nullptr);
  EXPECT_EQ(dom->size(), 2u);
  // Key columns still point at the shared domain: a self-join works.
  Engine engine(loaded.value().get());
  auto r = engine.Query(
      "SELECT count(*) FROM edge e1, edge e2 WHERE e1.dst = e2.src");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().GetValue(0, 0), Value::Real(2));
  std::remove(path.c_str());
}

TEST(SnapshotTest, Errors) {
  Catalog unfinalized;
  EXPECT_FALSE(SaveCatalog(unfinalized, TempPath("x.lhsnap")).ok());
  EXPECT_FALSE(LoadCatalog("/nonexistent/path.lhsnap").ok());
  // Not a snapshot file.
  const std::string junk = TempPath("junk.lhsnap");
  FILE* f = fopen(junk.c_str(), "w");
  fputs("hello world, definitely not a snapshot", f);
  fclose(f);
  EXPECT_FALSE(LoadCatalog(junk).ok());
  std::remove(junk.c_str());
}

TEST(SnapshotTest, CorruptLengthFieldIsAnErrorNotAnAbort) {
  Catalog original;
  Table* e = original
                 .CreateTable(TableSchema(
                     "edge",
                     {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                      ColumnSpec::Key("dst", ValueType::kInt64, "node")}))
                 .ValueOrDie();
  ASSERT_TRUE(e->AppendRow({Value::Int(5), Value::Int(9)}).ok());
  ASSERT_TRUE(original.Finalize().ok());
  const std::string path = TempPath("corrupt.lhsnap");
  ASSERT_TRUE(SaveCatalog(original, path).ok());

  // Layout: magic (8) | domain count (u32) | name "node" (u32 length + 4
  // bytes) | dictionary type (u8) | dictionary value count (u64). Claim
  // 2^40 int64 values in a file of a few hundred bytes.
  constexpr long kValueCountOffset = 8 + 4 + 4 + 4 + 1;
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  uint64_t count = 0;
  ASSERT_EQ(fseek(f, kValueCountOffset, SEEK_SET), 0);
  ASSERT_EQ(fread(&count, sizeof(count), 1, f), 1u);
  ASSERT_EQ(count, 2u);  // the offset points at the domain's value count
  count = uint64_t{1} << 40;
  ASSERT_EQ(fseek(f, kValueCountOffset, SEEK_SET), 0);
  ASSERT_EQ(fwrite(&count, sizeof(count), 1, f), 1u);
  fclose(f);

  auto loaded = LoadCatalog(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace levelheaded
