#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/csv.h"
#include "storage/dictionary.h"
#include "storage/schema.h"
#include "storage/schema_file.h"
#include "storage/table.h"
#include "util/date.h"

namespace levelheaded {
namespace {

TEST(DictionaryTest, IntOrderPreserving) {
  Dictionary d(ValueType::kInt64);
  for (int64_t v : {30, 10, 20, 10, 5}) d.AddInt(v);
  d.Finalize();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.EncodeInt(5), 0u);
  EXPECT_EQ(d.EncodeInt(10), 1u);
  EXPECT_EQ(d.EncodeInt(20), 2u);
  EXPECT_EQ(d.EncodeInt(30), 3u);
  EXPECT_EQ(d.DecodeInt(2), 20);
  // Order preservation: v1 < v2 <=> code1 < code2.
  EXPECT_LT(d.EncodeInt(5), d.EncodeInt(30));
}

TEST(DictionaryTest, StringOrderPreserving) {
  Dictionary d(ValueType::kString);
  for (const char* s : {"EUROPE", "ASIA", "AFRICA", "ASIA"}) d.AddString(s);
  d.Finalize();
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.DecodeString(d.EncodeString("ASIA")), "ASIA");
  EXPECT_LT(d.EncodeString("AFRICA"), d.EncodeString("ASIA"));
  EXPECT_LT(d.EncodeString("ASIA"), d.EncodeString("EUROPE"));
}

TEST(DictionaryTest, TryEncodeMissing) {
  Dictionary d(ValueType::kInt64);
  d.AddInt(1);
  d.AddInt(3);
  d.Finalize();
  EXPECT_EQ(d.TryEncodeInt(2), -1);
  EXPECT_EQ(d.TryEncodeInt(3), 1);
  EXPECT_EQ(d.LowerBoundInt(2), 1u);
  EXPECT_EQ(d.LowerBoundInt(0), 0u);
  EXPECT_EQ(d.LowerBoundInt(4), 2u);
}

TEST(SchemaTest, ValidationRules) {
  TableSchema ok("t", {ColumnSpec::Key("k", ValueType::kInt64),
                       ColumnSpec::Annotation("v", ValueType::kDouble)});
  EXPECT_TRUE(ok.Validate().ok());

  TableSchema dup("t", {ColumnSpec::Key("k", ValueType::kInt64),
                        ColumnSpec::Key("k", ValueType::kInt64)});
  EXPECT_FALSE(dup.Validate().ok());

  TableSchema float_key(
      "t", {ColumnSpec::Key("k", ValueType::kDouble)});
  EXPECT_FALSE(float_key.Validate().ok());
}

TEST(SchemaTest, DomainDefaultsToColumnName) {
  ColumnSpec k = ColumnSpec::Key("custkey", ValueType::kInt64);
  EXPECT_EQ(k.domain, "custkey");
  ColumnSpec k2 = ColumnSpec::Key("o_custkey", ValueType::kInt64, "custkey");
  EXPECT_EQ(k2.domain, "custkey");
}

class CatalogTest : public ::testing::Test {
 protected:
  Catalog catalog_;

  Table* MakeEdgeTable(const std::string& name) {
    TableSchema schema(
        name, {ColumnSpec::Key("src", ValueType::kInt64, "node"),
               ColumnSpec::Key("dst", ValueType::kInt64, "node"),
               ColumnSpec::Annotation("w", ValueType::kDouble)});
    return catalog_.CreateTable(std::move(schema)).ValueOrDie();
  }
};

TEST_F(CatalogTest, SharedDomainAcrossColumnsAndTables) {
  Table* e1 = MakeEdgeTable("e1");
  Table* e2 = MakeEdgeTable("e2");
  ASSERT_TRUE(
      e1->AppendRow({Value::Int(10), Value::Int(30), Value::Real(1.0)}).ok());
  ASSERT_TRUE(
      e2->AppendRow({Value::Int(20), Value::Int(10), Value::Real(2.0)}).ok());
  ASSERT_TRUE(catalog_.Finalize().ok());

  const Dictionary* dom = catalog_.GetDomain("node");
  ASSERT_NE(dom, nullptr);
  EXPECT_EQ(dom->size(), 3u);  // {10, 20, 30}
  // Same value encodes identically across tables and columns.
  EXPECT_EQ(e1->CodeAt(0, 0), e2->CodeAt(0, 1));
}

TEST_F(CatalogTest, DuplicateTableRejected) {
  MakeEdgeTable("e");
  auto r = catalog_.CreateTable(
      TableSchema("e", {ColumnSpec::Key("k", ValueType::kInt64)}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, StringAnnotationEncoded) {
  TableSchema schema("n",
                     {ColumnSpec::Key("nationkey", ValueType::kInt64),
                      ColumnSpec::Annotation("name", ValueType::kString)});
  Table* t = catalog_.CreateTable(std::move(schema)).ValueOrDie();
  ASSERT_TRUE(t->AppendRow({Value::Int(0), Value::Str("FRANCE")}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Int(1), Value::Str("BRAZIL")}).ok());
  ASSERT_TRUE(catalog_.Finalize().ok());
  const ColumnData& col = t->column(1);
  ASSERT_NE(col.dict, nullptr);
  EXPECT_EQ(col.dict->DecodeString(col.codes[0]), "FRANCE");
  EXPECT_EQ(t->GetValue(1, 1), Value::Str("BRAZIL"));
}

TEST_F(CatalogTest, RowArityChecked) {
  Table* t = MakeEdgeTable("e");
  EXPECT_FALSE(t->AppendRow({Value::Int(1)}).ok());
  EXPECT_FALSE(
      t->AppendRow({Value::Str("x"), Value::Int(1), Value::Real(0)}).ok());
}

TEST(CsvTest, ParsesTypedColumns) {
  Catalog catalog;
  TableSchema schema("orders",
                     {ColumnSpec::Key("orderkey", ValueType::kInt64),
                      ColumnSpec::Annotation("orderdate", ValueType::kDate),
                      ColumnSpec::Annotation("total", ValueType::kDouble),
                      ColumnSpec::Annotation("priority", ValueType::kString)});
  Table* t = catalog.CreateTable(std::move(schema)).ValueOrDie();
  const std::string data =
      "1|1994-01-05|100.5|HIGH|\n"
      "2|1995-02-10|2.25|LOW|\n";
  ASSERT_TRUE(LoadCsvString(data, CsvOptions{}, t).ok());
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0), Value::Int(1));
  EXPECT_EQ(t->GetValue(0, 1).AsInt(), ParseDate("1994-01-05").ValueOrDie());
  EXPECT_EQ(t->GetValue(1, 2), Value::Real(2.25));
  EXPECT_EQ(t->GetValue(1, 3), Value::Str("LOW"));
}

TEST(CsvTest, HeaderSkippedAndErrorsReported) {
  Catalog catalog;
  TableSchema schema("t", {ColumnSpec::Key("k", ValueType::kInt64)});
  Table* t = catalog.CreateTable(std::move(schema)).ValueOrDie();
  CsvOptions opts;
  opts.has_header = true;
  ASSERT_TRUE(LoadCsvString("k\n5\n7\n", opts, t).ok());
  EXPECT_EQ(t->num_rows(), 2u);

  Status bad = LoadCsvString("abc\n", CsvOptions{}, t);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kParseError);
}

TEST(CsvTest, ArityMismatchCaught) {
  Catalog catalog;
  TableSchema schema("t", {ColumnSpec::Key("a", ValueType::kInt64),
                           ColumnSpec::Key("b", ValueType::kInt64)});
  Table* t = catalog.CreateTable(std::move(schema)).ValueOrDie();
  EXPECT_FALSE(LoadCsvString("1\n", CsvOptions{}, t).ok());
  EXPECT_FALSE(LoadCsvString("1|2|3\n", CsvOptions{}, t).ok());
}

}  // namespace
}  // namespace levelheaded

namespace levelheaded {
namespace {

TEST(CsvTest, SaveRoundTrips) {
  Catalog catalog;
  TableSchema schema("t",
                     {ColumnSpec::Key("k", ValueType::kInt64),
                      ColumnSpec::Annotation("d", ValueType::kDate),
                      ColumnSpec::Annotation("x", ValueType::kDouble),
                      ColumnSpec::Annotation("s", ValueType::kString)});
  Table* t = catalog.CreateTable(std::move(schema)).ValueOrDie();
  ASSERT_TRUE(LoadCsvString("1|1994-02-03|2.5|hello|\n"
                            "2|2001-12-31|-0.125|wor ld|\n",
                            CsvOptions{}, t)
                  .ok());
  const std::string path = ::testing::TempDir() + "/roundtrip.tbl";
  ASSERT_TRUE(SaveCsvFile(*t, path, CsvOptions{}).ok());

  Catalog catalog2;
  Table* t2 = catalog2
                  .CreateTable(TableSchema(
                      "t", {ColumnSpec::Key("k", ValueType::kInt64),
                            ColumnSpec::Annotation("d", ValueType::kDate),
                            ColumnSpec::Annotation("x", ValueType::kDouble),
                            ColumnSpec::Annotation("s", ValueType::kString)}))
                  .ValueOrDie();
  ASSERT_TRUE(LoadCsvFile(path, CsvOptions{}, t2).ok());
  ASSERT_EQ(t2->num_rows(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(t2->GetValue(r, c), t->GetValue(r, c)) << r << "," << c;
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Schema files: the parse / declare / load split lh_serve builds on (it
// loads several per-partition files into one catalog).

std::string WriteTempFile(const std::string& name,
                          const std::string& contents) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(SchemaFileTest, ParseSeparatesTablesFromLoads) {
  const std::string path = WriteTempFile(
      "parse_spec.lh",
      "# comment\n"
      "table edge src:key:long:node dst:key:long:node w:double\n"
      "load edge part0.tbl\n"
      "load edge part1.tbl\n");
  auto spec = ParseSchemaFile(path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec.value().tables.size(), 1u);
  EXPECT_EQ(spec.value().tables[0].name, "edge");
  EXPECT_EQ(spec.value().tables[0].columns.size(), 3u);
  ASSERT_EQ(spec.value().loads.size(), 2u);
  EXPECT_EQ(spec.value().loads[0].file, "part0.tbl");
  EXPECT_EQ(spec.value().loads[1].file, "part1.tbl");
  std::remove(path.c_str());
}

TEST(SchemaFileTest, DeclareSkipsAlreadyDeclaredTables) {
  Catalog catalog;
  SchemaFileSpec spec;
  spec.tables.push_back(
      {"edge",
       {ColumnSpec::Key("src", ValueType::kInt64, "node"),
        ColumnSpec::Key("dst", ValueType::kInt64, "node")}});
  ASSERT_TRUE(DeclareSchemaTables(spec, &catalog).ok());
  // A partition file repeating the shared declaration is a no-op, not a
  // duplicate-table error.
  ASSERT_TRUE(DeclareSchemaTables(spec, &catalog).ok());
  EXPECT_EQ(catalog.TableNames().size(), 1u);
}

TEST(SchemaFileTest, LoadIntoUndeclaredTableIsNotFound) {
  Catalog catalog;
  SchemaFileSpec spec;
  spec.loads.push_back({"missing", "nowhere.tbl"});
  Status st = LoadSchemaData(spec, &catalog);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

// Two per-partition schema files (each repeating the shared table
// declaration, each loading its own rows) applied to ONE catalog: the
// rows land in one table and the key domain finalizes into one shared
// dictionary spanning both partitions' values.
TEST(SchemaFileTest, PartitionFilesShareOneCatalogAndDictionary) {
  const std::string data0 = WriteTempFile("part0.tbl", "1|2\n3|4\n");
  const std::string data1 = WriteTempFile("part1.tbl", "5|6\n7|1\n");
  const std::string decl =
      "table edge src:key:long:node dst:key:long:node\n";
  const std::string spec0 =
      WriteTempFile("part0.lh", decl + "load edge " + data0 + "\n");
  const std::string spec1 =
      WriteTempFile("part1.lh", decl + "load edge " + data1 + "\n");

  Catalog catalog;
  for (const std::string& path : {spec0, spec1}) {
    auto spec = ParseSchemaFile(path);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    ASSERT_TRUE(DeclareSchemaTables(spec.value(), &catalog).ok());
    ASSERT_TRUE(LoadSchemaData(spec.value(), &catalog).ok());
  }
  ASSERT_TRUE(catalog.Finalize().ok());

  Table* t = catalog.GetTable("edge");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 4u);
  const Dictionary* node = catalog.GetDomain("node");
  ASSERT_NE(node, nullptr);
  // All seven distinct keys from both partitions in one dictionary; both
  // key columns encode through it.
  EXPECT_EQ(node->size(), 7u);
  EXPECT_EQ(t->column(0).dict, node);
  EXPECT_EQ(t->column(1).dict, node);

  for (const std::string& path : {data0, data1, spec0, spec1}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace levelheaded
