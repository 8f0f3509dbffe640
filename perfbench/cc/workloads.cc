// Data generation, setup and oracle checks for the three workloads.

#include <cstdio>
#include <set>
#include <utility>

#include "baseline/pairwise_engine.h"
#include "la/sparse.h"
#include "server/protocol.h"
#include "oracle.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload.h"
#include "workload/matrix_gen.h"
#include "workload/tpch_gen.h"

namespace perfbench {

using namespace levelheaded;

namespace {

/// Relative tolerance between the engine and an oracle that sums floating
/// point values in a different order.
constexpr double kOracleTolerance = 1e-9;

/// Fills op.verified (and op.verified_body) from the engine's answer after
/// checking it against `want` with a relative tolerance.
Status AcceptAnswer(Engine* engine, const QueryResult& want, Op* op) {
  LH_ASSIGN_OR_RETURN(QueryResult got, engine->Query(op->sql));
  std::string why;
  if (!SameAnswer(got, want, kOracleTolerance, &why)) {
    return Status::Internal(op->name + " disagrees with its oracle: " + why);
  }
  op->verified_body =
      ResponseBody(server::BuildResultResponse(got, false, false));
  op->verified = std::move(got);
  return Status::OK();
}

// ---- BI ------------------------------------------------------------------

constexpr double kTpchScale = 0.1;
constexpr int kGraphNodes = 20000;
constexpr int kGraphEdges = 160000;
/// bi_cold's trie-cache budget as a share of the bytes the rotation's tries
/// occupy when fully cached.
constexpr double kColdBudgetShare = 0.25;

constexpr char kTriangleSql[] =
    "SELECT count(*), sum(e1.w * e2.w * e3.w) FROM edge e1, edge e2, edge e3 "
    "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src";

/// A node drawn with density proportional to x^-1/2: a power-law degree
/// distribution with a few heavy hubs.
int64_t PowerLawNode(Rng* rng) {
  const double u = rng->UniformDouble();
  return static_cast<int64_t>(u * u * kGraphNodes);
}

/// Directed graph without self loops or repeated edges, so bag (pairwise)
/// and set (trie) semantics agree.
Status AddEdgeTable(Catalog* catalog, uint64_t seed) {
  LH_ASSIGN_OR_RETURN(
      Table * t,
      catalog->CreateTable(TableSchema(
          "edge", {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                   ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                   ColumnSpec::Annotation("w", ValueType::kDouble)})));
  Rng rng(seed);
  std::set<std::pair<int64_t, int64_t>> seen;
  for (int i = 0; i < kGraphEdges; ++i) {
    const int64_t src = PowerLawNode(&rng);
    const int64_t dst = PowerLawNode(&rng);
    const double w = rng.UniformDouble(0.5, 1.5);
    if (src == dst || !seen.insert({src, dst}).second) continue;
    LH_RETURN_NOT_OK(
        t->AppendRow({Value::Int(src), Value::Int(dst), Value::Real(w)}));
  }
  return Status::OK();
}

class BiWorkload : public Workload {
 public:
  BiWorkload(bool cold, uint64_t seed) : cold_(cold), seed_(seed) {
    const std::vector<const char*> names =
        cold ? std::vector<const char*>{"q3", "q5", "q8", "q9", "q10"}
             : std::vector<const char*>{"q1", "q3", "q5", "q6", "q9", "q10"};
    for (const char* q : names) ops.push_back({q, q, TpchQuery(q), {}, {}});
    if (!cold) ops.push_back({"tri", "tri", kTriangleSql, {}, {}});
    for (size_t i = 0; i < ops.size(); ++i) {
      sequence.push_back(static_cast<int>(i));
    }
    clients = cold ? 1 : 4;
    via_server = !cold;
    // The highest percentile that keeps >= 10 samples beyond it in a 25 s
    // run on a slow or contended host: bi_serve completes 45-95 ops/s
    // (p99 keeps 11-24 beyond), bi_cold 5-16 (p90 keeps 12-40; p95 would
    // drop below 10 on a slow host).
    tail_pct = cold ? 90 : 99;
  }

  Status Setup() override {
    engine_.reset();
    catalog_ = std::make_unique<Catalog>();
    LH_RETURN_NOT_OK(TpchGenerator(kTpchScale, seed_).Populate(catalog_.get()));
    LH_RETURN_NOT_OK(AddEdgeTable(catalog_.get(), seed_ ^ 0x9E3779B97F4A7C15ULL));
    LH_RETURN_NOT_OK(catalog_->Finalize());
    EngineOptions options;
    if (cold_) {
      // Measure the rotation's fully cached footprint, then serve from a
      // cache that holds only a fraction of it.
      Engine sizing(catalog_.get());
      LH_RETURN_NOT_OK(WarmOnce(&sizing));
      options.trie_cache_budget_bytes = static_cast<size_t>(
          kColdBudgetShare *
          static_cast<double>(sizing.trie_cache()->bytes()));
    }
    engine_ = std::make_unique<Engine>(catalog_.get(), options);
    return WarmOnce(engine_.get());
  }

  Status Verify() override {
    PairwiseEngine oracle(catalog_.get(), BaselineMode::kVectorized);
    for (Op& op : ops) {
      LH_ASSIGN_OR_RETURN(QueryResult want, oracle.Query(op.sql));
      LH_RETURN_NOT_OK(AcceptAnswer(engine_.get(), want, &op));
    }
    return Status::OK();
  }

  std::vector<std::pair<std::string, std::string>> Inputs() const override {
    std::vector<std::pair<std::string, std::string>> out = {
        {"tpch_sf", std::to_string(kTpchScale)},
        {"graph", std::to_string(kGraphNodes) + " nodes, " +
                      std::to_string(kGraphEdges) + " draws"}};
    if (cold_) {
      out.push_back({"cache_budget_share", std::to_string(kColdBudgetShare)});
    }
    return out;
  }

 private:
  Status WarmOnce(Engine* engine) {
    for (const Op& op : ops) {
      LH_RETURN_NOT_OK(engine->Query(op.sql).status());
    }
    return Status::OK();
  }

  bool cold_;
  uint64_t seed_;
};

// ---- LA ------------------------------------------------------------------

constexpr double kHarborScale = 0.05;
constexpr double kHv15rScale = 0.2;
/// Each repeating sequence is kSmvRounds x (one harbor SMV, two hv15r SMVs)
/// and then one harbor SMM. The SMVs and the SMM take about equal time, and
/// SMVs are 30 of 31 ops (97%). The unequal SMV mix keeps the median inside
/// the hv15r SMV cluster rather than on the gap between the two SMV kinds.
constexpr int kSmvRounds = 10;

struct Matrix {
  std::string name;
  CsrMatrix csr;
  std::vector<double> x;
};

std::string SmvSql(const std::string& m) {
  return "SELECT m.r, sum(m.v * x.val) FROM " + m + " m, " + m +
         "_x x WHERE m.c = x.i GROUP BY m.r";
}

std::string SmmSql(const std::string& m) {
  return "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM " + m + " m1, " + m +
         " m2 WHERE m1.c = m2.r GROUP BY m1.r, m2.c";
}

/// A CSR matrix as the rows an SMV (y given) or SMM query returns.
QueryResult CsrRows(const CsrMatrix& a, const std::vector<double>* y) {
  QueryResult out;
  const size_t ncols = y != nullptr ? 2 : 3;
  out.columns.resize(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    out.columns[c].type = c + 1 < ncols ? ValueType::kInt64 : ValueType::kDouble;
  }
  for (int64_t r = 0; r < a.num_rows; ++r) {
    const int64_t lo = a.row_ptr[static_cast<size_t>(r)];
    const int64_t hi = a.row_ptr[static_cast<size_t>(r) + 1];
    if (y != nullptr) {
      if (lo == hi) continue;
      out.columns[0].ints.push_back(r);
      out.columns[1].reals.push_back((*y)[static_cast<size_t>(r)]);
      continue;
    }
    for (int64_t k = lo; k < hi; ++k) {
      out.columns[0].ints.push_back(r);
      out.columns[1].ints.push_back(a.col_idx[static_cast<size_t>(k)]);
      out.columns[2].reals.push_back(a.values[static_cast<size_t>(k)]);
    }
  }
  out.num_rows = out.columns.back().reals.size();
  return out;
}

class LaWorkload : public Workload {
 public:
  explicit LaWorkload(uint64_t seed) : seed_(seed) {
    for (const char* m : {"harbor", "hv15r"}) {
      ops.push_back({std::string("smv_") + m, "smv", SmvSql(m), {}, {}});
    }
    ops.push_back({"smm_harbor", "smm", SmmSql("harbor"), {}, {}});
    for (int i = 0; i < kSmvRounds; ++i) sequence.insert(sequence.end(), {0, 1, 1});
    sequence.push_back(2);
    clients = 1;
    via_server = false;
    // One SMM per 31 ops (3.2%): p99 lies inside the SMM cluster, with
    // 25-30 samples beyond it in a 25 s run.
    tail_pct = 99;
  }

  Status Setup() override {
    engine_.reset();
    catalog_ = std::make_unique<Catalog>();
    matrices_.clear();
    const SyntheticMatrix gen[] = {HarborLike(kHarborScale, seed_),
                                   Hv15rLike(kHv15rScale, seed_ + 1)};
    Rng rng(seed_ ^ 0x5DEECE66DULL);
    for (const SyntheticMatrix& m : gen) {
      LH_RETURN_NOT_OK(AddMatrixTable(catalog_.get(), m.name, m.name, m));
      LH_ASSIGN_OR_RETURN(
          Table * x, catalog_->CreateTable(TableSchema(
                         m.name + "_x",
                         {ColumnSpec::Key("i", ValueType::kInt64, m.name),
                          ColumnSpec::Annotation("val", ValueType::kDouble)})));
      Matrix mat{m.name, CooToCsr(m.coo), {}};
      for (int64_t i = 0; i < m.coo.num_rows; ++i) {
        mat.x.push_back(rng.UniformDouble(0.1, 1.0));
        LH_RETURN_NOT_OK(x->AppendRow({Value::Int(i), Value::Real(mat.x.back())}));
      }
      matrices_.push_back(std::move(mat));
    }
    LH_RETURN_NOT_OK(catalog_->Finalize());
    engine_ = std::make_unique<Engine>(catalog_.get());
    for (const Op& op : ops) LH_RETURN_NOT_OK(engine_->Query(op.sql).status());
    return Status::OK();
  }

  Status Verify() override {
    for (size_t i = 0; i < 2; ++i) {
      const Matrix& m = matrices_[i];
      std::vector<double> y(static_cast<size_t>(m.csr.num_rows));
      SpMV(m.csr, m.x.data(), y.data());
      LH_RETURN_NOT_OK(
          AcceptAnswer(engine_.get(), CsrRows(m.csr, &y), &ops[i]));
    }
    return AcceptAnswer(
        engine_.get(),
        CsrRows(SpGEMM(matrices_[0].csr, matrices_[0].csr), nullptr),
        &ops[2]);
  }

  /// la.smv_vs_csr: the sequence's SMV time on LevelHeaded over the same
  /// SMVs on la::SpMV; la.smm_vs_spgemm: SMM over la::SpGEMM.
  void ReferenceMetrics(const std::vector<double>& p50_by_op,
                        MetricSet* out) override {
    double csr_smv = 0;
    for (const Matrix& m : matrices_) {
      std::vector<double> y(static_cast<size_t>(m.csr.num_rows));
      std::vector<double> times;
      for (int rep = 0; rep < 51; ++rep) {
        WallTimer t;
        SpMV(m.csr, m.x.data(), y.data());
        times.push_back(t.ElapsedMillis());
      }
      csr_smv += Median(times);
    }
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer t;
      CsrMatrix c = SpGEMM(matrices_[0].csr, matrices_[0].csr);
      times.push_back(t.ElapsedMillis());
    }
    out->Add("la.smv_vs_csr", (p50_by_op[0] + p50_by_op[1]) / csr_smv,
             "ratio");
    out->Add("la.smm_vs_spgemm", p50_by_op[2] / Median(times), "ratio");
  }

  std::vector<std::pair<std::string, std::string>> Inputs() const override {
    return {{"harbor_scale", std::to_string(kHarborScale)},
            {"hv15r_scale", std::to_string(kHv15rScale)}};
  }

 private:
  uint64_t seed_;
  std::vector<Matrix> matrices_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "bi_serve") return std::make_unique<BiWorkload>(false, seed);
  if (name == "bi_cold") return std::make_unique<BiWorkload>(true, seed);
  if (name == "la_sparse") return std::make_unique<LaWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
