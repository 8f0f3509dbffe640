#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "core/cancel.h"
#include "core/expr_eval.h"
#include "core/expr_kernels.h"
#include "core/expr_vm.h"
#include "core/group_accum.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/date.h"
#include "la/dense.h"
#include "set/intersect.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace levelheaded {
namespace {

// ---------------------------------------------------------------------------
// Built relations: a trie plus annotation bookkeeping.
// ---------------------------------------------------------------------------

struct BuiltRelation {
  std::shared_ptr<Trie> trie;
  const RelationRef* ref = nullptr;
  int num_query_levels = 0;  // trie levels participating in the join
  std::vector<int> annot_of_col;
  std::vector<AnnotationMerge> annot_merge;
  int count_annot = -1;
  std::vector<int> agg_annot;  // per aggregate slot
  bool unique_keys = true;
};

void CollectColumnsOf(const Expr& e, int rel, std::set<int>* cols) {
  if (e.kind == Expr::Kind::kColumnRef && e.bound_rel == rel) {
    cols->insert(e.bound_col);
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr) CollectColumnsOf(*c, rel, cols);
  }
}

std::set<int> ReferencedColumns(const PhysicalPlan& plan, int rel) {
  std::set<int> cols;
  for (const GroupDimExec& d : plan.dims) {
    if (d.vertex < 0) CollectColumnsOf(*d.expr, rel, &cols);
  }
  for (const OutputItem& o : plan.query.outputs) {
    CollectColumnsOf(*o.expr, rel, &cols);
  }
  for (const AggExec& a : plan.aggs) {
    if (a.arg != nullptr && a.single_rel < 0) {
      CollectColumnsOf(*a.arg, rel, &cols);
    }
  }
  const RelationRef& ref = plan.query.relations[rel];
  for (auto it = cols.begin(); it != cols.end();) {
    if (ref.table->schema().column(*it).kind == AttrKind::kKey) {
      it = cols.erase(it);
    } else {
      ++it;
    }
  }
  return cols;
}

AnnotationMerge MergeForAgg(AggFunc f) {
  switch (f) {
    case AggFunc::kMin:
      return AnnotationMerge::kMin;
    case AggFunc::kMax:
      return AnnotationMerge::kMax;
    default:
      return AnnotationMerge::kSum;
  }
}

/// CellAccessor over one base-table row (single-relation contexts).
class TableRowCells : public CellAccessor {
 public:
  explicit TableRowCells(const Table& t) : t_(t) {}
  uint32_t row = 0;

  double Number(int, int col) const override {
    const ColumnData& c = t_.column(col);
    if (!c.ints.empty()) return static_cast<double>(c.ints[row]);
    if (!c.reals.empty()) return c.reals[row];
    return static_cast<double>(c.codes[row]);
  }
  int64_t Code(int, int col) const override {
    const ColumnData& c = t_.column(col);
    if (c.dict == nullptr || c.dict->type() != ValueType::kString) return -1;
    return c.codes[row];
  }
  const Dictionary* Dict(int, int col) const override {
    const ColumnData& c = t_.column(col);
    return c.dict != nullptr && c.dict->type() == ValueType::kString ? c.dict
                                                                     : nullptr;
  }

 private:
  const Table& t_;
};

/// Evaluates a single-relation aggregate argument for every base row —
/// through the batch VM when the expression compiles, else the per-row
/// tree walker.
std::vector<double> ComputeRowExpr(const Expr& arg, const Table& table,
                                   bool use_vm) {
  const size_t n = table.num_rows();
  std::vector<double> out(n);
  ExprProgram prog;
  if (use_vm && ExprProgram::Compile(arg, table, &prog)) {
    for (size_t r = 0; r < n; r += ExprProgram::kBatch) {
      const int m = static_cast<int>(
          std::min<size_t>(ExprProgram::kBatch, n - r));
      prog.EvalRange(static_cast<uint32_t>(r), m, out.data() + r);
    }
    return out;
  }
  TableRowCells cells(table);
  for (size_t r = 0; r < n; ++r) {
    cells.row = static_cast<uint32_t>(r);
    out[r] = EvalNumber(arg, cells);
  }
  return out;
}

/// Builds (or fetches from cache) the trie of one relation over the key
/// columns `level_cols` (query levels first, ablation extras last).
Result<BuiltRelation> BuildRelationTrie(
    const PhysicalPlan& plan, const Catalog& catalog, int rel,
    const std::vector<int>& level_cols, int num_query_levels,
    bool attach_aggregates, int eager_levels, TrieCache* cache,
    QueryResult::Timing* timing, obs::QueryObs* qobs) {
  obs::TraceSpan span(qobs != nullptr ? &qobs->trace : nullptr, "trie_build");
  BuiltRelation out;
  const RelationRef& ref = plan.query.relations[rel];
  out.ref = &ref;
  out.num_query_levels = num_query_levels;

  TrieBuildSpec spec;
  std::string signature = ref.table->schema().name();
  for (int c : level_cols) {
    spec.key_codes.push_back(&ref.table->column(c).codes);
    const ColumnSpec& cs = ref.table->schema().column(c);
    const Dictionary* dom = catalog.GetDomain(cs.domain);
    spec.domain_sizes.push_back(dom == nullptr ? 0 : dom->size());
    signature += "|k" + std::to_string(c);
  }

  // Computed per-row aggregate arguments are shared-owned: a lazy build
  // reads annotation sources at materialization time, long after this
  // function returns, so the trie must keep them alive (TrieAnnotationSpec::
  // owned_reals). Borrowed table columns need no ownership — the catalog
  // outlives every trie built over it.
  std::vector<std::shared_ptr<std::vector<double>>> computed;
  out.agg_annot.assign(plan.aggs.size(), -1);
  if (attach_aggregates) {
    for (size_t i = 0; i < plan.aggs.size(); ++i) {
      const AggExec& agg = plan.aggs[i];
      if (agg.single_rel != rel || agg.arg == nullptr) continue;
      if (agg.func == AggFunc::kCount) continue;
      computed.push_back(std::make_shared<std::vector<double>>(
          ComputeRowExpr(*agg.arg, *ref.table, plan.options.use_expr_vm)));
      TrieAnnotationSpec ann;
      ann.name = agg.annot_name;
      ann.type = ValueType::kDouble;
      ann.merge = MergeForAgg(agg.func);
      ann.reals = computed.back().get();
      ann.owned_reals = computed.back();
      spec.annotations.push_back(ann);
      out.annot_merge.push_back(ann.merge);
      out.agg_annot[i] = static_cast<int>(spec.annotations.size()) - 1;
      signature += "|$" + std::to_string(i) + ":" + agg.arg->ToString();
    }
  }

  out.annot_of_col.assign(ref.table->schema().num_columns(), -1);
  for (int c : ReferencedColumns(plan, rel)) {
    const ColumnSpec& cs = ref.table->schema().column(c);
    const ColumnData& cd = ref.table->column(c);
    TrieAnnotationSpec ann;
    ann.name = cs.name;
    ann.type = cs.type;
    ann.merge = AnnotationMerge::kFirst;
    if (cs.type == ValueType::kString) {
      ann.codes = &cd.codes;
      ann.dict = cd.dict;
    } else if (IsRealType(cs.type)) {
      ann.reals = &cd.reals;
    } else {
      ann.ints = &cd.ints;
    }
    spec.annotations.push_back(ann);
    out.annot_merge.push_back(AnnotationMerge::kFirst);
    out.annot_of_col[c] = static_cast<int>(spec.annotations.size()) - 1;
    signature += "|a" + std::to_string(c);
  }

  spec.add_count_annotation = true;
  spec.verify_first_unique = true;
  spec.eager_levels = eager_levels;
  out.count_annot = static_cast<int>(spec.annotations.size());
  out.annot_merge.push_back(AnnotationMerge::kSum);

  std::vector<uint32_t> selection;
  const bool filtered = !ref.filters.empty();
  if (filtered) {
    WallTimer t;
    std::vector<const Expr*> conjuncts;
    for (const ExprPtr& f : ref.filters) conjuncts.push_back(f.get());
    LH_ASSIGN_OR_RETURN(RowFilter filter,
                        RowFilter::Compile(conjuncts, *ref.table,
                                           plan.options.use_expr_vm));
    selection = filter.SelectedRows();
    spec.selection = &selection;
    timing->filter_ms += t.ElapsedMillis();
  }

  auto build_trie = [&]() -> Result<TrieCache::Built> {
    std::string final_signature = signature;
    Result<Trie> built = Trie::Build(spec);
    std::vector<uint32_t> rowid;
    if (!built.ok() &&
        built.status().code() == StatusCode::kExecutionError) {
      // Some referenced annotation is not functionally determined by the
      // queried key attributes (e.g. a multi-relation aggregate argument
      // over a relation whose key is projected out of the query). Re-key
      // the trie with a surrogate row-id level so every base row keeps its
      // identity; the extra level is aggregated over at execution like any
      // other unjoined level.
      rowid.resize(ref.table->num_rows());
      for (uint32_t r = 0; r < rowid.size(); ++r) rowid[r] = r;
      TrieBuildSpec retry = spec;
      retry.key_codes.resize(num_query_levels);  // drop ablation extras
      retry.domain_sizes.resize(num_query_levels);
      retry.key_codes.push_back(&rowid);
      retry.domain_sizes.push_back(static_cast<uint32_t>(rowid.size()));
      // The surrogate rowid column lives on this lambda's stack; a lazy
      // build would dangle on it, and the retry trie's deep annotations are
      // range-aggregated through first_leaf without per-set probes anyway.
      retry.eager_levels = -1;
      final_signature += "|rowid";
      built = Trie::Build(retry);
    }
    if (!built.ok()) return built.status();
    return TrieCache::Built{
        std::move(final_signature),
        std::make_shared<Trie>(std::move(built.value()))};
  };

  WallTimer t;
  TrieCache::Outcome how = TrieCache::Outcome::kBuilt;
  if (!filtered && cache != nullptr) {
    // Shared-cache path: probes both signature variants, and on a miss the
    // single-flight protocol elects one builder across concurrent queries
    // (others wait and reuse its trie).
    LH_ASSIGN_OR_RETURN(
        out.trie, cache->GetOrBuild({signature, signature + "|rowid"},
                                    build_trie, &how));
    if (out.trie->lazy_levels() > 0 &&
        num_query_levels < out.trie->num_levels()) {
      // A lazily built trie cached by a deeper query is unusable here: this
      // query treats levels >= num_query_levels as unjoined extras whose
      // annotations are range-aggregated through first_leaf without per-set
      // probes, so nothing would trigger their materialization. Build a
      // private eager trie instead of poisoning the shared entry.
      TrieBuildSpec eager = spec;
      eager.eager_levels = -1;
      LH_ASSIGN_OR_RETURN(Trie rebuilt, Trie::Build(eager));
      out.trie = std::make_shared<Trie>(std::move(rebuilt));
      how = TrieCache::Outcome::kBuilt;
    }
  } else {
    LH_ASSIGN_OR_RETURN(TrieCache::Built built, build_trie());
    out.trie = std::move(built.trie);
  }
  if (how != TrieCache::Outcome::kHit) {
    // Leader build time, or a follower's wait on the leader; cache hits
    // stay out of the measured time (§VI-A index-creation exclusion).
    const double ms = t.ElapsedMillis();
    if (filtered) {
      timing->filter_ms += ms;
    } else {
      timing->index_build_ms += ms;
    }
  }
  // Unique iff the *queried* key prefix has no duplicates. Comparing
  // num_tuples() (the deepest level) was wrong for rowid-retry and
  // ablation-extras tries: the surrogate/extra levels make every base row a
  // distinct leaf, so the old test was trivially true even when the queried
  // prefix duplicates. The rank skeleton makes this exact on lazy tries too.
  out.unique_keys =
      out.trie->level(num_query_levels - 1).num_elements() ==
      (filtered ? selection.size() : ref.table->num_rows());
  const char* how_detail = how == TrieCache::Outcome::kHit ? " [cached]"
                           : how == TrieCache::Outcome::kWaited
                               ? " [waited]"
                               : " [built]";
  span.SetDetail(ref.table->schema().name() +
                 (filtered ? " [filtered]" : how_detail));
  span.AddMetric("tuples", static_cast<double>(out.trie->num_tuples()));
  return out;
}

// ---------------------------------------------------------------------------
// Compiled leaf expressions.
//
// The paper's engine generates C++ for the aggregate expressions evaluated
// at every WCOJ leaf; this interpreter's analog is a small postfix program
// over resolved annotation buffers, avoiding the generic tree-walking
// evaluator on the hottest path. Compilation fails (and the generic path
// runs) for constructs that need lookups, subtree folds, or strings beyond
// equality tests.
// ---------------------------------------------------------------------------

class LeafProgram {
 public:
  /// Compiles `e` against the node's participating relations;
  /// `slot_of_rel(rel)` maps a relation to its slot or -1.
  template <typename SlotOf, typename RelAt>
  static bool Compile(const Expr& e, SlotOf&& slot_of_rel, RelAt&& rel_at,
                      LeafProgram* out) {
    return out->CompileNode(e, slot_of_rel, rel_at);
  }

  bool empty() const { return instrs_.empty(); }

  /// True when the program is exactly real-load(slot_a,level_a) *
  /// real-load(slot_b,level_b); exposes the operands so callers can run the
  /// multiply as a direct array kernel.
  bool AsRealProduct(int* slot_a, int* level_a, const double** a,
                     int* slot_b, int* level_b, const double** b) const {
    if (instrs_.size() != 3 || instrs_[0].op != Op::kLoadReal ||
        instrs_[1].op != Op::kLoadReal || instrs_[2].op != Op::kMul) {
      return false;
    }
    *slot_a = instrs_[0].slot;
    *level_a = instrs_[0].level;
    *a = instrs_[0].reals;
    *slot_b = instrs_[1].slot;
    *level_b = instrs_[1].level;
    *b = instrs_[1].reals;
    return true;
  }

  /// Evaluates at the current leaf; `rank_of(slot, level)` supplies the
  /// relation cursors.
  template <typename RankOf>
  double Eval(RankOf&& rank_of) const {
    double st[32];
    int top = -1;
    for (const Instr& in : instrs_) {
      switch (in.op) {
        case Op::kConst:
          st[++top] = in.imm;
          break;
        case Op::kLoad:
          st[++top] = in.buf->AsDouble(rank_of(in.slot, in.level));
          break;
        case Op::kLoadReal:
          st[++top] = in.reals[rank_of(in.slot, in.level)];
          break;
        case Op::kLoadInt:
          st[++top] = static_cast<double>(in.ints[rank_of(in.slot, in.level)]);
          break;
        case Op::kLoadCodeEq:
          st[++top] =
              in.buf->codes[rank_of(in.slot, in.level)] == in.imm_code
                  ? 1.0
                  : 0.0;
          break;
        case Op::kNeg:
          st[top] = -st[top];
          break;
        case Op::kNot:
          st[top] = st[top] != 0 ? 0.0 : 1.0;
          break;
        case Op::kYear:
          st[top] = static_cast<double>(
              YearOfDays(static_cast<int32_t>(st[top])));
          break;
        case Op::kSelect: {
          const double els = st[top--];
          const double thn = st[top--];
          st[top] = st[top] != 0 ? thn : els;
          break;
        }
        default: {
          const double b = st[top--];
          double& a = st[top];
          switch (in.op) {
            case Op::kAdd:
              a += b;
              break;
            case Op::kSub:
              a -= b;
              break;
            case Op::kMul:
              a *= b;
              break;
            case Op::kDiv:
              a /= b;
              break;
            case Op::kCmpLt:
              a = a < b ? 1.0 : 0.0;
              break;
            case Op::kCmpLe:
              a = a <= b ? 1.0 : 0.0;
              break;
            case Op::kCmpGt:
              a = a > b ? 1.0 : 0.0;
              break;
            case Op::kCmpGe:
              a = a >= b ? 1.0 : 0.0;
              break;
            case Op::kCmpEq:
              a = a == b ? 1.0 : 0.0;
              break;
            case Op::kCmpNe:
              a = a != b ? 1.0 : 0.0;
              break;
            case Op::kAnd:
              a = (a != 0 && b != 0) ? 1.0 : 0.0;
              break;
            case Op::kOr:
              a = (a != 0 || b != 0) ? 1.0 : 0.0;
              break;
            default:
              LH_CHECK(false);
          }
          break;
        }
      }
    }
    return top == 0 ? st[0] : 0.0;
  }

 private:
  enum class Op : uint8_t {
    kConst,
    kLoad,
    kLoadReal,
    kLoadInt,
    kLoadCodeEq,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kNeg,
    kNot,
    kYear,
    kSelect,
    kCmpLt,
    kCmpLe,
    kCmpGt,
    kCmpGe,
    kCmpEq,
    kCmpNe,
    kAnd,
    kOr,
  };
  struct Instr {
    Op op;
    double imm = 0;
    uint32_t imm_code = 0;
    int slot = -1;
    int level = 0;
    const AnnotationBuffer* buf = nullptr;
    const double* reals = nullptr;
    const int64_t* ints = nullptr;
  };

  template <typename SlotOf, typename RelAt>
  bool CompileNode(const Expr& e, SlotOf&& slot_of_rel, RelAt&& rel_at) {
    // Depth guard: the evaluation stack is fixed-size.
    if (instrs_.size() > 24) return false;
    switch (e.kind) {
      case Expr::Kind::kIntLiteral:
      case Expr::Kind::kDateLiteral:
      case Expr::Kind::kIntervalLiteral:
        instrs_.push_back({Op::kConst, static_cast<double>(e.int_value)});
        return true;
      case Expr::Kind::kRealLiteral:
        instrs_.push_back({Op::kConst, e.real_value});
        return true;
      case Expr::Kind::kColumnRef: {
        const int slot = slot_of_rel(e.bound_rel);
        if (slot < 0) return false;
        const auto* br = rel_at(slot);
        const int a = br->annot_of_col[e.bound_col];
        if (a < 0) return false;
        const AnnotationBuffer& buf = br->trie->annotation(a);
        if (buf.level >= br->num_query_levels) return false;
        if (!buf.codes.empty()) return false;  // strings: only via CodeEq
        Instr in;
        in.slot = slot;
        in.level = buf.level;
        in.buf = &buf;
        if (!buf.reals.empty()) {
          in.op = Op::kLoadReal;
          in.reals = buf.reals.data();
        } else if (!buf.ints.empty()) {
          in.op = Op::kLoadInt;
          in.ints = buf.ints.data();
        } else {
          in.op = Op::kLoad;
        }
        instrs_.push_back(in);
        return true;
      }
      case Expr::Kind::kUnaryMinus:
        if (!CompileNode(*e.children[0], slot_of_rel, rel_at)) return false;
        instrs_.push_back({Op::kNeg});
        return true;
      case Expr::Kind::kNot:
        if (!CompileNode(*e.children[0], slot_of_rel, rel_at)) return false;
        instrs_.push_back({Op::kNot});
        return true;
      case Expr::Kind::kExtractYear:
        if (!CompileNode(*e.children[0], slot_of_rel, rel_at)) return false;
        instrs_.push_back({Op::kYear});
        return true;
      case Expr::Kind::kCase: {
        const size_t pairs = e.children.size() / 2;
        std::function<bool(size_t)> emit = [&](size_t i) -> bool {
          if (i == pairs) {
            if (e.case_has_else) {
              return CompileNode(*e.children.back(), slot_of_rel, rel_at);
            }
            instrs_.push_back({Op::kConst, 0.0});
            return true;
          }
          if (!CompileNode(*e.children[2 * i], slot_of_rel, rel_at)) {
            return false;
          }
          if (!CompileNode(*e.children[2 * i + 1], slot_of_rel, rel_at)) {
            return false;
          }
          if (!emit(i + 1)) return false;
          instrs_.push_back({Op::kSelect});
          return true;
        };
        return emit(0);
      }
      case Expr::Kind::kBinary: {
        if (e.bin_op == BinOp::kEq || e.bin_op == BinOp::kNe) {
          const Expr* col = e.children[0].get();
          const Expr* lit = e.children[1].get();
          if (col->kind != Expr::Kind::kColumnRef) std::swap(col, lit);
          if (col->kind == Expr::Kind::kColumnRef &&
              lit->kind == Expr::Kind::kStringLiteral) {
            const int slot = slot_of_rel(col->bound_rel);
            if (slot < 0) return false;
            const auto* br = rel_at(slot);
            const int a = br->annot_of_col[col->bound_col];
            if (a < 0) return false;
            const AnnotationBuffer& buf = br->trie->annotation(a);
            if (buf.level >= br->num_query_levels || buf.codes.empty() ||
                buf.dict == nullptr) {
              return false;
            }
            const int64_t code = buf.dict->TryEncodeString(lit->str_value);
            Instr in;
            in.op = Op::kLoadCodeEq;
            in.slot = slot;
            in.level = buf.level;
            in.buf = &buf;
            in.imm_code =
                code < 0 ? 0xFFFFFFFFu : static_cast<uint32_t>(code);
            instrs_.push_back(in);
            if (e.bin_op == BinOp::kNe) instrs_.push_back({Op::kNot});
            return true;
          }
        }
        if (!CompileNode(*e.children[0], slot_of_rel, rel_at)) return false;
        if (!CompileNode(*e.children[1], slot_of_rel, rel_at)) return false;
        Instr in;
        switch (e.bin_op) {
          case BinOp::kAdd:
            in.op = Op::kAdd;
            break;
          case BinOp::kSub:
            in.op = Op::kSub;
            break;
          case BinOp::kMul:
            in.op = Op::kMul;
            break;
          case BinOp::kDiv:
            in.op = Op::kDiv;
            break;
          case BinOp::kLt:
            in.op = Op::kCmpLt;
            break;
          case BinOp::kLe:
            in.op = Op::kCmpLe;
            break;
          case BinOp::kGt:
            in.op = Op::kCmpGt;
            break;
          case BinOp::kGe:
            in.op = Op::kCmpGe;
            break;
          case BinOp::kEq:
            in.op = Op::kCmpEq;
            break;
          case BinOp::kNe:
            in.op = Op::kCmpNe;
            break;
          case BinOp::kAnd:
            in.op = Op::kAnd;
            break;
          case BinOp::kOr:
            in.op = Op::kOr;
            break;
        }
        instrs_.push_back(in);
        return true;
      }
      default:
        return false;
    }
  }

  std::vector<Instr> instrs_;
};

// ---------------------------------------------------------------------------
// WCOJ node execution (Algorithm 1 over tries).
// ---------------------------------------------------------------------------

struct Participant {
  int slot;       // relation slot (non-child) or child index (child)
  int level;      // trie level bound at this attribute position
  bool is_child;  // child-node result set
};

class NodeExec {
 public:
  NodeExec(const PhysicalPlan& plan, const NodePlan& node,
           std::vector<const BuiltRelation*> rels,
           std::vector<SetView> child_sets,
           std::vector<const BuiltRelation*> lookups,
           std::vector<int> lookup_rel_ids, std::vector<int> lookup_positions,
           const std::vector<DimInfo>* dims,
           const QueryGuard* guard = nullptr)
      : plan_(plan),
        node_(node),
        rels_(std::move(rels)),
        child_sets_(std::move(child_sets)),
        lookups_(std::move(lookups)),
        lookup_rel_ids_(std::move(lookup_rel_ids)),
        lookup_positions_(std::move(lookup_positions)),
        dims_(dims),
        guard_(guard),
        guard_active_(guard != nullptr && (guard->CancelEnabled() ||
                                           guard->max_result_rows > 0)) {
    const int k = static_cast<int>(node_.attr_order.size());
    participants_.resize(k);
    int child_idx = 0;
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      const RelationPlan& rp = node_.relations[s];
      if (rp.rel >= 0) {
        for (size_t l = 0; l < rp.levels_vertex.size(); ++l) {
          participants_[PosOf(rp.levels_vertex[l])].push_back(
              {static_cast<int>(s), static_cast<int>(l), false});
        }
      } else {
        participants_[PosOf(rp.levels_vertex[0])].push_back(
            {child_idx, 0, true});
        ++child_idx;
      }
    }
    // Relations whose referenced annotations live below the queried trie
    // levels (surrogate row level or ablation extras): the leaf must
    // enumerate their base rows — the join's bag semantics (subrow mode).
    iterated_.assign(node_.relations.size(), false);
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      if (node_.relations[s].rel < 0) continue;
      const BuiltRelation& br = *rels_[s];
      if (br.num_query_levels == br.trie->num_levels()) continue;
      for (size_t a = 0; a < br.trie->num_annotations(); ++a) {
        if (static_cast<int>(a) == br.count_annot) continue;
        if (br.annot_merge[a] != AnnotationMerge::kFirst) continue;
        if (br.trie->annotation(a).level >= br.num_query_levels) {
          iterated_[s] = true;
          subrow_mode_ = true;
          break;
        }
      }
    }
        // Compiled leaf expressions (codegen stand-in) for multi-relation
    // aggregate arguments that need no per-row folding.
    auto slot_of = [&](int rel) {
      for (size_t s = 0; s < node_.relations.size(); ++s) {
        if (node_.relations[s].rel == rel) return static_cast<int>(s);
      }
      return -1;
    };
    auto rel_at = [&](int slot) { return rels_[slot]; };
    agg_progs_.resize(plan_.aggs.size());
    agg_prog_ok_.assign(plan_.aggs.size(), 0);
    for (size_t i = 0; i < plan_.aggs.size(); ++i) {
      const AggExec& agg = plan_.aggs[i];
      if (agg.arg == nullptr || agg.single_rel >= 0) continue;
      // Compilation rejects loads below the queried levels, so programs
      // are only used where a single per-leaf evaluation is correct.
      if (!subrow_mode_ &&
          LeafProgram::Compile(*agg.arg, slot_of, rel_at, &agg_progs_[i])) {
        agg_prog_ok_[i] = 1;
      } else {
        agg_progs_[i] = LeafProgram();
      }
    }
    // Multiplicity-free fast path: every participating relation's queried
    // key prefix is duplicate-free. unique_keys now measures exactly that
    // (distinct queried prefixes == base rows), so unjoined deeper levels —
    // rowid retries, ablation extras — don't disqualify a relation: a
    // unique prefix means each leaf subtree holds exactly one base row and
    // every per-leaf count is 1.
    all_unique_ = true;
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      if (node_.relations[s].rel < 0) continue;
      if (!rels_[s]->unique_keys) all_unique_ = false;
    }
    // Depth positions served by exactly one (non-child) relation iterate
    // the relation's own set: the iteration rank is the trie rank, so the
    // per-value Rank() lookup is unnecessary.
    const int k2 = static_cast<int>(node_.attr_order.size());
    direct_.assign(k2, false);
    fused_pair_.assign(k2, false);
    for (int d = 0; d < k2; ++d) {
      direct_[d] = participants_[d].size() == 1 && !participants_[d][0].is_child;
      fused_pair_[d] = participants_[d].size() == 2 &&
                       !participants_[d][0].is_child &&
                       !participants_[d][1].is_child;
    }
    fast_single_sum_ = plan_.aggs.size() == 1 &&
                       plan_.aggs[0].func == AggFunc::kSum &&
                       !agg_prog_ok_.empty() && agg_prog_ok_[0] &&
                       all_unique_;
  }

  void set_last_domain_size(uint32_t n) { last_domain_size_ = n; }

  /// Existential run (Yannakakis child nodes): the distinct first-attribute
  /// values that extend to at least one full match.
  std::vector<uint32_t> RunExistential() {
    Worker w;
    InitWorker(&w, 0);
    std::vector<uint32_t> out;
    const SetView* root = ComputeSet(&w, 0);
    if (root->empty()) return out;
    uint64_t iter = 0;
    root->ForEach([&](uint32_t v, uint32_t) {
      // ForEach has no break; after an abort the remaining values fall
      // through the one-flag-load fast path.
      if (guard_active_ && PollAbort(iter++, /*rows_sofar=*/0)) return;
      if (!Descend(&w, 0, v)) return;
      if (node_.attr_order.size() == 1 || Satisfiable(&w, 1)) {
        out.push_back(v);
      }
    });
    w.leaf_count += out.size();
    AbsorbWorker(w);
    return out;
  }

  // ---- Phase-split aggregate run (the full run = PrepareChunks, then
  // RunChunk for every chunk in any order / from any thread, then
  // FoldChunks). ExecuteJoin drives the chunks through the global pool.
  // Grain and skew threshold are functions of cardinalities only — chunk
  // and sub-task boundaries are merge boundaries for floating-point
  // partials, so they must not move with the thread count (results stay
  // bit-identical under any LH_THREADS and any number of concurrent
  // queries). Scheduling only changes which worker executes a given chunk
  // or task.

  /// Computes the root set and the chunk layout on the calling thread.
  /// After this, num_chunks() chunks (possibly zero) are runnable.
  void PrepareChunks() {
    key_width_ = dims_->size();
    append_mode_ = !dims_->empty();
    max_dim_pos_ = -1;
    for (const DimInfo& d : *dims_) {
      if (d.kind != DimKind::kKeyVertex) append_mode_ = false;
      max_dim_pos_ = std::max(max_dim_pos_, d.vertex_pos);
    }
    seed_ = std::make_unique<Worker>();
    InitWorker(seed_.get(), key_width_);
    const SetView* root = ComputeSet(seed_.get(), 0);
    if (root->empty()) return;  // num_chunks_ stays 0
    root_values_ = root->ToVector();
    const int64_t n = static_cast<int64_t>(root_values_.size());
    grain_ = AdaptiveGrain(n);
    num_chunks_ = (n + grain_ - 1) / grain_;
    const int k = static_cast<int>(node_.attr_order.size());
    skew_threshold_ = SplittableShape(k) ? SkewThreshold() : 0;
    chunk_out_.resize(num_chunks_);
  }

  int64_t num_chunks() const { return num_chunks_; }

  /// Executes chunk `chunk` of the root iteration. Thread-safe for distinct
  /// chunks: every result byte goes into the chunk's own accumulator; the
  /// scratch Worker comes from a freelist (reuse is determinism-neutral).
  /// Heavy root values fan their level-1 iteration out as tasks on `pool`.
  void RunChunk(int64_t chunk, ThreadPool& pool) {
    std::unique_ptr<Worker> holder = AcquireWorker();
    Worker& w = *holder;
    chunk_out_[chunk] = std::make_unique<GroupAccum>(key_width_, &plan_.aggs);
    w.groups = chunk_out_[chunk].get();
    const int64_t lo = chunk * grain_;
    const int64_t hi = std::min<int64_t>(
        static_cast<int64_t>(root_values_.size()), lo + grain_);
    const int k = static_cast<int>(node_.attr_order.size());
    for (int64_t i = lo; i < hi; ++i) {
      if (guard_active_ &&
          PollAbort(static_cast<uint64_t>(i - lo), w.groups->num_groups())) {
        break;
      }
      const uint32_t v = root_values_[i];
      if (!Descend(&w, 0, v)) continue;
      w.vals[0] = v;
      if (k == 1) {
        Leaf(&w);
        continue;
      }
      if (skew_threshold_ > 0 &&
          TrySplitHeavyRoot(&w, key_width_, k, pool)) {
        continue;
      }
      Recurse(&w, 1);
    }
    ReleaseWorker(std::move(holder));
  }

  /// Folds the per-chunk partials in chunk order (the FP merge contract)
  /// and absorbs worker tallies. Call once, after every RunChunk returned.
  GroupAccum FoldChunks() {
    GroupAccum result(key_width_, &plan_.aggs);
    for (int64_t c = 0; c < num_chunks_; ++c) {
      if (chunk_out_[c] == nullptr) continue;
      if (append_mode_) {
        result.ConcatFrom(*chunk_out_[c]);
      } else {
        result.MergeFrom(*chunk_out_[c]);
      }
    }
    chunk_out_.clear();
    if (seed_ != nullptr) AbsorbWorker(*seed_);
    seed_.reset();
    MutexLock lock(&scratch_mu_);
    for (const auto& w : free_workers_) AbsorbWorker(*w);
    free_workers_.clear();
    return result;
  }

  /// Leaves reached (tuples emitted) across all runs on this node.
  uint64_t leaves() const { return total_leaves_; }
  /// Trie node descents across all runs on this node.
  uint64_t nodes_visited() const { return total_nodes_; }
  /// OK, or why the last run unwound early (kCancelled / kDeadlineExceeded
  /// / kResourceExhausted). Callers must consult this before trusting a
  /// run's output.
  [[nodiscard]] Status abort_status() {
    MutexLock lock(&abort_mu_);
    return abort_status_;
  }

 private:
  struct Worker {
    std::vector<std::vector<uint32_t>> ranks;  // [slot][level]
    std::vector<ScratchSet> scratch_a, scratch_b;
    std::vector<uint32_t> vals;
    std::vector<int64_t> single_base;  // per depth: sole participant's base
    std::vector<uint32_t> subrow;  // per slot: current row-level index
    GroupAccum* groups = nullptr;
    std::vector<double> agg_main, agg_aux;
    std::vector<uint64_t> group_key;
    std::vector<double> rel_count;
    std::vector<SetView> gather;  // per-call set gathering
    std::vector<double> relax_acc;
    std::vector<uint8_t> relax_occ;
    std::vector<uint32_t> relax_touched;
    std::vector<uint32_t> fused_vals, fused_ra, fused_rb;
    // Materialized level-1 values/ranks of a heavy root value while its
    // iteration is split across tasks (read-only once the tasks start).
    std::vector<uint32_t> split_vals, split_ranks;
    // Plain worker-local tallies (absorbed in bulk after the parallel run,
    // so the hot loops never touch atomics).
    uint64_t leaf_count = 0;
    uint64_t nodes_visited = 0;
  };

  void AbsorbWorker(const Worker& w) {
    total_leaves_ += w.leaf_count;
    total_nodes_ += w.nodes_visited;
  }

  /// Pops a scratch worker for a chunk run, or initializes a fresh one.
  std::unique_ptr<Worker> AcquireWorker() {
    {
      MutexLock lock(&scratch_mu_);
      if (!free_workers_.empty()) {
        std::unique_ptr<Worker> w = std::move(free_workers_.back());
        free_workers_.pop_back();
        return w;
      }
    }
    auto w = std::make_unique<Worker>();
    InitWorker(w.get(), key_width_);
    return w;
  }

  void ReleaseWorker(std::unique_ptr<Worker> w) {
    MutexLock lock(&scratch_mu_);
    free_workers_.push_back(std::move(w));
  }

  // ---- Cooperative abort (deadline / cancel / row bound, core/cancel.h).
  //
  // The root parallel loop and skew-split sub-tasks poll PollAbort every
  // kAbortStride root values; the first failing check records the status
  // and raises the flag, every other worker sees the flag at its next
  // poll (one relaxed load) and stops. Iterations the workers skip after
  // an abort don't matter — the run's result is discarded.

  static constexpr uint64_t kAbortStride = 32;

  void RecordAbort(Status s) {
    MutexLock lock(&abort_mu_);
    if (abort_status_.ok()) abort_status_ = std::move(s);
    // Release: pairs with the coordinator's acquire read so the recorded
    // status is visible once the flag is seen set there.
    aborted_.store(true, std::memory_order_release);
  }

  // Relaxed: worker-side poll. A worker that reads a stale false merely
  // runs extra iterations whose output is discarded after the abort.
  bool Aborted() const { return aborted_.load(std::memory_order_relaxed); }

  /// Full check: the abort flag, then deadline/cancel, then the row bound
  /// against this worker's accumulated group count (a per-worker OOM
  /// backstop — the materialized total is checked again in ExecutePlan).
  /// True when the caller must stop.
  bool CheckAbort(size_t rows_sofar) {
    if (Aborted()) return true;
    Status s = guard_->Check();
    if (s.ok()) s = guard_->CheckRows(rows_sofar);
    if (s.ok()) return false;
    RecordAbort(std::move(s));
    return true;
  }

  /// Strided wrapper for hot loops: cheap flag test always, full check
  /// every kAbortStride-th call.
  bool PollAbort(uint64_t iter, size_t rows_sofar) {
    if (Aborted()) return true;
    return (iter % kAbortStride) == 0 && CheckAbort(rows_sofar);
  }

  /// Read of a worker's rank cursor for relation slot `slot` at trie level
  /// `level`, bounds-checked in debug/hardened builds. A cursor outside its
  /// vector means a descent wrote past the planned level count — exactly the
  /// corruption that silently skews aggregate results in release.
  static uint32_t RankCursor(const Worker& w, size_t slot, size_t level) {
    LH_DCHECK_BOUNDS(slot, w.ranks.size());
    LH_DCHECK_BOUNDS(level, w.ranks[slot].size());
    return w.ranks[slot][level];
  }

  int PosOf(int vertex) const {
    for (size_t i = 0; i < node_.attr_order.size(); ++i) {
      if (node_.attr_order[i] == vertex) return static_cast<int>(i);
    }
    LH_CHECK(false) << "vertex not in attribute order";
    return -1;
  }

  void InitWorker(Worker* w, size_t key_width) const {
    w->ranks.resize(rels_.size());
    for (size_t s = 0; s < rels_.size(); ++s) {
      if (rels_[s] != nullptr) {
        w->ranks[s].assign(rels_[s]->trie->num_levels(), 0);
      }
    }
    const size_t k = node_.attr_order.size();
    w->scratch_a.resize(k);
    w->scratch_b.resize(k);
    w->vals.assign(k, 0);
    w->single_base.assign(k, -1);
    w->subrow.assign(rels_.size(), 0);
    w->agg_main.assign(std::max<size_t>(1, plan_.aggs.size()), 0);
    w->agg_aux.assign(std::max<size_t>(1, plan_.aggs.size()), 0);
    w->group_key.assign(key_width, 0);
    w->rel_count.assign(node_.relations.size(), 1.0);
  }

  const SetView* ComputeSet(Worker* w, int depth) const {
    const auto& parts = participants_[depth];
    LH_CHECK(!parts.empty()) << "attribute with no participating relation";
    w->gather.clear();
    for (const Participant& p : parts) {
      if (p.is_child) {
        w->gather.push_back(child_sets_[p.slot]);
      } else {
        const Trie& trie = *rels_[p.slot]->trie;
        const uint32_t set_idx =
            p.level == 0 ? 0 : RankCursor(*w, p.slot, p.level - 1);
        w->gather.push_back(trie.level(p.level).set(set_idx));
      }
    }
    if (w->gather.size() == 1) {
      if (direct_[depth]) {
        const Participant& p = parts[0];
        const Trie& trie = *rels_[p.slot]->trie;
        const uint32_t set_idx =
            p.level == 0 ? 0 : RankCursor(*w, p.slot, p.level - 1);
        w->single_base[depth] = trie.level(p.level).base_rank(set_idx);
      }
      w->scratch_a[depth].Alias(w->gather[0]);
      return &w->scratch_a[depth].view();
    }
    std::sort(w->gather.begin(), w->gather.end(),
              [](const SetView& a, const SetView& b) {
                return a.cardinality < b.cardinality;
              });
    Intersect(w->gather[0], w->gather[1], &w->scratch_a[depth]);
    bool in_a = true;
    for (size_t i = 2; i < w->gather.size(); ++i) {
      if (in_a) {
        Intersect(w->scratch_a[depth].view(), w->gather[i],
                  &w->scratch_b[depth]);
      } else {
        Intersect(w->scratch_b[depth].view(), w->gather[i],
                  &w->scratch_a[depth]);
      }
      in_a = !in_a;
    }
    return in_a ? &w->scratch_a[depth].view() : &w->scratch_b[depth].view();
  }

  bool Descend(Worker* w, int depth, uint32_t v) const {
    for (const Participant& p : participants_[depth]) {
      if (p.is_child) continue;
      ++w->nodes_visited;
      const Trie& trie = *rels_[p.slot]->trie;
      const uint32_t set_idx =
          p.level == 0 ? 0 : RankCursor(*w, p.slot, p.level - 1);
      const SetView set = trie.level(p.level).set(set_idx);
      const int64_t r = set.Rank(v);
      if (r < 0) return false;
      w->ranks[p.slot][p.level] =
          trie.level(p.level).base_rank(set_idx) + static_cast<uint32_t>(r);
    }
    return true;
  }

  bool Satisfiable(Worker* w, int depth) const {
    const SetView* s = ComputeSet(w, depth);
    if (s->empty()) return false;
    if (depth + 1 == static_cast<int>(node_.attr_order.size())) return true;
    bool found = false;
    s->ForEach([&](uint32_t v, uint32_t) {
      if (found) return;
      if (Descend(w, depth, v) && Satisfiable(w, depth + 1)) found = true;
    });
    return found;
  }

  // ---- Skew-resistant execution (the paper's parfor, made nest-capable).
  //
  // The root parallel loop alone serializes on a heavy-hitter root value (a
  // hub vertex, a dominant orderkey range): one chunk then carries most of
  // the query. When a root value's level-1 set is large enough, its level-1
  // iteration is split into fixed sub-ranges that run as ThreadPool tasks,
  // each into its own GroupAccum, merged back in sub-range order.

  /// Minimum level-1 cardinality ever worth splitting (sub-task setup costs
  /// a worker init plus an accumulator).
  static constexpr int64_t kMinSkewSplitWork = 2048;
  /// A root value owning more than 1/64 of the node's estimated level-1
  /// work is "heavy". Fixed fraction, not total/num_threads: the decision
  /// must be thread-count independent (see RunAggregate).
  static constexpr int64_t kSkewSplitFraction = 64;

  /// Node shapes whose depth-1 iteration can be partitioned. RelaxedTail
  /// (k==3 union-relaxed) and the fused ranked-intersection leaf (k==2)
  /// consume the whole depth-1 set in one specialized pass.
  bool SplittableShape(int k) const {
    if (k < 2) return false;
    if (node_.union_relaxed && k == 3) return false;
    if (k == 2 && fused_pair_[1]) return false;
    return true;
  }

  /// Heavy-hitter threshold from cardinalities only: the tightest level-1
  /// participant bounds the node's total level-1 work.
  int64_t SkewThreshold() const {
    int64_t total = std::numeric_limits<int64_t>::max();
    for (const Participant& p : participants_[1]) {
      const int64_t t =
          p.is_child
              ? static_cast<int64_t>(child_sets_[p.slot].cardinality)
              : static_cast<int64_t>(
                    rels_[p.slot]->trie->level(p.level).num_elements());
      total = std::min(total, t);
    }
    return std::max<int64_t>(kMinSkewSplitWork, total / kSkewSplitFraction);
  }

  /// Detects a heavy root value and, if heavy, fans its level-1 iteration
  /// out as tasks. Returns false (nothing done) when the value is light.
  /// Probing is staged so light values — the overwhelming majority — pay
  /// one cardinality comparison and at most one count-only intersection.
  bool TrySplitHeavyRoot(Worker* w, size_t key_width, int k,
                         ThreadPool& pool) {
    const auto& parts = participants_[1];
    // Stage 1: smallest participant-set cardinality bounds |level-1 set|.
    w->gather.clear();
    for (const Participant& p : parts) {
      if (p.is_child) {
        w->gather.push_back(child_sets_[p.slot]);
      } else {
        const Trie& trie = *rels_[p.slot]->trie;
        const uint32_t set_idx =
            p.level == 0 ? 0 : RankCursor(*w, p.slot, p.level - 1);
        w->gather.push_back(trie.level(p.level).set(set_idx));
      }
    }
    uint32_t min_card = std::numeric_limits<uint32_t>::max();
    for (const SetView& g : w->gather) {
      min_card = std::min(min_card, g.cardinality);
    }
    if (static_cast<int64_t>(min_card) < skew_threshold_) return false;
    // Stage 2: count-only probe of the two smallest sets (no allocation).
    if (w->gather.size() >= 2) {
      std::partial_sort(w->gather.begin(), w->gather.begin() + 2,
                        w->gather.end(),
                        [](const SetView& a, const SetView& b) {
                          return a.cardinality < b.cardinality;
                        });
      const uint32_t probe = IntersectCount(w->gather[0], w->gather[1]);
      if (static_cast<int64_t>(probe) < skew_threshold_) return false;
    }
    // Confirmed heavy: materialize the level-1 set and partition it.
    const SetView* s = ComputeSet(w, 1);
    if (static_cast<int64_t>(s->cardinality) < skew_threshold_) return false;
    if (obs::ExecStats* stats = obs::ActiveStats()) stats->CountSkewSplit();
    w->split_vals.clear();
    w->split_ranks.clear();
    s->ForEach([&](uint32_t v, uint32_t r) {
      w->split_vals.push_back(v);
      w->split_ranks.push_back(r);
    });
    const int64_t m = static_cast<int64_t>(w->split_vals.size());
    const int64_t sub_grain = AdaptiveGrain(m, kMinSkewSplitWork / 4);
    const int64_t num_sub = (m + sub_grain - 1) / sub_grain;
    const bool direct = direct_[1];
    const int64_t base = direct ? w->single_base[1] : -1;

    std::vector<std::unique_ptr<Worker>> subs(num_sub);
    std::vector<std::unique_ptr<GroupAccum>> sub_out(num_sub);
    ThreadPool::TaskGroup group(&pool);
    for (int64_t t = 0; t < num_sub; ++t) {
      subs[t] = std::make_unique<Worker>();
      Worker* sub = subs[t].get();
      InitWorker(sub, key_width);
      sub->ranks = w->ranks;  // level-0 cursors from the parent's descent
      sub->vals[0] = w->vals[0];
      sub_out[t] = std::make_unique<GroupAccum>(key_width, &plan_.aggs);
      sub->groups = sub_out[t].get();
      const int64_t lo = t * sub_grain;
      const int64_t hi = std::min(m, lo + sub_grain);
      pool.Submit(&group, [this, w, sub, lo, hi, base, direct, k] {
        for (int64_t i = lo; i < hi; ++i) {
          if (guard_active_ &&
              PollAbort(static_cast<uint64_t>(i - lo),
                        sub->groups->num_groups())) {
            break;
          }
          const uint32_t v = w->split_vals[i];
          if (direct) {
            const Participant& p = participants_[1][0];
            ++sub->nodes_visited;
            sub->ranks[p.slot][p.level] =
                static_cast<uint32_t>(base) + w->split_ranks[i];
          } else if (!Descend(sub, 1, v)) {
            continue;
          }
          sub->vals[1] = v;
          if (k == 2) {
            Leaf(sub);
          } else {
            Recurse(sub, 2);
          }
        }
      });
    }
    // Helps drain the queue while waiting, so progress is guaranteed even
    // when every pool thread is busy inside this same parallel region.
    group.Wait();
    for (const auto& so : sub_out) {
      if (append_mode_) {
        w->groups->ConcatFrom(*so);
      } else {
        w->groups->MergeFrom(*so);
      }
    }
    for (const auto& sub : subs) {
      w->leaf_count += sub->leaf_count;
      w->nodes_visited += sub->nodes_visited;
    }
    return true;
  }

  void Recurse(Worker* w, int depth) {
    const int k = static_cast<int>(node_.attr_order.size());
    if (node_.union_relaxed && depth == k - 2) {
      RelaxedTail(w, depth);
      return;
    }
    const bool leaf = depth + 1 == k;
    if (leaf && fused_pair_[depth]) {
      FusedLeafLoop(w, depth);
      return;
    }
    const SetView* s = ComputeSet(w, depth);
    if (s->empty()) return;
    if (direct_[depth]) {
      const Participant& p = participants_[depth][0];
      const int64_t base = w->single_base[depth];
      w->nodes_visited += s->cardinality;
      s->ForEach([&](uint32_t v, uint32_t r) {
        w->ranks[p.slot][p.level] = static_cast<uint32_t>(base) + r;
        w->vals[depth] = v;
        if (leaf) {
          Leaf(w);
        } else {
          Recurse(w, depth + 1);
        }
      });
      return;
    }
    s->ForEach([&](uint32_t v, uint32_t) {
      if (!Descend(w, depth, v)) return;
      w->vals[depth] = v;
      if (leaf) {
        Leaf(w);
      } else {
        Recurse(w, depth + 1);
      }
    });
  }

  /// Deepest-attribute fast path for exactly two participating relations:
  /// one ranked intersection replaces the per-value Rank() descents — the
  /// loop shape generated code produces (Figure 4).
  void FusedLeafLoop(Worker* w, int depth) {
    const Participant& p0 = participants_[depth][0];
    const Participant& p1 = participants_[depth][1];
    const Trie& t0 = *rels_[p0.slot]->trie;
    const Trie& t1 = *rels_[p1.slot]->trie;
    const uint32_t si0 =
        p0.level == 0 ? 0 : RankCursor(*w, p0.slot, p0.level - 1);
    const uint32_t si1 =
        p1.level == 0 ? 0 : RankCursor(*w, p1.slot, p1.level - 1);
    const SetView s0 = t0.level(p0.level).set(si0);
    const SetView s1 = t1.level(p1.level).set(si1);
    if (s0.empty() || s1.empty()) return;
    const uint32_t cap = std::min(s0.cardinality, s1.cardinality);
    if (w->fused_vals.size() < cap) {
      w->fused_vals.resize(cap);
      w->fused_ra.resize(cap);
      w->fused_rb.resize(cap);
    }
    const uint32_t n = IntersectRanked(s0, s1, w->fused_vals.data(),
                                       w->fused_ra.data(),
                                       w->fused_rb.data());
    if (n == 0) return;
    w->nodes_visited += 2ull * n;
    const uint32_t base0 = t0.level(p0.level).base_rank(si0);
    const uint32_t base1 = t1.level(p1.level).base_rank(si1);
    if (fast_single_sum_ && append_mode_) {
      w->leaf_count += n;
      // Single SUM over unique-key relations with compiled argument: the
      // tightest interpreted loops we can produce.
      if (max_dim_pos_ < depth) {
        // Every group dimension is bound above this depth: resolve the
        // group once and accumulate the whole intersection into it.
        EncodeGroupKey(w);
        double* acc = w->groups->AppendOrLast(w->group_key.data());
        int sa, la, sb, lb;
        const double *pa, *pb;
        if (agg_progs_[0].AsRealProduct(&sa, &la, &pa, &sb, &lb, &pb) &&
            sa == p0.slot && la == p0.level && sb == p1.slot &&
            lb == p1.level) {
          double sum = 0;
          const double* va = pa + base0;
          const double* vb = pb + base1;
          for (uint32_t i = 0; i < n; ++i) {
            sum += va[w->fused_ra[i]] * vb[w->fused_rb[i]];
          }
          acc[0] += sum;
          return;
        }
        if (agg_progs_[0].AsRealProduct(&sa, &la, &pa, &sb, &lb, &pb) &&
            sa == p1.slot && la == p1.level && sb == p0.slot &&
            lb == p0.level) {
          double sum = 0;
          const double* va = pa + base1;
          const double* vb = pb + base0;
          for (uint32_t i = 0; i < n; ++i) {
            sum += va[w->fused_rb[i]] * vb[w->fused_ra[i]];
          }
          acc[0] += sum;
          return;
        }
        double sum = 0;
        for (uint32_t i = 0; i < n; ++i) {
          w->ranks[p0.slot][p0.level] = base0 + w->fused_ra[i];
          w->ranks[p1.slot][p1.level] = base1 + w->fused_rb[i];
          sum += agg_progs_[0].Eval([&](int slot, int level) {
            return RankCursor(*w, slot, level);
          });
        }
        acc[0] += sum;
        return;
      }
      for (uint32_t i = 0; i < n; ++i) {
        w->ranks[p0.slot][p0.level] = base0 + w->fused_ra[i];
        w->ranks[p1.slot][p1.level] = base1 + w->fused_rb[i];
        w->vals[depth] = w->fused_vals[i];
        EncodeGroupKey(w);
        double* acc = w->groups->AppendOrLast(w->group_key.data());
        acc[0] += agg_progs_[0].Eval([&](int slot, int level) {
          return RankCursor(*w, slot, level);
        });
      }
      return;
    }
    for (uint32_t i = 0; i < n; ++i) {
      w->ranks[p0.slot][p0.level] = base0 + w->fused_ra[i];
      w->ranks[p1.slot][p1.level] = base1 + w->fused_rb[i];
      w->vals[depth] = w->fused_vals[i];
      Leaf(w);
    }
  }

  /// Specialized §V-A2 inner loop for the single-SUM real-product case
  /// (sparse matrix multiplication): one side of the product is fixed
  /// across the last attribute's set, so the accumulation is exactly
  /// Gustavson's scatter: acc[j] += a_ik * b_kj. Returns false when the
  /// shape does not apply (the generic tail runs instead).
  bool RelaxedTailFast(Worker* w, int depth) {
    if (!fast_single_sum_) return false;
    int sa, la, sb, lb;
    const double *pa, *pb;
    if (!agg_progs_[0].AsRealProduct(&sa, &la, &pa, &sb, &lb, &pb)) {
      return false;
    }
    if (participants_[depth + 1].size() != 1 ||
        participants_[depth + 1][0].is_child) {
      return false;
    }
    const Participant& pm = participants_[depth + 1][0];
    const double* varbuf;
    const double* fixbuf;
    int fs, fl;
    if (sa == pm.slot && la == pm.level) {
      varbuf = pa;
      fixbuf = pb;
      fs = sb;
      fl = lb;
    } else if (sb == pm.slot && lb == pm.level) {
      varbuf = pb;
      fixbuf = pa;
      fs = sa;
      fl = la;
    } else {
      return false;
    }

    const size_t stride = 2;
    if (w->relax_acc.empty()) {
      w->relax_acc.assign(static_cast<size_t>(last_domain_size_) * stride, 0);
      w->relax_occ.assign(last_domain_size_, 0);
    }
    const SetView* s = ComputeSet(w, depth);
    if (s->empty()) return true;
    const Trie& tm = *rels_[pm.slot]->trie;
    s->ForEach([&](uint32_t v, uint32_t) {
      if (!Descend(w, depth, v)) return;
      const double fixed = fixbuf[RankCursor(*w, fs, fl)];
      const uint32_t set_idx =
          pm.level == 0 ? 0 : RankCursor(*w, pm.slot, pm.level - 1);
      const SetView sm = tm.level(pm.level).set(set_idx);
      const uint32_t base = tm.level(pm.level).base_rank(set_idx);
      const double* values = varbuf + base;
      sm.ForEach([&](uint32_t m, uint32_t r) {
        double* acc = w->relax_acc.data() + static_cast<size_t>(m) * stride;
        if (!w->relax_occ[m]) {
          w->relax_occ[m] = 1;
          w->relax_touched.push_back(m);
          acc[0] = 0;
        }
        acc[0] += fixed * values[r];
      });
    });
    FlushRelaxed(w, depth, stride);
    return true;
  }

  /// Emits one leaf per touched last-attribute value, ascending.
  void FlushRelaxed(Worker* w, int depth, size_t stride) {
    const int k = static_cast<int>(node_.attr_order.size());
    (void)depth;
    w->leaf_count += w->relax_touched.size();
    std::sort(w->relax_touched.begin(), w->relax_touched.end());
    for (uint32_t m : w->relax_touched) {
      w->vals[k - 1] = m;
      EncodeGroupKey(w);
      const double* acc =
          w->relax_acc.data() + static_cast<size_t>(m) * stride;
      for (size_t i = 0; i < plan_.aggs.size(); ++i) {
        w->agg_main[i] = acc[2 * i];
        w->agg_aux[i] = acc[2 * i + 1];
      }
      double* dst = append_mode_
                        ? w->groups->AppendOrLast(w->group_key.data())
                        : w->groups->FindOrCreate(w->group_key.data());
      w->groups->Apply(dst, w->agg_main.data(), w->agg_aux.data());
      w->relax_occ[m] = 0;
    }
    w->relax_touched.clear();
  }

  /// §V-A2 execution: the second-to-last attribute is projected away, the
  /// last is materialized. Accumulate per last-attribute code in a dense
  /// scratch (Figure 4's `sj` buffer), then flush in sorted order.
  void RelaxedTail(Worker* w, int depth) {
    if (RelaxedTailFast(w, depth)) return;
    const size_t naggs = std::max<size_t>(1, plan_.aggs.size());
    const size_t stride = 2 * naggs;
    LH_CHECK_GT(last_domain_size_, 0u);
    if (w->relax_acc.empty()) {
      w->relax_acc.assign(static_cast<size_t>(last_domain_size_) * stride, 0);
      w->relax_occ.assign(last_domain_size_, 0);
    }
    const SetView* s = ComputeSet(w, depth);
    if (s->empty()) return;
    s->ForEach([&](uint32_t v, uint32_t) {
      if (!Descend(w, depth, v)) return;
      w->vals[depth] = v;
      const SetView* sm = ComputeSet(w, depth + 1);
      sm->ForEach([&](uint32_t m, uint32_t) {
        if (!Descend(w, depth + 1, m)) return;
        w->vals[depth + 1] = m;
        ComputeDeltas(w);
        double* acc = w->relax_acc.data() + static_cast<size_t>(m) * stride;
        if (!w->relax_occ[m]) {
          w->relax_occ[m] = 1;
          w->relax_touched.push_back(m);
          for (size_t i = 0; i < plan_.aggs.size(); ++i) {
            switch (plan_.aggs[i].func) {
              case AggFunc::kMin:
                acc[2 * i] = std::numeric_limits<double>::infinity();
                break;
              case AggFunc::kMax:
                acc[2 * i] = -std::numeric_limits<double>::infinity();
                break;
              default:
                acc[2 * i] = 0;
                break;
            }
            acc[2 * i + 1] = 0;
          }
        }
        w->groups->Apply(acc, w->agg_main.data(), w->agg_aux.data());
      });
    });
    FlushRelaxed(w, depth, stride);
  }

  /// CellAccessor over the current leaf.
  class LeafAccessor : public CellAccessor {
   public:
    LeafAccessor(const NodeExec& exec, Worker& w) : exec_(exec), w_(w) {}

    double Number(int rel, int col) const override {
      uint32_t rank = 0;
      const AnnotationBuffer* buf = Find(rel, col, &rank);
      return buf->AsDouble(rank);
    }
    int64_t Code(int rel, int col) const override {
      uint32_t rank = 0;
      const AnnotationBuffer* buf = Find(rel, col, &rank);
      return buf->codes.empty() ? -1 : buf->codes[rank];
    }
    const Dictionary* Dict(int rel, int col) const override {
      uint32_t rank = 0;
      const AnnotationBuffer* buf = Find(rel, col, &rank);
      return buf->dict;
    }

   private:
    const AnnotationBuffer* Find(int rel, int col, uint32_t* rank) const {
      for (size_t s = 0; s < exec_.node_.relations.size(); ++s) {
        if (exec_.node_.relations[s].rel != rel) continue;
        const BuiltRelation& br = *exec_.rels_[s];
        const int a = br.annot_of_col[col];
        LH_CHECK(a >= 0) << "unplanned annotation access";
        const AnnotationBuffer& buf = br.trie->annotation(a);
        // Annotations below the queried levels are addressed through the
        // per-base-row cursor set by the subrow-mode leaf (translated when
        // the annotation attaches above the trie's own leaf level).
        if (buf.level < br.num_query_levels) {
          *rank = RankCursor(w_, s, buf.level);
        } else if (buf.level + 1 == br.trie->num_levels()) {
          *rank = w_.subrow[s];
        } else {
          *rank = br.trie->level(buf.level).AncestorOfLeaf(w_.subrow[s]);
        }
        return &buf;
      }
      for (size_t i = 0; i < exec_.lookups_.size(); ++i) {
        if (exec_.lookup_rel_ids_[i] != rel) continue;
        const BuiltRelation& br = *exec_.lookups_[i];
        const uint32_t value = w_.vals[exec_.lookup_positions_[i]];
        const int64_t r = br.trie->root().Rank(value);
        LH_CHECK(r >= 0) << "lookup value missing from lookup trie";
        const int a = br.annot_of_col[col];
        LH_CHECK(a >= 0) << "unplanned lookup annotation";
        *rank = static_cast<uint32_t>(r);
        return &br.trie->annotation(a);
      }
      LH_CHECK(false) << "annotation access for unknown relation " << rel;
      return nullptr;
    }

    const NodeExec& exec_;
    Worker& w_;
  };

  /// Annotation value at the current position, range-aggregated over
  /// unjoined deeper levels (attribute-elimination ablation).
  double AnnotValue(Worker* w, int s, int a) const {
    const BuiltRelation& br = *rels_[s];
    const AnnotationBuffer& buf = br.trie->annotation(a);
    if (buf.level < br.num_query_levels) {
      return buf.AsDouble(RankCursor(*w, s, buf.level));
    }
    const int last = br.num_query_levels - 1;
    const uint32_t rank = RankCursor(*w, s, last);
    const TrieLevel& level = br.trie->level(last);
    const uint32_t lo = level.first_leaf(rank);
    const uint32_t hi = level.first_leaf(rank + 1);
    const AnnotationMerge merge = br.annot_merge[a];
    if (merge == AnnotationMerge::kFirst) return buf.AsDouble(lo);
    double acc = merge == AnnotationMerge::kSum ? 0.0 : buf.AsDouble(lo);
    for (uint32_t i = lo; i < hi; ++i) {
      const double v = buf.AsDouble(i);
      if (merge == AnnotationMerge::kSum) {
        acc += v;
      } else if (merge == AnnotationMerge::kMin) {
        acc = std::min(acc, v);
      } else {
        acc = std::max(acc, v);
      }
    }
    return acc;
  }

  double CountOf(Worker* w, int s) const {
    const BuiltRelation* br = rels_[s];
    // unique_keys is prefix-exact (see BuildRelationTrie): a unique queried
    // prefix implies per-leaf multiplicity 1 even under deeper unjoined
    // levels, so the annotation fold is skippable.
    if (br->unique_keys) return 1.0;
    return AnnotValue(w, s, br->count_annot);
  }

  /// Point value of annotation `a` of slot `s`: deep annotations of
  /// iterated relations read at the current subrow; everything else goes
  /// through the (possibly range-aggregating) AnnotValue.
  double AnnotValuePoint(Worker* w, int s, int a) const {
    const BuiltRelation& br = *rels_[s];
    const AnnotationBuffer& buf = br.trie->annotation(a);
    if (buf.level >= br.num_query_levels && iterated_[s]) {
      if (buf.level + 1 == br.trie->num_levels()) {
        return buf.AsDouble(w->subrow[s]);
      }
      return buf.AsDouble(
          br.trie->level(buf.level).AncestorOfLeaf(w->subrow[s]));
    }
    return AnnotValue(w, s, a);
  }

  /// Subrow-mode leaf: enumerates the cross product of the iterated
  /// relations' base-row ranges — each combination is one logical join
  /// row, grouped and aggregated individually (Q12's GROUP BY l_shipmode
  /// with lineitem keyed on orderkey only).
  void SubrowLeaf(Worker* w) {
    struct Range {
      int slot;
      uint32_t lo, hi;
    };
    Range ranges[16];
    int nr = 0;
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      if (!iterated_[s]) continue;
      const BuiltRelation& br = *rels_[s];
      const int last = br.num_query_levels - 1;
      const uint32_t rank = RankCursor(*w, s, last);
      const TrieLevel& level = br.trie->level(last);
      LH_CHECK_LT(nr, 16);
      ranges[nr] = {static_cast<int>(s), level.first_leaf(rank),
                    level.first_leaf(rank + 1)};
      w->subrow[s] = ranges[nr].lo;
      ++nr;
    }
    while (true) {
      ++w->leaf_count;
      ComputeDeltas(w);
      double* acc;
      if (dims_->empty()) {
        acc = w->groups->ScalarGroup();
      } else {
        EncodeGroupKey(w);
        acc = append_mode_ ? w->groups->AppendOrLast(w->group_key.data())
                           : w->groups->FindOrCreate(w->group_key.data());
      }
      w->groups->Apply(acc, w->agg_main.data(), w->agg_aux.data());
      int d = 0;
      for (; d < nr; ++d) {
        if (++w->subrow[ranges[d].slot] < ranges[d].hi) break;
        w->subrow[ranges[d].slot] = ranges[d].lo;
      }
      if (d == nr) break;
    }
  }

  void ComputeDeltas(Worker* w) {
    LeafAccessor cells(*this, *w);
    double total_count = 1.0;
    if (!all_unique_) {
      for (size_t s = 0; s < node_.relations.size(); ++s) {
        if (node_.relations[s].rel < 0 || iterated_[s]) {
          w->rel_count[s] = 1.0;  // iterated rows are enumerated one by one
          continue;
        }
        w->rel_count[s] = CountOf(w, static_cast<int>(s));
        total_count *= w->rel_count[s];
      }
    }
    for (size_t i = 0; i < plan_.aggs.size(); ++i) {
      const AggExec& agg = plan_.aggs[i];
      switch (agg.func) {
        case AggFunc::kCount:
          w->agg_main[i] = total_count;
          w->agg_aux[i] = 0;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          double v;
          if (agg.single_rel >= 0) {
            const int s = SlotOfRel(agg.single_rel);
            v = AnnotValuePoint(w, s, rels_[s]->agg_annot[i]);
          } else if (agg_prog_ok_[i]) {
            v = agg_progs_[i].Eval([&](int slot, int level) {
              return RankCursor(*w, slot, level);
            });
          } else {
            v = EvalNumber(*agg.arg, cells);
          }
          w->agg_main[i] = v;
          w->agg_aux[i] = 0;
          break;
        }
        case AggFunc::kSum:
        case AggFunc::kAvg: {
          double v;
          double multiplier = 1.0;
          if (agg.single_rel >= 0) {
            // The relation's own multiplicity is folded into its merged
            // annotation; multiply by every other relation's.
            const int s = SlotOfRel(agg.single_rel);
            v = AnnotValuePoint(w, s, rels_[s]->agg_annot[i]);
            if (!all_unique_) {
              for (size_t t = 0; t < node_.relations.size(); ++t) {
                if (node_.relations[t].rel < 0 ||
                    static_cast<int>(t) == s) {
                  continue;
                }
                multiplier *= w->rel_count[t];
              }
            }
          } else {
            if (agg.arg == nullptr) {
              v = 1.0;
            } else if (agg_prog_ok_[i]) {
              v = agg_progs_[i].Eval([&](int slot, int level) {
                return RankCursor(*w, slot, level);
              });
            } else {
              v = EvalNumber(*agg.arg, cells);
            }
            // The argument value is constant across each relation's merged
            // rows (iterated relations are enumerated, with count 1), so
            // every relation's multiplicity multiplies.
            if (!all_unique_) {
              for (size_t t = 0; t < node_.relations.size(); ++t) {
                if (node_.relations[t].rel < 0) continue;
                multiplier *= w->rel_count[t];
              }
            }
          }
          w->agg_main[i] = v * multiplier;
          w->agg_aux[i] = agg.func == AggFunc::kAvg ? total_count : 0;
          break;
        }
      }
    }
  }

  int SlotOfRel(int rel) const {
    for (size_t s = 0; s < node_.relations.size(); ++s) {
      if (node_.relations[s].rel == rel) return static_cast<int>(s);
    }
    LH_CHECK(false) << "relation not in node";
    return -1;
  }

  void EncodeGroupKey(Worker* w) {
    LeafAccessor cells(*this, *w);
    for (size_t d = 0; d < dims_->size(); ++d) {
      const DimInfo& info = (*dims_)[d];
      const GroupDimExec& dim = plan_.dims[d];
      uint64_t enc = 0;
      switch (info.kind) {
        case DimKind::kKeyVertex:
          enc = w->vals[info.vertex_pos];
          break;
        case DimKind::kStringCode:
          enc = static_cast<uint64_t>(
              cells.Code(dim.expr->bound_rel, dim.expr->bound_col));
          break;
        case DimKind::kInt:
        case DimKind::kDate:
          enc = static_cast<uint64_t>(
              static_cast<int64_t>(EvalNumber(*dim.expr, cells)));
          break;
        case DimKind::kReal:
          enc = BitcastDouble(EvalNumber(*dim.expr, cells));
          break;
      }
      w->group_key[d] = enc;
    }
  }

  void Leaf(Worker* w) {
    if (subrow_mode_) {
      SubrowLeaf(w);
      return;
    }
    ++w->leaf_count;
    ComputeDeltas(w);
    double* acc;
    if (dims_->empty()) {
      acc = w->groups->ScalarGroup();
    } else {
      EncodeGroupKey(w);
      acc = append_mode_ ? w->groups->AppendOrLast(w->group_key.data())
                         : w->groups->FindOrCreate(w->group_key.data());
    }
    w->groups->Apply(acc, w->agg_main.data(), w->agg_aux.data());
  }

  const PhysicalPlan& plan_;
  const NodePlan& node_;
  std::vector<const BuiltRelation*> rels_;
  std::vector<SetView> child_sets_;
  std::vector<const BuiltRelation*> lookups_;
  std::vector<int> lookup_rel_ids_;
  std::vector<int> lookup_positions_;
  const std::vector<DimInfo>* dims_;
  std::vector<std::vector<Participant>> participants_;
  std::vector<bool> iterated_;  // per slot: leaf enumerates its base rows
  bool subrow_mode_ = false;
  std::vector<LeafProgram> agg_progs_;
  std::vector<uint8_t> agg_prog_ok_;
  bool all_unique_ = false;
  bool fast_single_sum_ = false;
  int max_dim_pos_ = -1;
  std::vector<bool> direct_;
  std::vector<bool> fused_pair_;
  uint32_t last_domain_size_ = 0;
  bool append_mode_ = false;
  int64_t skew_threshold_ = 0;  // 0 = splitting disabled for this node
  uint64_t total_leaves_ = 0;
  uint64_t total_nodes_ = 0;

  // Chunk-run state (PrepareChunks / RunChunk / FoldChunks). root_values_,
  // grain_, and chunk layout are written once in PrepareChunks and
  // read-only during chunk runs; chunk_out_ elements are written by exactly
  // one RunChunk each.
  size_t key_width_ = 0;
  std::unique_ptr<Worker> seed_;
  std::vector<uint32_t> root_values_;
  int64_t grain_ = 1;
  int64_t num_chunks_ = 0;
  std::vector<std::unique_ptr<GroupAccum>> chunk_out_;
  Mutex scratch_mu_{LockRank::kExecScratch};
  std::vector<std::unique_ptr<Worker>> free_workers_
      LH_GUARDED_BY(scratch_mu_);

  const QueryGuard* guard_ = nullptr;
  const bool guard_active_ = false;
  std::atomic<bool> aborted_{false};
  Mutex abort_mu_{LockRank::kExecAbort};
  Status abort_status_ LH_GUARDED_BY(abort_mu_);  // first failure wins
};

// ---------------------------------------------------------------------------
// Scan path (join-free queries).
// ---------------------------------------------------------------------------

/// Phase-split scan execution: Init runs the fallible setup, RunChunk
/// consumes one adaptive-grain row range (thread-safe for distinct chunks),
/// and Gather folds the per-chunk partials in chunk order and materializes.
/// ExecuteScan drives the chunks through the global pool. Per-chunk
/// partials merged in chunk order (not per-slot): which thread runs a chunk
/// is scheduling noise, so per-slot accumulators would merge floating-point
/// sums in a different order every run. Chunk boundaries come from
/// cardinality alone, making results thread-count independent.
struct ScanState {
  ScanState(const PhysicalPlan& p, const Catalog& c, QueryResult::Timing* tm,
            obs::QueryObs* qo, const QueryGuard* g)
      : plan(p),
        catalog(c),
        table(*p.query.relations[0].table),
        timing(tm),
        qobs(qo),
        guard(g),
        guard_active(g != nullptr &&
                     (g->CancelEnabled() || g->max_result_rows > 0)),
        span(qo != nullptr ? &qo->trace : nullptr, "scan") {}

  Status Init() {
    span.SetDetail(table.schema().name());
    span.AddMetric("rows", static_cast<double>(table.num_rows()));
    // The fused kernel (compiled at plan time) owns filtering; the
    // RowFilter is only compiled for the tree-walking fallback loop.
    cscan = plan.compiled_scan.get();
    if (cscan == nullptr) {
      std::vector<const Expr*> conjuncts;
      for (const ExprPtr& f : plan.query.relations[0].filters) {
        conjuncts.push_back(f.get());
      }
      LH_ASSIGN_OR_RETURN(
          filter,
          RowFilter::Compile(conjuncts, table, plan.options.use_expr_vm));
    }
    for (const GroupDimExec& d : plan.dims) {
      dim_infos.push_back(ClassifyDim(d, plan, catalog, /*join_path=*/false));
    }
    // Columns touched when attribute elimination is disabled: all of them.
    if (!plan.options.use_attribute_elimination) {
      for (size_t c = 0; c < table.schema().num_columns(); ++c) {
        all_numeric_cols.push_back(static_cast<int>(c));
      }
    }
    key_width = plan.dims.size();
    num_rows = static_cast<int64_t>(table.num_rows());
    grain = AdaptiveGrain(num_rows, 2048);
    num_chunks = num_rows == 0 ? 0 : (num_rows + grain - 1) / grain;
    partials.resize(num_chunks);
    t.Restart();  // exec_ms covers the chunk runs, not the setup above
    return Status::OK();
  }

  void RunChunk(int64_t chunk) {
    const int64_t lo = chunk * grain;
    const int64_t hi = std::min(num_rows, lo + grain);
    partials[chunk] = std::make_unique<GroupAccum>(key_width, &plan.aggs);
    GroupAccum& groups = *partials[chunk];
    if (cscan != nullptr) {
      // Compiled path: the fused kernel consumes the chunk whole; the
      // poll closure reproduces the interpreter's 1024-row guard
      // cadence and abort protocol.
      std::function<bool()> poll;
      if (guard_active) {
        poll = [&]() {
          // Relaxed: poll of the stop flag; a stale false only costs
          // the worker extra iterations whose output is discarded.
          if (aborted.load(std::memory_order_relaxed)) return false;
          Status s = guard->Check();
          if (s.ok()) s = guard->CheckRows(groups.num_groups());
          if (!s.ok()) {
            MutexLock lock(&abort_mu);
            if (abort_status.ok()) abort_status = std::move(s);
            // Release: pairs with the coordinator's acquire in Gather.
            aborted.store(true, std::memory_order_release);
            return false;
          }
          return true;
        };
      }
      cscan->ExecuteChunk(lo, hi, &groups, poll);
      return;
    }
    TableRowCells cells(table);
    std::vector<uint64_t> key(key_width);
    std::vector<double> main(std::max<size_t>(1, plan.aggs.size()));
    std::vector<double> aux(std::max<size_t>(1, plan.aggs.size()));
    uint64_t local_sink = 0;
    for (int64_t row = lo; row < hi; ++row) {
      if (guard_active && ((row - lo) & 1023) == 0) {
        // Relaxed: poll of the stop flag; a stale false only costs the
        // worker extra iterations whose output is discarded.
        if (aborted.load(std::memory_order_relaxed)) break;
        Status s = guard->Check();
        if (s.ok()) s = guard->CheckRows(groups.num_groups());
        if (!s.ok()) {
          MutexLock lock(&abort_mu);
          if (abort_status.ok()) abort_status = std::move(s);
          // Release: pairs with the coordinator's acquire in Gather.
          aborted.store(true, std::memory_order_release);
          break;
        }
      }
      if (!filter.Matches(static_cast<uint32_t>(row))) continue;
      cells.row = static_cast<uint32_t>(row);
      // The -Attr.Elim arm reads every column of each surviving row
      // (row-store behavior) instead of only the referenced ones.
      for (int c : all_numeric_cols) {
        local_sink += static_cast<uint64_t>(cells.Number(0, c));
      }
      for (size_t d = 0; d < plan.dims.size(); ++d) {
        const GroupDimExec& dim = plan.dims[d];
        switch (dim_infos[d].kind) {
          case DimKind::kKeyVertex:
            LH_CHECK(false) << "key-vertex dim on scan path";
            break;
          case DimKind::kStringCode:
            key[d] = static_cast<uint64_t>(
                cells.Code(0, dim.expr->bound_col));
            break;
          case DimKind::kInt:
          case DimKind::kDate:
            key[d] = static_cast<uint64_t>(
                static_cast<int64_t>(EvalNumber(*dim.expr, cells)));
            break;
          case DimKind::kReal:
            key[d] = BitcastDouble(EvalNumber(*dim.expr, cells));
            break;
        }
      }
      for (size_t i = 0; i < plan.aggs.size(); ++i) {
        const AggExec& agg = plan.aggs[i];
        switch (agg.func) {
          case AggFunc::kCount:
            main[i] = 1;
            aux[i] = 0;
            break;
          case AggFunc::kAvg:
            main[i] = EvalNumber(*agg.arg, cells);
            aux[i] = 1;
            break;
          default:
            main[i] = agg.arg == nullptr ? 1 : EvalNumber(*agg.arg, cells);
            aux[i] = 0;
            break;
        }
      }
      double* acc = key_width == 0 ? groups.ScalarGroup()
                                   : groups.FindOrCreate(key.data());
      groups.Apply(acc, main.data(), aux.data());
    }
    // Relaxed: plain accumulation; the ParallelChunks join orders the
    // total before Gather reads.
    sink.fetch_add(local_sink, std::memory_order_relaxed);
  }

  Result<QueryResult> Gather() {
    if (aborted.load(std::memory_order_acquire)) {
      MutexLock lock(&abort_mu);
      return abort_status;
    }
    GroupAccum total(key_width, &plan.aggs);
    for (auto& p : partials) {
      if (p != nullptr) total.MergeFrom(*p);
    }
    timing->exec_ms += t.ElapsedMillis();
    QueryResult result = MaterializeGroups(plan, total, dim_infos);
    if (qobs != nullptr) {
      qobs->stats.CountTuplesEmitted(result.num_rows);
      qobs->node_tuples.assign(1, result.num_rows);
    }
    result.timing = *timing;
    return result;
  }

  const PhysicalPlan& plan;
  const Catalog& catalog;
  const Table& table;
  QueryResult::Timing* timing;
  obs::QueryObs* qobs;
  const QueryGuard* guard;
  const bool guard_active;
  obs::TraceSpan span;

  const CompiledScan* cscan = nullptr;
  RowFilter filter;
  std::vector<DimInfo> dim_infos;
  std::vector<int> all_numeric_cols;
  size_t key_width = 0;
  int64_t num_rows = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  std::vector<std::unique_ptr<GroupAccum>> partials;
  std::atomic<uint64_t> sink{0};
  WallTimer t;

  // Cooperative abort for the scan loops (core/cancel.h): first failing
  // worker records the status, the rest observe the flag each stride.
  std::atomic<bool> aborted{false};
  Mutex abort_mu{LockRank::kExecAbort};
  Status abort_status LH_GUARDED_BY(abort_mu);  // first failure wins
};

Result<QueryResult> ExecuteScan(const PhysicalPlan& plan,
                                const Catalog& catalog,
                                QueryResult::Timing* timing,
                                obs::QueryObs* qobs,
                                const QueryGuard* guard) {
  ScanState state(plan, catalog, timing, qobs, guard);
  LH_RETURN_NOT_OK(state.Init());
  ThreadPool::Global().ParallelChunks(
      0, state.num_chunks, 1, [&](int slot, int64_t lo, int64_t hi) {
        (void)slot;
        for (int64_t c = lo; c < hi; ++c) state.RunChunk(c);
      });
  return state.Gather();
}

// ---------------------------------------------------------------------------
// Dense dispatch (§III-D).
// ---------------------------------------------------------------------------

/// The dimension (if any) of relation `rel` among the plan's dims.
int DimOfRelation(const PhysicalPlan& plan, int rel) {
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    const GroupDimExec& dim = plan.dims[d];
    if (dim.vertex < 0) continue;
    if (dim.expr->kind == Expr::Kind::kColumnRef &&
        dim.expr->bound_rel == rel) {
      return static_cast<int>(d);
    }
  }
  return -1;
}

Result<QueryResult> ExecuteDense(const PhysicalPlan& plan,
                                 const Catalog& catalog, TrieCache* cache,
                                 QueryResult::Timing* timing,
                                 obs::QueryObs* qobs,
                                 const QueryGuard* guard) {
  if (guard != nullptr) LH_RETURN_NOT_OK(guard->Check());
  const NodePlan& node = plan.nodes[0];
  // Identify A (carries the first output dimension), B (the other), and
  // the shared vertex k.
  const RelationPlan* rp_a = nullptr;
  const RelationPlan* rp_b = nullptr;
  int dim_a = -1, dim_b = -1;
  for (const RelationPlan& rp : node.relations) {
    int d = DimOfRelation(plan, rp.rel);
    if (rp_a == nullptr && d >= 0 && rp.levels_vertex.size() == 2) {
      rp_a = &rp;
      dim_a = d;
    } else {
      rp_b = &rp;
      dim_b = d;
    }
  }
  LH_CHECK(rp_a != nullptr && rp_b != nullptr);
  // Shared vertex: in both relations.
  int shared = -1;
  for (int v : rp_a->levels_vertex) {
    for (int u : rp_b->levels_vertex) {
      if (u == v) shared = v;
    }
  }
  LH_CHECK(shared >= 0);
  const int va = plan.dims[dim_a].vertex;
  const int vb = plan.dense == DenseKernel::kGemm
                     ? plan.dims[dim_b].vertex
                     : -1;

  auto col_of = [&](const RelationPlan& rp, int v) {
    for (size_t l = 0; l < rp.levels_vertex.size(); ++l) {
      if (rp.levels_vertex[l] == v) return rp.levels_col[l];
    }
    LH_CHECK(false) << "vertex not on relation";
    return -1;
  };

  // Build tries in BLAS-compatible orders: A as (dim_a, k), B as (k, dim_b).
  std::vector<int> cols_a = {col_of(*rp_a, va), col_of(*rp_a, shared)};
  std::vector<int> cols_b;
  if (plan.dense == DenseKernel::kGemm) {
    cols_b = {col_of(*rp_b, shared), col_of(*rp_b, vb)};
  } else {
    cols_b = {col_of(*rp_b, shared)};
  }
  LH_ASSIGN_OR_RETURN(
      BuiltRelation a,
      BuildRelationTrie(plan, catalog, rp_a->rel, cols_a, 2,
                        /*attach_aggregates=*/false, /*eager_levels=*/-1,
                        cache, timing, qobs));
  LH_ASSIGN_OR_RETURN(
      BuiltRelation b,
      BuildRelationTrie(plan, catalog, rp_b->rel, cols_b,
                        static_cast<int>(cols_b.size()),
                        /*attach_aggregates=*/false, /*eager_levels=*/-1,
                        cache, timing, qobs));

  // The aggregate argument is colref(A.v) * colref(B.v); fetch each side's
  // annotation buffer (leaf order == row-major dense layout).
  const Expr& arg = *plan.aggs[0].arg;
  auto buffer_of = [&](const BuiltRelation& br,
                       int rel) -> const std::vector<double>* {
    for (const ExprPtr& side : arg.children) {
      if (side->bound_rel == rel) {
        const int annot = br.annot_of_col[side->bound_col];
        LH_CHECK(annot >= 0);
        return &br.trie->annotation(annot).reals;
      }
    }
    LH_CHECK(false) << "dense argument side missing";
    return nullptr;
  };
  const std::vector<double>* abuf = buffer_of(a, rp_a->rel);
  const std::vector<double>* bbuf = buffer_of(b, rp_b->rel);

  const Dictionary* dom_a =
      catalog.GetDomain(plan.query.vertices[va].domain);
  const Dictionary* dom_k =
      catalog.GetDomain(plan.query.vertices[shared].domain);
  const int64_t m = dom_a->size();
  const int64_t kk = dom_k->size();

  WallTimer t;
  obs::TraceSpan span(qobs != nullptr ? &qobs->trace : nullptr, "dense_blas");
  span.SetDetail(plan.dense == DenseKernel::kGemm ? "gemm" : "gemv");
  span.AddMetric("m", static_cast<double>(m));
  span.AddMetric("k", static_cast<double>(kk));
  // The BLAS kernels are not interruptible; the last poll is just before
  // dispatch, after the (cacheable) buffer builds.
  if (guard != nullptr) LH_RETURN_NOT_OK(guard->Check());
  QueryResult result;
  std::vector<double> out_values;
  int64_t nn = 1;
  if (plan.dense == DenseKernel::kGemm) {
    const Dictionary* dom_b =
        catalog.GetDomain(plan.query.vertices[vb].domain);
    nn = dom_b->size();
    out_values.resize(m * nn);
    Gemm(m, nn, kk, abuf->data(), bbuf->data(), out_values.data());
  } else {
    out_values.resize(m);
    Gemv(m, kk, abuf->data(), bbuf->data(), out_values.data());
  }
  span.End();
  if (qobs != nullptr) {
    qobs->stats.CountTuplesEmitted(out_values.size());
    qobs->node_tuples.assign(1, out_values.size());
  }

  // Key production (the paper's <2% overhead): materialize output columns.
  result.num_rows = out_values.size();
  const Dictionary* dom_b =
      vb >= 0 ? catalog.GetDomain(plan.query.vertices[vb].domain) : nullptr;
  for (const OutputItem& out : plan.query.outputs) {
    ResultColumn col;
    col.name = out.name;
    if (out.direct_group_index == dim_a) {
      col.type = ValueType::kInt64;
      col.ints.resize(result.num_rows);
      for (size_t r = 0; r < result.num_rows; ++r) {
        col.ints[r] = dom_a->DecodeInt(static_cast<uint32_t>(r / nn));
      }
    } else if (vb >= 0 && out.direct_group_index == dim_b) {
      col.type = ValueType::kInt64;
      col.ints.resize(result.num_rows);
      for (size_t r = 0; r < result.num_rows; ++r) {
        col.ints[r] = dom_b->DecodeInt(static_cast<uint32_t>(r % nn));
      }
    } else if (out.direct_agg_slot == 0) {
      col.type = ValueType::kDouble;
      col.reals = out_values;
    } else {
      return Status::PlanError("unsupported output shape for dense kernel");
    }
    result.columns.push_back(std::move(col));
  }
  timing->exec_ms += t.ElapsedMillis();
  result.timing = *timing;
  return result;
}

// ---------------------------------------------------------------------------
// Join path.
// ---------------------------------------------------------------------------

/// Phase-split join execution: Prepare builds tries, runs the Yannakakis
/// semijoin children, and computes the root node's chunk layout — all on
/// the calling thread; RunChunk executes one root chunk (thread-safe for
/// distinct chunks); Gather folds partials in chunk order and
/// materializes. ExecuteJoin drives the chunks through the global pool.
struct JoinState {
  JoinState(const PhysicalPlan& p, const Catalog& c, TrieCache* tc,
            QueryResult::Timing* tm, obs::QueryObs* qo, const QueryGuard* g)
      : plan(p),
        catalog(c),
        cache(tc),
        timing(tm),
        qobs(qo),
        guard(g),
        trace(qo != nullptr ? &qo->trace : nullptr) {}

  Status Prepare() {
    if (qobs != nullptr) qobs->node_tuples.assign(plan.nodes.size(), 0);
    // Build tries for every node's relations. Each build is one unit of
    // cancellable work: the guard is polled between builds, not inside one.
    built.resize(plan.nodes.size());
    for (size_t ni = 0; ni < plan.nodes.size(); ++ni) {
      for (const RelationPlan& rp : plan.nodes[ni].relations) {
        if (guard != nullptr) LH_RETURN_NOT_OK(guard->Check());
        if (rp.rel < 0) {
          built[ni].push_back(nullptr);
          continue;
        }
        std::vector<int> level_cols = rp.levels_col;
        level_cols.insert(level_cols.end(), rp.extra_level_cols.begin(),
                          rp.extra_level_cols.end());
        LH_ASSIGN_OR_RETURN(
            BuiltRelation br,
            BuildRelationTrie(plan, catalog, rp.rel, level_cols,
                              static_cast<int>(rp.levels_col.size()),
                              /*attach_aggregates=*/true, rp.eager_levels,
                              cache, timing, qobs));
        built[ni].push_back(std::make_unique<BuiltRelation>(std::move(br)));
      }
    }

    // Lookup tries (one-level, keyed by the interface vertex).
    for (const LookupPlan& lp : plan.nodes[0].lookups) {
      const RelationRef& ref = plan.query.relations[lp.rel];
      int col = -1;
      for (size_t c = 0; c < ref.vertex_of_col.size(); ++c) {
        if (ref.vertex_of_col[c] == lp.vertex) col = static_cast<int>(c);
      }
      LH_CHECK(col >= 0);
      LH_ASSIGN_OR_RETURN(
          BuiltRelation br,
          BuildRelationTrie(plan, catalog, lp.rel, {col}, 1,
                            /*attach_aggregates=*/false, /*eager_levels=*/-1,
                            cache, timing, qobs));
      lookup_built.push_back(std::make_unique<BuiltRelation>(std::move(br)));
      lookup_rel_ids.push_back(lp.rel);
      int pos = -1;
      for (size_t i = 0; i < plan.nodes[0].attr_order.size(); ++i) {
        if (plan.nodes[0].attr_order[i] == lp.vertex) {
          pos = static_cast<int>(i);
        }
      }
      LH_CHECK(pos >= 0) << "lookup vertex not in root order";
      lookup_positions.push_back(pos);
    }

    t.Restart();
    // Children first (Yannakakis existential semijoins).
    child_results.resize(plan.nodes.size());
    for (size_t ni = plan.nodes.size(); ni-- > 1;) {
      obs::TraceSpan span(trace, "semijoin");
      span.SetDetail("node " + std::to_string(ni));
      std::vector<const BuiltRelation*> rels;
      for (const auto& br : built[ni]) rels.push_back(br.get());
      NodeExec exec(plan, plan.nodes[ni], std::move(rels), {}, {}, {}, {},
                    &no_dims[0], guard);
      std::vector<uint32_t> codes = exec.RunExistential();
      LH_RETURN_NOT_OK(exec.abort_status());
      span.AddMetric("tuples", static_cast<double>(codes.size()));
      if (qobs != nullptr) {
        qobs->node_tuples[ni] = codes.size();
        qobs->stats.CountTuplesEmitted(codes.size());
        qobs->stats.CountTrieNodesVisited(exec.nodes_visited());
      }
      child_results[ni] = OwnedSet::FromSorted(codes);
    }

    // Root node.
    for (const GroupDimExec& d : plan.dims) {
      DimInfo info = ClassifyDim(d, plan, catalog, /*join_path=*/true);
      if (info.kind == DimKind::kKeyVertex) {
        for (size_t i = 0; i < plan.nodes[0].attr_order.size(); ++i) {
          if (plan.nodes[0].attr_order[i] == d.vertex) {
            info.vertex_pos = static_cast<int>(i);
          }
        }
        LH_CHECK(info.vertex_pos >= 0);
      }
      dim_infos.push_back(info);
    }

    std::vector<const BuiltRelation*> root_rels;
    std::vector<SetView> child_sets;
    for (size_t s = 0; s < plan.nodes[0].relations.size(); ++s) {
      const RelationPlan& rp = plan.nodes[0].relations[s];
      root_rels.push_back(built[0][s].get());
      if (rp.rel < 0) {
        child_sets.push_back(child_results[rp.child_node].view());
      }
    }
    std::vector<const BuiltRelation*> lookups;
    for (const auto& b : lookup_built) lookups.push_back(b.get());

    root = std::make_unique<NodeExec>(
        plan, plan.nodes[0], std::move(root_rels), std::move(child_sets),
        std::move(lookups), std::move(lookup_rel_ids),
        std::move(lookup_positions), &dim_infos, guard);
    if (plan.nodes[0].union_relaxed) {
      const int last = plan.nodes[0].attr_order.back();
      const Dictionary* dom =
          catalog.GetDomain(plan.query.vertices[last].domain);
      root->set_last_domain_size(dom->size());
    }
    wcoj_span.emplace(trace, "wcoj");
    wcoj_span->SetDetail("root, order " + plan.RootOrderString());
    root->PrepareChunks();
    return Status::OK();
  }

  void RunChunk(int64_t chunk, ThreadPool& pool) {
    root->RunChunk(chunk, pool);
  }

  Result<QueryResult> Gather() {
    GroupAccum groups = root->FoldChunks();
    LH_RETURN_NOT_OK(root->abort_status());
    if (qobs != nullptr) {
      qobs->node_tuples[0] = root->leaves();
      qobs->stats.CountTuplesEmitted(root->leaves());
      qobs->stats.CountTrieNodesVisited(root->nodes_visited());
    }
    wcoj_span->AddMetric("tuples", static_cast<double>(root->leaves()));
    wcoj_span->End();
    timing->exec_ms += t.ElapsedMillis();

    WallTimer mt;
    obs::TraceSpan mat_span(trace, "materialize");
    QueryResult result = MaterializeGroups(plan, groups, dim_infos);
    mat_span.AddMetric("rows", static_cast<double>(result.num_rows));
    mat_span.End();
    timing->exec_ms += mt.ElapsedMillis();
    result.timing = *timing;
    return result;
  }

  const PhysicalPlan& plan;
  const Catalog& catalog;
  TrieCache* cache;
  QueryResult::Timing* timing;
  obs::QueryObs* qobs;
  const QueryGuard* guard;
  obs::Trace* trace;

  std::vector<std::vector<std::unique_ptr<BuiltRelation>>> built;
  std::vector<std::unique_ptr<BuiltRelation>> lookup_built;
  std::vector<int> lookup_rel_ids, lookup_positions;
  std::vector<OwnedSet> child_results;
  std::vector<std::vector<DimInfo>> no_dims{1};
  std::vector<DimInfo> dim_infos;
  /// Root NodeExec behind a stable address: chunk runners and the folded
  /// partials point into it.
  std::unique_ptr<NodeExec> root;
  WallTimer t;
  std::optional<obs::TraceSpan> wcoj_span;
};

Result<QueryResult> ExecuteJoin(const PhysicalPlan& plan,
                                const Catalog& catalog, TrieCache* cache,
                                QueryResult::Timing* timing,
                                obs::QueryObs* qobs,
                                const QueryGuard* guard) {
  JoinState state(plan, catalog, cache, timing, qobs, guard);
  LH_RETURN_NOT_OK(state.Prepare());
  ThreadPool& pool = ThreadPool::Global();
  pool.ParallelChunks(0, state.root->num_chunks(), 1,
                      [&](int slot, int64_t lo, int64_t hi) {
                        (void)slot;
                        for (int64_t c = lo; c < hi; ++c) {
                          state.RunChunk(c, pool);
                        }
                      });
  return state.Gather();
}

QueryResult EmptyResult(const PhysicalPlan& plan) {
  QueryResult result;
  for (const OutputItem& out : plan.query.outputs) {
    ResultColumn col;
    col.name = out.name;
    col.type = ValueType::kDouble;
    result.columns.push_back(std::move(col));
  }
  result.num_rows = 0;
  return result;
}

}  // namespace

Result<QueryResult> ExecutePlan(const PhysicalPlan& plan,
                                const Catalog& catalog, TrieCache* cache,
                                QueryResult::Timing* timing,
                                obs::QueryObs* qobs,
                                const QueryGuard* guard) {
  if (!plan.options.use_trie_cache) cache = nullptr;
  if (plan.query.always_empty) {
    QueryResult r = EmptyResult(plan);
    r.timing = *timing;
    return r;
  }
  Result<QueryResult> result =
      plan.scan_only ? ExecuteScan(plan, catalog, timing, qobs, guard)
      : plan.dense != DenseKernel::kNone
          ? ExecuteDense(plan, catalog, cache, timing, qobs, guard)
          : ExecuteJoin(plan, catalog, cache, timing, qobs, guard);
  if (result.ok()) {
    // Authoritative row bound: the materialized (pre-ORDER/LIMIT) row
    // count — the in-flight checks during accumulation are per-worker
    // backstops and can undercount across workers.
    if (guard != nullptr) {
      LH_RETURN_NOT_OK(guard->CheckRows(result.value().num_rows));
    }
    WallTimer t;
    ApplyOrderAndLimit(plan.query, &result.value());
    timing->exec_ms += t.ElapsedMillis();
    result.value().timing = *timing;
  }
  return result;
}

}  // namespace levelheaded
