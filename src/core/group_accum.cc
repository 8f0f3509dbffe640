#include "core/group_accum.h"

#include <algorithm>
#include <cmath>

#include "core/expr_eval.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace levelheaded {

uint64_t BitcastDouble(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double UnbitcastDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

DimInfo ClassifyDim(const GroupDimExec& dim, const PhysicalPlan& plan,
                    const Catalog& catalog, bool join_path) {
  DimInfo info;
  if (join_path && dim.vertex >= 0) {
    info.kind = DimKind::kKeyVertex;
    info.dict = catalog.GetDomain(plan.query.vertices[dim.vertex].domain);
    return info;
  }
  const Expr& e = *dim.expr;
  if (e.kind == Expr::Kind::kColumnRef) {
    const ColumnSpec& spec = plan.query.relations[e.bound_rel]
                                 .table->schema()
                                 .column(e.bound_col);
    switch (spec.type) {
      case ValueType::kString:
        info.kind = DimKind::kStringCode;
        info.dict =
            plan.query.relations[e.bound_rel].table->column(e.bound_col).dict;
        return info;
      case ValueType::kDate:
        info.kind = DimKind::kDate;
        return info;
      case ValueType::kInt32:
      case ValueType::kInt64:
        info.kind = DimKind::kInt;
        return info;
      default:
        info.kind = DimKind::kReal;
        return info;
    }
  }
  if (e.kind == Expr::Kind::kExtractYear) {
    info.kind = DimKind::kInt;
    return info;
  }
  info.kind = DimKind::kReal;
  return info;
}

GroupAccum::GroupAccum(size_t key_width, const std::vector<AggExec>* aggs)
    : key_width_(key_width),
      stride_(2 * std::max<size_t>(1, aggs->size())),
      aggs_(aggs) {}

double* GroupAccum::FindOrCreate(const uint64_t* key) {
  return acc_mut(FindOrCreateOrdinal(key));
}

uint32_t GroupAccum::FindOrCreateOrdinal(const uint64_t* key) {
  scratch_key_.assign(key, key + key_width_);
  auto [it, inserted] =
      index_.try_emplace(scratch_key_, static_cast<uint32_t>(num_groups()));
  if (inserted) AppendGroup(key);
  return it->second;
}

double* GroupAccum::AppendOrLast(const uint64_t* key) {
  const size_t n = num_groups();
  if (n > 0 && std::memcmp(keys_.data() + (n - 1) * key_width_, key,
                           key_width_ * sizeof(uint64_t)) == 0) {
    return accs_.data() + (n - 1) * stride_;
  }
  AppendGroup(key);
  return accs_.data() + (num_groups() - 1) * stride_;
}

double* GroupAccum::ScalarGroup() {
  if (scalar_groups_ == 0) AppendGroup(nullptr);
  return accs_.data();
}

void GroupAccum::Apply(double* acc, const double* main_delta,
                       const double* aux_delta) const {
  for (size_t i = 0; i < aggs_->size(); ++i) {
    switch ((*aggs_)[i].func) {
      case AggFunc::kMin:
        acc[2 * i] = std::min(acc[2 * i], main_delta[i]);
        break;
      case AggFunc::kMax:
        acc[2 * i] = std::max(acc[2 * i], main_delta[i]);
        break;
      default:
        acc[2 * i] += main_delta[i];
        acc[2 * i + 1] += aux_delta[i];
        break;
    }
  }
}

double GroupAccum::Finalize(size_t g, size_t slot) const {
  const double* a = accs(g);
  if ((*aggs_)[slot].func == AggFunc::kAvg) {
    return a[2 * slot + 1] == 0 ? 0 : a[2 * slot] / a[2 * slot + 1];
  }
  return a[2 * slot];
}

void GroupAccum::MergeFrom(const GroupAccum& other) {
  for (size_t g = 0; g < other.num_groups(); ++g) {
    double* acc = key_width_ == 0 ? ScalarGroup() : FindOrCreate(other.key(g));
    CombineInto(acc, other.accs(g));
  }
}

void GroupAccum::ConcatFrom(const GroupAccum& other) {
  size_t start = 0;
  if (num_groups() > 0 && other.num_groups() > 0 &&
      std::memcmp(key(num_groups() - 1), other.key(0),
                  key_width_ * sizeof(uint64_t)) == 0) {
    CombineInto(accs_.data() + (num_groups() - 1) * stride_, other.accs(0));
    start = 1;
  }
  if (key_width_ == 0) scalar_groups_ += other.num_groups() - start;
  keys_.insert(keys_.end(), other.keys_.begin() + start * key_width_,
               other.keys_.end());
  accs_.insert(accs_.end(), other.accs_.begin() + start * stride_,
               other.accs_.end());
}

void GroupAccum::ResolveBoundaryGroups(
    const std::vector<std::unique_ptr<GroupAccum>>& parts) {
  GroupAccum* prev = nullptr;
  for (const auto& part : parts) {
    GroupAccum* next = part.get();
    if (next->num_groups() == 0) continue;
    LH_DCHECK(next->key_width_ > 0 && next->index_.empty());
    const size_t n = prev == nullptr ? 0 : prev->num_groups();
    if (n > 0 && std::memcmp(prev->key(n - 1), next->key(0),
                             prev->key_width_ * sizeof(uint64_t)) == 0) {
      double* last = prev->acc_mut(n - 1);
      prev->CombineInto(last, next->accs(0));
      std::memcpy(next->acc_mut(0), last, prev->stride_ * sizeof(double));
      prev->keys_.resize(prev->keys_.size() - prev->key_width_);
      prev->accs_.resize(prev->accs_.size() - prev->stride_);
    }
    prev = next;
  }
}

void GroupAccum::CombineInto(double* acc, const double* oa) const {
  for (size_t i = 0; i < aggs_->size(); ++i) {
    switch ((*aggs_)[i].func) {
      case AggFunc::kMin:
        acc[2 * i] = std::min(acc[2 * i], oa[2 * i]);
        break;
      case AggFunc::kMax:
        acc[2 * i] = std::max(acc[2 * i], oa[2 * i]);
        break;
      default:
        acc[2 * i] += oa[2 * i];
        acc[2 * i + 1] += oa[2 * i + 1];
        break;
    }
  }
}

void GroupAccum::AppendGroup(const uint64_t* key) {
  if (key_width_ > 0) {
    keys_.insert(keys_.end(), key, key + key_width_);
  } else {
    ++scalar_groups_;
  }
  const size_t base = accs_.size();
  accs_.resize(base + stride_, 0.0);
  for (size_t i = 0; i < aggs_->size(); ++i) {
    if ((*aggs_)[i].func == AggFunc::kMin) {
      accs_[base + 2 * i] = std::numeric_limits<double>::infinity();
    } else if ((*aggs_)[i].func == AggFunc::kMax) {
      accs_[base + 2 * i] = -std::numeric_limits<double>::infinity();
    }
  }
}

namespace {
/// Resolves `e` to a string when it is a string literal or a string-valued
/// group dimension of group `g`.
bool GroupStringOf(const Expr& e, const PhysicalPlan& plan,
                   const GroupAccum& groups,
                   const std::vector<DimInfo>& dim_infos, size_t g,
                   std::string* out) {
  if (e.kind == Expr::Kind::kStringLiteral) {
    *out = e.str_value;
    return true;
  }
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    if (!ExprEquals(e, *plan.dims[d].expr)) continue;
    const DimInfo& info = dim_infos[d];
    const bool stringy =
        info.kind == DimKind::kStringCode ||
        (info.kind == DimKind::kKeyVertex && info.dict != nullptr &&
         info.dict->type() == ValueType::kString);
    if (!stringy) return false;
    *out = info.dict->DecodeString(static_cast<uint32_t>(groups.key(g)[d]));
    return true;
  }
  return false;
}
}  // namespace

double EvalOutputExpr(const Expr& e, const PhysicalPlan& plan,
                      const GroupAccum& groups,
                      const std::vector<DimInfo>& dim_infos, size_t g) {
  for (size_t d = 0; d < plan.dims.size(); ++d) {
    if (ExprEquals(e, *plan.dims[d].expr)) {
      const uint64_t enc = groups.key(g)[d];
      switch (dim_infos[d].kind) {
        case DimKind::kKeyVertex:
          return static_cast<double>(
              dim_infos[d].dict->DecodeInt(static_cast<uint32_t>(enc)));
        case DimKind::kStringCode:
          LH_CHECK(false) << "string dimension used in arithmetic";
          return 0;
        case DimKind::kInt:
        case DimKind::kDate:
          return static_cast<double>(static_cast<int64_t>(enc));
        case DimKind::kReal:
          return UnbitcastDouble(enc);
      }
    }
  }
  switch (e.kind) {
    case Expr::Kind::kAggRef:
      return groups.Finalize(g, e.slot_index);
    case Expr::Kind::kIntLiteral:
    case Expr::Kind::kDateLiteral:
    case Expr::Kind::kIntervalLiteral:
      return static_cast<double>(e.int_value);
    case Expr::Kind::kRealLiteral:
      return e.real_value;
    case Expr::Kind::kUnaryMinus:
      return -EvalOutputExpr(*e.children[0], plan, groups, dim_infos, g);
    case Expr::Kind::kNot:
      return EvalOutputExpr(*e.children[0], plan, groups, dim_infos, g) != 0
                 ? 0
                 : 1;
    case Expr::Kind::kBetween: {
      const double v =
          EvalOutputExpr(*e.children[0], plan, groups, dim_infos, g);
      return v >= EvalOutputExpr(*e.children[1], plan, groups, dim_infos,
                                 g) &&
                     v <= EvalOutputExpr(*e.children[2], plan, groups,
                                         dim_infos, g)
                 ? 1
                 : 0;
    }
    case Expr::Kind::kBinary: {
      // String comparisons: a string group dimension against a literal.
      if (e.bin_op == BinOp::kEq || e.bin_op == BinOp::kNe) {
        std::string ls, rs;
        if (GroupStringOf(*e.children[0], plan, groups, dim_infos, g, &ls) &&
            GroupStringOf(*e.children[1], plan, groups, dim_infos, g, &rs)) {
          const bool eq = ls == rs;
          return (e.bin_op == BinOp::kEq) == eq ? 1 : 0;
        }
      }
      const double l =
          EvalOutputExpr(*e.children[0], plan, groups, dim_infos, g);
      const double r =
          EvalOutputExpr(*e.children[1], plan, groups, dim_infos, g);
      switch (e.bin_op) {
        case BinOp::kAdd:
          return l + r;
        case BinOp::kSub:
          return l - r;
        case BinOp::kMul:
          return l * r;
        case BinOp::kDiv:
          return l / r;
        case BinOp::kEq:
          return l == r ? 1 : 0;
        case BinOp::kNe:
          return l != r ? 1 : 0;
        case BinOp::kLt:
          return l < r ? 1 : 0;
        case BinOp::kLe:
          return l <= r ? 1 : 0;
        case BinOp::kGt:
          return l > r ? 1 : 0;
        case BinOp::kGe:
          return l >= r ? 1 : 0;
        case BinOp::kAnd:
          return (l != 0 && r != 0) ? 1 : 0;
        case BinOp::kOr:
          return (l != 0 || r != 0) ? 1 : 0;
      }
      LH_CHECK(false) << "unsupported output operator";
      return 0;
    }
    default:
      LH_CHECK(false) << "unsupported output expression " << e.ToString();
      return 0;
  }
}

bool EvalHaving(const Expr& e, const PhysicalPlan& plan,
                const GroupAccum& groups,
                const std::vector<DimInfo>& dim_infos, size_t g) {
  return EvalOutputExpr(e, plan, groups, dim_infos, g) != 0;
}

namespace {

/// How one output column is decoded from a group.
enum class ColumnFill : uint8_t {
  kCode,        // dictionary code of a string dimension, kept encoded
  kString,      // string dimension, decoded
  kDecodedInt,  // integer-domain key vertex, decoded through its dictionary
  kRawInt,      // kInt / kDate dimension stored as is
  kRealKey,     // bit-cast double dimension
  kAgg,         // finalized aggregate slot
  kExpr,        // post-aggregation expression
};

ColumnFill FillOf(const OutputItem& out, const PhysicalPlan& plan,
                  const std::vector<DimInfo>& dim_infos) {
  if (out.direct_group_index < 0) {
    return out.direct_agg_slot >= 0 ? ColumnFill::kAgg : ColumnFill::kExpr;
  }
  const DimInfo& info = dim_infos[out.direct_group_index];
  switch (info.kind) {
    case DimKind::kKeyVertex:
      if (info.dict->type() != ValueType::kString) {
        return ColumnFill::kDecodedInt;
      }
      [[fallthrough]];
    case DimKind::kStringCode:
      return plan.options.keep_strings_encoded ? ColumnFill::kCode
                                               : ColumnFill::kString;
    case DimKind::kInt:
    case DimKind::kDate:
      return ColumnFill::kRawInt;
    case DimKind::kReal:
      return ColumnFill::kRealKey;
  }
  return ColumnFill::kExpr;
}

/// Groups per materialization slice. Results of at most one slice decode
/// inline on the calling thread.
constexpr size_t kMaterializeGrain = 16384;

/// The groups of `parts` read as one concatenated sequence: global group
/// i lives in the part p with starts[p] <= i < starts[p + 1].
struct GroupSequence {
  const std::vector<const GroupAccum*>& parts;
  std::vector<size_t> starts;

  explicit GroupSequence(const std::vector<const GroupAccum*>& p)
      : parts(p), starts(p.size() + 1, 0) {
    for (size_t i = 0; i < p.size(); ++i) {
      starts[i + 1] = starts[i] + p[i]->num_groups();
    }
  }
  size_t size() const { return starts.back(); }

  /// Calls fn(groups, local_index, global_index) for global groups
  /// [lo, hi) in order.
  template <typename Fn>
  void ForEach(size_t lo, size_t hi, Fn&& fn) const {
    size_t p = static_cast<size_t>(
        std::upper_bound(starts.begin(), starts.end(), lo) - starts.begin() -
        1);
    for (size_t i = lo; i < hi;) {
      while (i >= starts[p + 1]) ++p;  // skips empty parts
      const size_t end = std::min(hi, starts[p + 1]);
      for (; i < end; ++i) fn(*parts[p], i - starts[p], i);
    }
  }
};

}  // namespace

QueryResult MaterializeGroups(const PhysicalPlan& plan,
                              const std::vector<const GroupAccum*>& parts,
                              const std::vector<DimInfo>& dim_infos) {
  const GroupSequence seq(parts);
  const size_t total = seq.size();
  const int64_t num_slices = static_cast<int64_t>(
      (total + kMaterializeGrain - 1) / kMaterializeGrain);
  auto slice_lo = [&](int64_t s) {
    return static_cast<size_t>(s) * kMaterializeGrain;
  };
  auto slice_hi = [&](int64_t s) {
    return std::min(total, static_cast<size_t>(s + 1) * kMaterializeGrain);
  };
  ThreadPool& pool = ThreadPool::Global();

  // HAVING: mark surviving groups and count them per slice; the prefix sum
  // of the counts is each slice's first output row.
  std::vector<uint8_t> keep;
  std::vector<size_t> out_start(num_slices + 1, 0);
  if (plan.query.having != nullptr) {
    keep.resize(total);
    pool.ParallelChunks(0, num_slices, 1, [&](int, int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        size_t kept = 0;
        seq.ForEach(slice_lo(s), slice_hi(s),
                    [&](const GroupAccum& groups, size_t g, size_t i) {
                      keep[i] = EvalHaving(*plan.query.having, plan, groups,
                                           dim_infos, g);
                      kept += keep[i];
                    });
        out_start[s + 1] = kept;
      }
    });
  } else {
    for (int64_t s = 0; s < num_slices; ++s) {
      out_start[s + 1] = slice_hi(s) - slice_lo(s);
    }
  }
  for (int64_t s = 0; s < num_slices; ++s) out_start[s + 1] += out_start[s];
  const size_t n = out_start.back();

  QueryResult result;
  result.num_rows = n;
  std::vector<ColumnFill> fills;
  for (const OutputItem& out : plan.query.outputs) {
    const ColumnFill fill = FillOf(out, plan, dim_infos);
    fills.push_back(fill);
    ResultColumn col;
    col.name = out.name;
    switch (fill) {
      case ColumnFill::kCode:
        col.type = ValueType::kString;
        col.dict = dim_infos[out.direct_group_index].dict;
        col.codes.resize(n);
        break;
      case ColumnFill::kString:
        col.type = ValueType::kString;
        col.strs.resize(n);
        break;
      case ColumnFill::kDecodedInt:
        col.type = ValueType::kInt64;
        col.ints.resize(n);
        break;
      case ColumnFill::kRawInt:
        col.type = dim_infos[out.direct_group_index].kind == DimKind::kDate
                       ? ValueType::kDate
                       : ValueType::kInt64;
        col.ints.resize(n);
        break;
      case ColumnFill::kRealKey:
      case ColumnFill::kAgg:
      case ColumnFill::kExpr:
        col.type = ValueType::kDouble;
        col.reals.resize(n);
        break;
    }
    result.columns.push_back(std::move(col));
  }
  if (n == 0) return result;

  // Each slice writes its surviving groups to its own row range.
  pool.ParallelChunks(0, num_slices, 1, [&](int, int64_t lo, int64_t hi) {
    for (int64_t s = lo; s < hi; ++s) {
      for (size_t c = 0; c < fills.size(); ++c) {
        const OutputItem& out = plan.query.outputs[c];
        ResultColumn& col = result.columns[c];
        size_t row = out_start[s];
        auto fill = [&](auto&& cell) {
          seq.ForEach(slice_lo(s), slice_hi(s),
                      [&](const GroupAccum& groups, size_t g, size_t i) {
                        if (keep.empty() || keep[i]) cell(row++, groups, g);
                      });
        };
        const size_t d = static_cast<size_t>(out.direct_group_index);
        switch (fills[c]) {
          case ColumnFill::kCode:
            fill([&](size_t r, const GroupAccum& groups, size_t g) {
              col.codes[r] = static_cast<uint32_t>(groups.key(g)[d]);
            });
            break;
          case ColumnFill::kString:
            fill([&](size_t r, const GroupAccum& groups, size_t g) {
              col.strs[r] = dim_infos[d].dict->DecodeString(
                  static_cast<uint32_t>(groups.key(g)[d]));
            });
            break;
          case ColumnFill::kDecodedInt:
            fill([&](size_t r, const GroupAccum& groups, size_t g) {
              col.ints[r] = dim_infos[d].dict->DecodeInt(
                  static_cast<uint32_t>(groups.key(g)[d]));
            });
            break;
          case ColumnFill::kRawInt:
            fill([&](size_t r, const GroupAccum& groups, size_t g) {
              col.ints[r] = static_cast<int64_t>(groups.key(g)[d]);
            });
            break;
          case ColumnFill::kRealKey:
            fill([&](size_t r, const GroupAccum& groups, size_t g) {
              col.reals[r] = UnbitcastDouble(groups.key(g)[d]);
            });
            break;
          case ColumnFill::kAgg:
            fill([&](size_t r, const GroupAccum& groups, size_t g) {
              col.reals[r] = groups.Finalize(g, out.direct_agg_slot);
            });
            break;
          case ColumnFill::kExpr:
            fill([&](size_t r, const GroupAccum& groups, size_t g) {
              col.reals[r] =
                  EvalOutputExpr(*out.expr, plan, groups, dim_infos, g);
            });
            break;
        }
      }
    }
  });
  return result;
}

void ApplyOrderAndLimit(const LogicalQuery& query, QueryResult* result) {
  if (!query.order_by.empty() && result->num_rows > 1) {
    std::vector<size_t> order(result->num_rows);
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (const auto& [col_idx, desc] : query.order_by) {
        const ResultColumn& c = result->columns[col_idx];
        int cmp = 0;
        if (!c.ints.empty()) {
          cmp = c.ints[a] < c.ints[b] ? -1 : (c.ints[a] > c.ints[b] ? 1 : 0);
        } else if (!c.reals.empty()) {
          cmp = c.reals[a] < c.reals[b] ? -1
                                        : (c.reals[a] > c.reals[b] ? 1 : 0);
        } else if (!c.strs.empty()) {
          const int sc = c.strs[a].compare(c.strs[b]);
          cmp = sc < 0 ? -1 : (sc > 0 ? 1 : 0);
        } else if (!c.codes.empty()) {
          // Order-preserving dictionary codes sort like their strings.
          cmp = c.codes[a] < c.codes[b] ? -1
                                        : (c.codes[a] > c.codes[b] ? 1 : 0);
        }
        if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
      }
      return false;
    });
    for (ResultColumn& c : result->columns) {
      auto permute = [&](auto& vec) {
        if (vec.empty()) return;
        std::remove_reference_t<decltype(vec)> tmp(vec.size());
        for (size_t i = 0; i < order.size(); ++i) tmp[i] = vec[order[i]];
        vec = std::move(tmp);
      };
      permute(c.ints);
      permute(c.reals);
      permute(c.strs);
      permute(c.codes);
    }
  }
  if (query.limit >= 0 &&
      result->num_rows > static_cast<size_t>(query.limit)) {
    const size_t keep = static_cast<size_t>(query.limit);
    for (ResultColumn& c : result->columns) {
      if (!c.ints.empty()) c.ints.resize(keep);
      if (!c.reals.empty()) c.reals.resize(keep);
      if (!c.strs.empty()) c.strs.resize(keep);
      if (!c.codes.empty()) c.codes.resize(keep);
    }
    result->num_rows = keep;
  }
}

}  // namespace levelheaded
