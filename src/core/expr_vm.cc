#include "core/expr_vm.h"

#include <functional>
#include <utility>

#include "obs/stats.h"
#include "util/date.h"
#include "util/like_matcher.h"
#include "util/logging.h"

namespace levelheaded {

namespace {

bool IsStringColumn(const Table& table, const Expr& e) {
  if (e.kind != Expr::Kind::kColumnRef) return false;
  const ColumnData& c = table.column(e.bound_col);
  return c.dict != nullptr && c.dict->type() == ValueType::kString;
}

bool IsStringOperand(const Table& table, const Expr& e) {
  return e.kind == Expr::Kind::kStringLiteral || IsStringColumn(table, e);
}

}  // namespace

bool ExprProgram::Compile(const Expr& e, const Table& table,
                          ExprProgram* out) {
  out->instrs_.clear();
  out->bitmaps_.clear();
  const bool ok = out->CompileNode(e, table) && out->CheckStack();
  if (!ok) {
    out->instrs_.clear();
    out->bitmaps_.clear();
  }
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    if (ok) {
      stats->CountExprProgram();
    } else {
      stats->CountExprFallback();
    }
  }
  return ok;
}

bool ExprProgram::CompileNode(const Expr& e, const Table& table) {
  if (instrs_.size() > kMaxInstrs) return false;
  switch (e.kind) {
    case Expr::Kind::kIntLiteral:
    case Expr::Kind::kDateLiteral:
    case Expr::Kind::kIntervalLiteral: {
      Instr in;
      in.op = Op::kConst;
      in.imm = static_cast<double>(e.int_value);
      instrs_.push_back(in);
      return true;
    }
    case Expr::Kind::kRealLiteral: {
      Instr in;
      in.op = Op::kConst;
      in.imm = e.real_value;
      instrs_.push_back(in);
      return true;
    }
    case Expr::Kind::kColumnRef: {
      if (IsStringColumn(table, e)) return false;  // strings: only via kCodeEq
      const ColumnData& c = table.column(e.bound_col);
      Instr in;
      if (!c.ints.empty()) {
        in.op = Op::kLoadInt;
        in.ints = c.ints.data();
      } else if (!c.reals.empty()) {
        in.op = Op::kLoadReal;
        in.reals = c.reals.data();
      } else if (!c.codes.empty()) {
        in.op = Op::kLoadCode;
        in.codes = c.codes.data();
      } else {
        return false;  // unfinalized or empty column storage
      }
      instrs_.push_back(in);
      return true;
    }
    case Expr::Kind::kUnaryMinus:
      if (!CompileNode(*e.children[0], table)) return false;
      instrs_.push_back({Op::kNeg});
      return true;
    case Expr::Kind::kNot:
      if (!CompileNode(*e.children[0], table)) return false;
      instrs_.push_back({Op::kNot});
      return true;
    case Expr::Kind::kExtractYear:
      if (!CompileNode(*e.children[0], table)) return false;
      instrs_.push_back({Op::kYear});
      return true;
    case Expr::Kind::kBetween:
      for (int i = 0; i < 3; ++i) {
        if (IsStringOperand(table, *e.children[i])) return false;
        if (!CompileNode(*e.children[i], table)) return false;
      }
      instrs_.push_back({Op::kBetween});
      return true;
    case Expr::Kind::kLike: {
      const Expr& arg = *e.children[0];
      if (arg.kind != Expr::Kind::kColumnRef || !IsStringColumn(table, arg)) {
        return false;
      }
      const ColumnData& c = table.column(arg.bound_col);
      // One bitmap per LIKE site, built from the binder's precompiled
      // matcher (RowFilter::Compile uses the identical construction).
      const LikeMatcher local(e.compiled_like == nullptr ? e.str_value : "");
      const LikeMatcher& matcher =
          e.compiled_like != nullptr ? *e.compiled_like : local;
      std::vector<uint8_t> bitmap(c.dict->size());
      for (uint32_t code = 0; code < c.dict->size(); ++code) {
        bitmap[code] = matcher.Matches(c.dict->DecodeString(code)) ? 1 : 0;
      }
      Instr in;
      in.op = Op::kDictBitmap;
      in.bitmap = static_cast<int>(bitmaps_.size());
      in.codes = c.codes.data();
      instrs_.push_back(in);
      bitmaps_.push_back(std::move(bitmap));
      return true;
    }
    case Expr::Kind::kCase: {
      const size_t pairs = e.children.size() / 2;
      // Nested selects: cond0, then0, (cond1, then1, (..., else)), kSelect.
      // All branches are evaluated; selection matches first-true-condition
      // order, so the value equals the tree walker's.
      std::function<bool(size_t)> emit = [&](size_t i) -> bool {
        if (i == pairs) {
          if (e.case_has_else) return CompileNode(*e.children.back(), table);
          Instr zero;
          zero.op = Op::kConst;
          zero.imm = 0.0;
          instrs_.push_back(zero);
          return true;
        }
        if (!CompileNode(*e.children[2 * i], table)) return false;
        if (!CompileNode(*e.children[2 * i + 1], table)) return false;
        if (!emit(i + 1)) return false;
        instrs_.push_back({Op::kSelect});
        return true;
      };
      return emit(0);
    }
    case Expr::Kind::kBinary: {
      const bool is_cmp =
          e.bin_op == BinOp::kEq || e.bin_op == BinOp::kNe ||
          e.bin_op == BinOp::kLt || e.bin_op == BinOp::kLe ||
          e.bin_op == BinOp::kGt || e.bin_op == BinOp::kGe;
      const Expr* l = e.children[0].get();
      const Expr* r = e.children[1].get();
      if (is_cmp &&
          (IsStringOperand(table, *l) || IsStringOperand(table, *r))) {
        // String semantics compile only as <string col> =/<> <literal>
        // (dictionary-code equality); lexicographic orderings and
        // column-vs-column compares stay on the tree walker.
        if (e.bin_op != BinOp::kEq && e.bin_op != BinOp::kNe) return false;
        const Expr* col = l;
        const Expr* lit = r;
        if (col->kind != Expr::Kind::kColumnRef) std::swap(col, lit);
        if (!IsStringColumn(table, *col) ||
            lit->kind != Expr::Kind::kStringLiteral) {
          return false;
        }
        const ColumnData& c = table.column(col->bound_col);
        const int64_t code = c.dict->TryEncodeString(lit->str_value);
        Instr in;
        in.op = Op::kCodeEq;
        in.codes = c.codes.data();
        // Absent literal: a sentinel no row's code can equal.
        in.imm_code = code < 0 ? 0xFFFFFFFFu : static_cast<uint32_t>(code);
        instrs_.push_back(in);
        if (e.bin_op == BinOp::kNe) instrs_.push_back({Op::kNot});
        return true;
      }
      if (!CompileNode(*l, table)) return false;
      if (!CompileNode(*r, table)) return false;
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
        case BinOp::kEq:
          in.op = Op::kCmpEq;
          break;
        case BinOp::kNe:
          in.op = Op::kCmpNe;
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
      return false;  // kStar, kAggregate, kAggRef, kStringLiteral alone
  }
}

bool ExprProgram::CheckStack() const {
  int depth = 0;
  for (const Instr& in : instrs_) {
    int pops = -1;  // stays -1 for an op no case names: fail closed
    switch (in.op) {
      case Op::kConst:
      case Op::kLoadInt:
      case Op::kLoadReal:
      case Op::kLoadCode:
      case Op::kCodeEq:
      case Op::kDictBitmap:
        pops = 0;
        break;
      case Op::kNeg:
      case Op::kNot:
      case Op::kYear:
        pops = 1;
        break;
      case Op::kSelect:
      case Op::kBetween:
        pops = 3;
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kCmpEq:
      case Op::kCmpNe:
      case Op::kCmpLt:
      case Op::kCmpLe:
      case Op::kCmpGt:
      case Op::kCmpGe:
      case Op::kAnd:
      case Op::kOr:
        pops = 2;
        break;
    }
    if (pops < 0 || depth < pops) return false;
    depth += 1 - pops;
    if (depth > kMaxStack) return false;
  }
  return depth == 1;
}

// The numeric comparisons reproduce the tree walker's three-way compare
// (`lv < rv ? -1 : (lv > rv ? 1 : 0)` then CompareOp): with a NaN operand
// both strict compares are false, so the walker's cmp is 0 and kEq/kLe/kGe
// come out true. Hence kCmpEq is !(a<b) && !(a>b), not a == b.
template <bool kGather>
void ExprProgram::Run(const uint32_t* rows, uint32_t first, int n,
                      double* out) const {
  LH_DCHECK(n <= kBatch);
  double st[kMaxStack][kBatch];
  int top = -1;
  const auto row_at = [&](int i) -> uint32_t {
    return kGather ? rows[i] : first + static_cast<uint32_t>(i);
  };
  for (const Instr& in : instrs_) {
    switch (in.op) {
      case Op::kConst: {
        double* d = st[++top];
        for (int i = 0; i < n; ++i) d[i] = in.imm;
        break;
      }
      case Op::kLoadInt: {
        double* d = st[++top];
        for (int i = 0; i < n; ++i) {
          d[i] = static_cast<double>(in.ints[row_at(i)]);
        }
        break;
      }
      case Op::kLoadReal: {
        double* d = st[++top];
        for (int i = 0; i < n; ++i) d[i] = in.reals[row_at(i)];
        break;
      }
      case Op::kLoadCode: {
        double* d = st[++top];
        for (int i = 0; i < n; ++i) {
          d[i] = static_cast<double>(in.codes[row_at(i)]);
        }
        break;
      }
      case Op::kCodeEq: {
        double* d = st[++top];
        for (int i = 0; i < n; ++i) {
          d[i] = in.codes[row_at(i)] == in.imm_code ? 1.0 : 0.0;
        }
        break;
      }
      case Op::kDictBitmap: {
        double* d = st[++top];
        const uint8_t* bitmap = bitmaps_[in.bitmap].data();
        for (int i = 0; i < n; ++i) {
          d[i] = bitmap[in.codes[row_at(i)]] ? 1.0 : 0.0;
        }
        break;
      }
      case Op::kNeg: {
        double* d = st[top];
        for (int i = 0; i < n; ++i) d[i] = -d[i];
        break;
      }
      case Op::kNot: {
        double* d = st[top];
        for (int i = 0; i < n; ++i) d[i] = d[i] != 0 ? 0.0 : 1.0;
        break;
      }
      case Op::kYear: {
        double* d = st[top];
        for (int i = 0; i < n; ++i) {
          d[i] = static_cast<double>(YearOfDays(static_cast<int32_t>(d[i])));
        }
        break;
      }
      case Op::kAdd: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) a[i] += b[i];
        break;
      }
      case Op::kSub: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) a[i] -= b[i];
        break;
      }
      case Op::kMul: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) a[i] *= b[i];
        break;
      }
      case Op::kDiv: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) a[i] /= b[i];
        break;
      }
      case Op::kCmpEq: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) {
          a[i] = !(a[i] < b[i]) && !(a[i] > b[i]) ? 1.0 : 0.0;
        }
        break;
      }
      case Op::kCmpNe: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) {
          a[i] = a[i] < b[i] || a[i] > b[i] ? 1.0 : 0.0;
        }
        break;
      }
      case Op::kCmpLt: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) a[i] = a[i] < b[i] ? 1.0 : 0.0;
        break;
      }
      case Op::kCmpLe: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) a[i] = !(a[i] > b[i]) ? 1.0 : 0.0;
        break;
      }
      case Op::kCmpGt: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) a[i] = a[i] > b[i] ? 1.0 : 0.0;
        break;
      }
      case Op::kCmpGe: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) a[i] = !(a[i] < b[i]) ? 1.0 : 0.0;
        break;
      }
      case Op::kAnd: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) {
          a[i] = a[i] != 0 && b[i] != 0 ? 1.0 : 0.0;
        }
        break;
      }
      case Op::kOr: {
        const double* b = st[top--];
        double* a = st[top];
        for (int i = 0; i < n; ++i) {
          a[i] = a[i] != 0 || b[i] != 0 ? 1.0 : 0.0;
        }
        break;
      }
      case Op::kSelect: {
        const double* els = st[top--];
        const double* thn = st[top--];
        double* cond = st[top];
        for (int i = 0; i < n; ++i) {
          cond[i] = cond[i] != 0 ? thn[i] : els[i];
        }
        break;
      }
      case Op::kBetween: {
        const double* hi = st[top--];
        const double* lo = st[top--];
        double* v = st[top];
        for (int i = 0; i < n; ++i) {
          v[i] = v[i] >= lo[i] && v[i] <= hi[i] ? 1.0 : 0.0;
        }
        break;
      }
    }
  }
  const double* result = st[top];
  for (int i = 0; i < n; ++i) out[i] = result[i];
}

double ExprProgram::EvalRow(uint32_t row) const {
  double out;
  Run</*kGather=*/false>(nullptr, row, 1, &out);
  return out;
}

void ExprProgram::EvalRange(uint32_t first, int n, double* out) const {
  Run</*kGather=*/false>(nullptr, first, n, out);
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountExprVmRows(static_cast<uint64_t>(n));
  }
}

void ExprProgram::EvalGather(const uint32_t* rows, int n, double* out) const {
  Run</*kGather=*/true>(rows, 0, n, out);
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountExprVmRows(static_cast<uint64_t>(n));
  }
}

void ExprProgram::FilterRange(uint32_t first, int n, uint8_t* mask) const {
  double vals[kBatch];
  Run</*kGather=*/false>(nullptr, first, n, vals);
  for (int i = 0; i < n; ++i) mask[i] &= vals[i] != 0 ? 1 : 0;
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountExprVmRows(static_cast<uint64_t>(n));
  }
}

}  // namespace levelheaded
