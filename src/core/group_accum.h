// Shared group-by machinery: group-key encoding/decoding, the accumulation
// table, and output materialization. Used by the WCOJ executor, the scan
// path, and the pairwise baseline engines so that every engine produces
// results through identical aggregation semantics.

#ifndef LEVELHEADED_CORE_GROUP_ACCUM_H_
#define LEVELHEADED_CORE_GROUP_ACCUM_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/plan.h"
#include "core/result.h"
#include "storage/table.h"

namespace levelheaded {

uint64_t BitcastDouble(double d);
double UnbitcastDouble(uint64_t u);

/// How one GROUP BY dimension is encoded into the group key (one uint64
/// word) and decoded into the output.
enum class DimKind : uint8_t {
  kKeyVertex,   // dictionary code of a join vertex
  kStringCode,  // dictionary code of a string annotation column
  kInt,         // integer-valued expression (int/long columns, EXTRACT)
  kDate,        // integer days since epoch
  kReal,        // bit-cast double (generic numeric expressions)
};

struct DimInfo {
  DimKind kind = DimKind::kReal;
  const Dictionary* dict = nullptr;  // decoding for the two code kinds
  int vertex_pos = -1;  // kKeyVertex: position in the node attribute order
};

/// Classifies one dimension. `join_path` selects kKeyVertex treatment for
/// bare key vertices (the caller resolves vertex_pos).
DimInfo ClassifyDim(const GroupDimExec& dim, const PhysicalPlan& plan,
                    const Catalog& catalog, bool join_path);

/// Group keys (fixed-width uint64 words) plus 2 doubles (main, aux) per
/// aggregate slot. Hash mode handles arbitrary key arrival; append mode
/// exploits grouped arrival.
class GroupAccum {
 public:
  GroupAccum(size_t key_width, const std::vector<AggExec>* aggs);

  size_t num_groups() const {
    return key_width_ == 0 ? scalar_groups_ : keys_.size() / key_width_;
  }
  const uint64_t* key(size_t g) const { return keys_.data() + g * key_width_; }
  const double* accs(size_t g) const { return accs_.data() + g * stride_; }

  double* FindOrCreate(const uint64_t* key);
  /// FindOrCreate returning the group's ordinal instead of its acc
  /// pointer. Ordinals are stable across later inserts (acc pointers are
  /// not), so callers may cache them — see the fused scan kernel's dense
  /// group cache (core/expr_kernels.h).
  uint32_t FindOrCreateOrdinal(const uint64_t* key);
  double* AppendOrLast(const uint64_t* key);
  double* ScalarGroup();
  /// Mutable accumulator row of group `g` (invalidated by inserts).
  double* acc_mut(size_t g) { return accs_.data() + g * stride_; }

  /// Applies one row's deltas (per-aggregate semiring op).
  void Apply(double* acc, const double* main_delta,
             const double* aux_delta) const;

  /// Finalized value of aggregate `slot` for group `g` (AVG divides).
  double Finalize(size_t g, size_t slot) const;

  void MergeFrom(const GroupAccum& other);
  /// Concatenates grouped tables arriving in global key order.
  void ConcatFrom(const GroupAccum& other);
  /// Resolves the boundary groups of append-mode tables given in key
  /// order. Serially and in order, a group whose key ends one non-empty
  /// table and starts the next is combined exactly as ConcatFrom would
  /// combine it (earlier part first), stored in the later table and
  /// dropped from the earlier one. Afterwards every group lives in exactly
  /// one table, with the value ConcatFrom into one table gives.
  static void ResolveBoundaryGroups(
      const std::vector<std::unique_ptr<GroupAccum>>& parts);

 private:
  struct U64VecHash {
    size_t operator()(const std::vector<uint64_t>& v) const {
      uint64_t h = 1469598103934665603ULL;
      for (uint64_t w : v) {
        h ^= w;
        h *= 1099511628211ULL;
      }
      return static_cast<size_t>(h);
    }
  };

  void CombineInto(double* acc, const double* oa) const;
  void AppendGroup(const uint64_t* key);

  size_t key_width_;
  size_t stride_;
  const std::vector<AggExec>* aggs_;
  size_t scalar_groups_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<double> accs_;
  std::unordered_map<std::vector<uint64_t>, uint32_t, U64VecHash> index_;
  std::vector<uint64_t> scratch_key_;
};

/// Evaluates a post-aggregation output expression for one group.
double EvalOutputExpr(const Expr& e, const PhysicalPlan& plan,
                      const GroupAccum& groups,
                      const std::vector<DimInfo>& dim_infos, size_t g);

/// Evaluates the HAVING predicate for one group (true = keep).
bool EvalHaving(const Expr& e, const PhysicalPlan& plan,
                const GroupAccum& groups,
                const std::vector<DimInfo>& dim_infos, size_t g);

/// Decodes group tables into the query's output columns, applying the
/// query's HAVING filter when present. `parts` are concatenated in order
/// (one table, or append-mode chunk partials in key order) and must hold
/// disjoint groups. Rows are decoded on the global pool in slices cut by
/// row counts alone; each output cell depends only on its own group, so
/// the result does not depend on the pool width.
QueryResult MaterializeGroups(const PhysicalPlan& plan,
                              const std::vector<const GroupAccum*>& parts,
                              const std::vector<DimInfo>& dim_infos);

/// Applies ORDER BY and LIMIT to a materialized result (all engines share
/// this final step).
void ApplyOrderAndLimit(const LogicalQuery& query, QueryResult* result);

}  // namespace levelheaded

#endif  // LEVELHEADED_CORE_GROUP_ACCUM_H_
