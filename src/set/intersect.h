// Set-intersection kernels — the bottleneck operator of the generic WCOJ
// algorithm (§III-C) and the microbenchmark subject of Figure 5a.
//
// Layout dispatch:
//   uint ∩ uint   -> merge with galloping (output uint)
//   uint ∩ bitset -> probe each uint value into the bitmap (output uint)
//   bitset∩bitset -> 64-way word AND (output bitset)

#ifndef LEVELHEADED_SET_INTERSECT_H_
#define LEVELHEADED_SET_INTERSECT_H_

#include <cstdint>
#include <vector>

#include "set/set.h"

namespace levelheaded {

/// Reusable owning buffer for intersection results. The executor keeps one
/// ScratchSet per (depth, relation-pair) and re-fills it every iteration, so
/// steady-state execution performs no allocation.
class ScratchSet {
 public:
  const SetView& view() const { return view_; }

  /// Adopts an existing view without copying (used when an input passes
  /// through unchanged).
  void Alias(const SetView& v) { view_ = v; }

  /// Makes this scratch an empty uint set.
  void Clear() {
    view_ = SetView{};
  }

  /// Fills from sorted unique values with the given layout.
  void AssignSorted(const uint32_t* values, uint32_t n);

  /// Three extra lanes past the requested capacity of every uint buffer.
  /// The SIMD uint∩uint kernel flushes matches with an unconditional 16-byte
  /// (4-lane) vector store at the current output cursor; when <= cap results
  /// remain the cursor can sit at cap-1, so the store may touch up to 3 lanes
  /// past cap. The slack keeps that tail store in bounds without a branch in
  /// the kernel's inner loop.
  static constexpr uint32_t kSimdTailSlack = 3;

  /// Exposes a value buffer of capacity `cap` (plus kSimdTailSlack lanes of
  /// writable scratch past the end) for a kernel to fill, then finalizes
  /// cardinality `n` (uint layout).
  uint32_t* PrepareUint(uint32_t cap) {
    if (values_.size() < cap + kSimdTailSlack) {
      values_.resize(cap + kSimdTailSlack);
    }
    return values_.data();
  }
  void FinishUint(uint32_t n) {
    view_ = SetView{};
    view_.layout = SetLayout::kUint;
    view_.cardinality = n;
    view_.values = values_.data();
  }

  /// Buffers for a bitset result spanning `num_words` words.
  uint64_t* PrepareBitsetWords(uint32_t num_words) {
    if (words_.size() < num_words) words_.resize(num_words);
    return words_.data();
  }
  uint32_t* PrepareBitsetRanks(uint32_t num_words) {
    if (word_ranks_.size() < num_words) word_ranks_.resize(num_words);
    return word_ranks_.data();
  }
  void FinishBitset(uint32_t cardinality, uint32_t word_base,
                    uint32_t num_words) {
    view_ = SetView{};
    view_.layout = SetLayout::kBitset;
    view_.cardinality = cardinality;
    view_.words = words_.data();
    view_.word_ranks = word_ranks_.data();
    view_.word_base = word_base;
    view_.num_words = num_words;
  }

 private:
  std::vector<uint32_t> values_;
  std::vector<uint64_t> words_;
  std::vector<uint32_t> word_ranks_;
  SetView view_;
};

/// a ∩ b into `out` (layout chosen by the input layouts). Neither input may
/// alias `out`'s own buffers; iterated N-way intersections must ping-pong
/// between two ScratchSets.
void Intersect(const SetView& a, const SetView& b, ScratchSet* out);

/// Cardinality of a ∩ b without materializing the result.
uint32_t IntersectCount(const SetView& a, const SetView& b);

/// a ∩ b with per-input ranks: fills `vals` with the common values and
/// `rank_a`/`rank_b` with each value's rank in a and b. All three buffers
/// need capacity min(|a|,|b|). Returns the result cardinality. This is what
/// generated WCOJ code produces in one pass at the deepest attribute — the
/// ranks address child sets and annotation buffers without re-searching.
uint32_t IntersectRanked(const SetView& a, const SetView& b, uint32_t* vals,
                         uint32_t* rank_a, uint32_t* rank_b);

/// Σ wa[rank_a(v)] * wb[rank_b(v)] over v ∈ a ∩ b: the intersection fused
/// with the multiply-sum over its ranks, in one pass with no value or rank
/// buffers (Figure 4's innermost loop). The sum starts at 0 and adds the
/// products in ascending v, so it is bit-identical to IntersectRanked
/// followed by an ascending gather. Writes |a ∩ b| to `*count`.
double IntersectDot(const SetView& a, const SetView& b, const double* wa,
                    const double* wb, uint32_t* count);

/// Sorted union of two sets' values (used by tests and 1-attribute unions).
std::vector<uint32_t> UnionValues(const SetView& a, const SetView& b);

namespace set_internal {
/// uint∩uint merge/galloping/SIMD kernel; returns output cardinality. `out`
/// must have capacity min(|a|,|b|) + ScratchSet::kSimdTailSlack: the SIMD
/// path's unconditional 4-lane tail store may scribble up to 3 lanes past
/// the last result. ScratchSet::PrepareUint provides the slack.
uint32_t IntersectUintUint(const uint32_t* a, uint32_t na, const uint32_t* b,
                           uint32_t nb, uint32_t* out);

/// Count-only twin of IntersectUintUint: same merge/galloping dispatch, no
/// output buffer, no allocation.
uint32_t IntersectUintUintCount(const uint32_t* a, uint32_t na,
                                const uint32_t* b, uint32_t nb);

/// Galloping search: first index in [lo, n) with a[idx] >= key. Exposed for
/// boundary tests (the doubling probe must not wrap near 2^31).
uint32_t GallopLowerBound(const uint32_t* a, uint32_t n, uint32_t lo,
                          uint32_t key);
}  // namespace set_internal

}  // namespace levelheaded

#endif  // LEVELHEADED_SET_INTERSECT_H_
