#include "set/intersect.h"

#include "obs/stats.h"
#include "set/simd_intersect.h"

#include <algorithm>

namespace levelheaded {

void ScratchSet::AssignSorted(const uint32_t* values, uint32_t n) {
  uint32_t* dst = PrepareUint(n);
  if (dst != values) std::copy(values, values + n, dst);
  FinishUint(n);
}

namespace set_internal {

// Galloping search: first index in [lo, n) with a[idx] >= key. The probe
// bound is tracked in 64 bits: with `lo` near n ~ 2^31, doubling a uint32_t
// `step` makes `hi += step` wrap, which would fold the bracket [lo, hi) back
// onto a stale range and return an index left of the true lower bound.
uint32_t GallopLowerBound(const uint32_t* a, uint32_t n, uint32_t lo,
                          uint32_t key) {
  uint64_t step = 1;
  uint64_t hi = lo;
  while (hi < n && a[hi] < key) {
    lo = static_cast<uint32_t>(hi) + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > n) hi = n;
  return static_cast<uint32_t>(
      std::lower_bound(a + lo, a + hi, key) - a);
}

namespace {

// When one input is much smaller, gallop through the big one.
uint32_t IntersectGalloping(const uint32_t* small, uint32_t ns,
                            const uint32_t* big, uint32_t nb, uint32_t* out) {
  uint32_t n = 0;
  uint32_t pos = 0;
  for (uint32_t i = 0; i < ns; ++i) {
    pos = GallopLowerBound(big, nb, pos, small[i]);
    if (pos == nb) break;
    if (big[pos] == small[i]) {
      out[n++] = small[i];
      ++pos;
    }
  }
  return n;
}

// Count-only twin of IntersectGalloping.
uint32_t CountGalloping(const uint32_t* small, uint32_t ns,
                        const uint32_t* big, uint32_t nb) {
  uint32_t n = 0;
  uint32_t pos = 0;
  for (uint32_t i = 0; i < ns; ++i) {
    pos = GallopLowerBound(big, nb, pos, small[i]);
    if (pos == nb) break;
    if (big[pos] == small[i]) {
      ++n;
      ++pos;
    }
  }
  return n;
}

}  // namespace

uint32_t IntersectUintUint(const uint32_t* a, uint32_t na, const uint32_t* b,
                           uint32_t nb, uint32_t* out) {
  if (na == 0 || nb == 0) return 0;
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (static_cast<uint64_t>(na) * 32 < nb) {
    return IntersectGalloping(a, na, b, nb, out);
  }
  if (SimdIntersectAvailable() && na >= 8) {
    return IntersectUintUintSimd(a, na, b, nb, out);
  }
  uint32_t n = 0, i = 0, j = 0;
  while (i < na && j < nb) {
    uint32_t va = a[i], vb = b[j];
    if (va == vb) {
      out[n++] = va;
      ++i;
      ++j;
    } else if (va < vb) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

uint32_t IntersectUintUintCount(const uint32_t* a, uint32_t na,
                                const uint32_t* b, uint32_t nb) {
  if (na == 0 || nb == 0) return 0;
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (static_cast<uint64_t>(na) * 32 < nb) {
    return CountGalloping(a, na, b, nb);
  }
  uint32_t n = 0, i = 0, j = 0;
  while (i < na && j < nb) {
    uint32_t va = a[i], vb = b[j];
    if (va == vb) {
      ++n;
      ++i;
      ++j;
    } else if (va < vb) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

}  // namespace set_internal

namespace {

uint32_t IntersectUintBitset(const SetView& u, const SetView& b,
                             uint32_t* out) {
  uint32_t n = 0;
  for (uint32_t i = 0; i < u.cardinality; ++i) {
    uint32_t v = u.values[i];
    if (v < b.word_base) continue;
    uint32_t off = v - b.word_base;
    uint32_t w = off / bits::kWordBits;
    if (w >= b.num_words) break;  // values are sorted; rest are out of range
    if ((b.words[w] >> (off % bits::kWordBits)) & 1ULL) out[n++] = v;
  }
  return n;
}

void IntersectBitsetBitset(const SetView& a, const SetView& b,
                           ScratchSet* out) {
  uint32_t base = std::max(a.word_base, b.word_base);
  uint32_t a_end = a.word_base + a.num_words * bits::kWordBits;
  uint32_t b_end = b.word_base + b.num_words * bits::kWordBits;
  uint32_t end = std::min(a_end, b_end);
  if (base >= end) {
    out->Clear();
    return;
  }
  uint32_t nw = (end - base) / bits::kWordBits;
  uint64_t* words = out->PrepareBitsetWords(nw);
  const uint64_t* wa = a.words + (base - a.word_base) / bits::kWordBits;
  const uint64_t* wb = b.words + (base - b.word_base) / bits::kWordBits;
  for (uint32_t w = 0; w < nw; ++w) words[w] = wa[w] & wb[w];
  uint32_t* ranks = out->PrepareBitsetRanks(nw);
  uint32_t running = 0;
  for (uint32_t w = 0; w < nw; ++w) {
    ranks[w] = running;
    running += bits::PopCount(words[w]);
  }
  if (running == 0) {
    out->Clear();
    return;
  }
  out->FinishBitset(running, base, nw);
}

// Classifies the layout pair for the kernel counters.
obs::IntersectKernel KernelFor(const SetView& a, const SetView& b) {
  const int bitsets = (a.layout == SetLayout::kBitset ? 1 : 0) +
                      (b.layout == SetLayout::kBitset ? 1 : 0);
  if (bitsets == 2) return obs::IntersectKernel::kBitsetBitset;
  if (bitsets == 1) return obs::IntersectKernel::kUintBitset;
  return obs::IntersectKernel::kUintUint;
}

}  // namespace

void Intersect(const SetView& a, const SetView& b, ScratchSet* out) {
  if (a.empty() || b.empty()) {
    out->Clear();
    return;
  }
  if (a.layout == SetLayout::kBitset && b.layout == SetLayout::kBitset) {
    IntersectBitsetBitset(a, b, out);
    if (obs::ExecStats* stats = obs::ActiveStats()) {
      stats->CountIntersect(obs::IntersectKernel::kBitsetBitset,
                            out->view().cardinality);
    }
    return;
  }
  if (a.layout == SetLayout::kUint && b.layout == SetLayout::kUint) {
    uint32_t cap = std::min(a.cardinality, b.cardinality);
    uint32_t* buf = out->PrepareUint(cap);
    uint32_t n = set_internal::IntersectUintUint(a.values, a.cardinality,
                                                 b.values, b.cardinality, buf);
    out->FinishUint(n);
    if (obs::ExecStats* stats = obs::ActiveStats()) {
      stats->CountIntersect(obs::IntersectKernel::kUintUint, n);
    }
    return;
  }
  const SetView& u = a.layout == SetLayout::kUint ? a : b;
  const SetView& bs = a.layout == SetLayout::kUint ? b : a;
  uint32_t* buf = out->PrepareUint(u.cardinality);
  uint32_t n = IntersectUintBitset(u, bs, buf);
  out->FinishUint(n);
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountIntersect(obs::IntersectKernel::kUintBitset, n);
  }
}

uint32_t IntersectCount(const SetView& a, const SetView& b) {
  if (a.empty() || b.empty()) return 0;
  if (a.layout == SetLayout::kBitset && b.layout == SetLayout::kBitset) {
    uint32_t base = std::max(a.word_base, b.word_base);
    uint32_t a_end = a.word_base + a.num_words * bits::kWordBits;
    uint32_t b_end = b.word_base + b.num_words * bits::kWordBits;
    uint32_t end = std::min(a_end, b_end);
    if (base >= end) return 0;
    uint32_t nw = (end - base) / bits::kWordBits;
    const uint64_t* wa = a.words + (base - a.word_base) / bits::kWordBits;
    const uint64_t* wb = b.words + (base - b.word_base) / bits::kWordBits;
    uint32_t count = 0;
    for (uint32_t w = 0; w < nw; ++w) count += bits::PopCount(wa[w] & wb[w]);
    if (obs::ExecStats* stats = obs::ActiveStats()) {
      stats->CountIntersect(obs::IntersectKernel::kBitsetBitset, count);
    }
    return count;
  }
  // Count-only paths for the remaining layout pairs: the executor's skew
  // probe calls this per root value, so materializing into a ScratchSet here
  // would put an allocation on the hot path.
  if (a.layout == SetLayout::kUint && b.layout == SetLayout::kUint) {
    const uint32_t count = set_internal::IntersectUintUintCount(
        a.values, a.cardinality, b.values, b.cardinality);
    if (obs::ExecStats* stats = obs::ActiveStats()) {
      stats->CountIntersect(obs::IntersectKernel::kUintUint, count);
    }
    return count;
  }
  const SetView& u = a.layout == SetLayout::kUint ? a : b;
  const SetView& bs = a.layout == SetLayout::kUint ? b : a;
  uint32_t count = 0;
  for (uint32_t i = 0; i < u.cardinality; ++i) {
    const uint32_t v = u.values[i];
    if (v < bs.word_base) continue;
    const uint32_t off = v - bs.word_base;
    const uint32_t w = off / bits::kWordBits;
    if (w >= bs.num_words) break;  // values are sorted; rest are out of range
    if ((bs.words[w] >> (off % bits::kWordBits)) & 1ULL) ++count;
  }
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountIntersect(obs::IntersectKernel::kUintBitset, count);
  }
  return count;
}

namespace {

// Calls emit(v, rank_a, rank_b) for every v in a ∩ b (both non-empty), in
// ascending v: a merge for uint∩uint, a word AND for bitset∩bitset, and a
// probe of the uint side into the bitset otherwise. The one walk behind
// IntersectRanked (which stores the ranks) and IntersectDot (which
// multiplies through them).
template <typename Emit>
void ForEachRanked(const SetView& a, const SetView& b, Emit&& emit) {
  if (a.layout == SetLayout::kUint && b.layout == SetLayout::kUint) {
    uint32_t i = 0, j = 0;
    while (i < a.cardinality && j < b.cardinality) {
      const uint32_t va = a.values[i], vb = b.values[j];
      if (va == vb) {
        emit(va, i, j);
        ++i;
        ++j;
      } else if (va < vb) {
        ++i;
      } else {
        ++j;
      }
    }
    return;
  }
  if (a.layout == SetLayout::kBitset && b.layout == SetLayout::kBitset) {
    const uint32_t base = std::max(a.word_base, b.word_base);
    const uint32_t a_end = a.word_base + a.num_words * bits::kWordBits;
    const uint32_t b_end = b.word_base + b.num_words * bits::kWordBits;
    const uint32_t end = std::min(a_end, b_end);
    if (base >= end) return;
    const uint32_t nw = (end - base) / bits::kWordBits;
    const uint32_t oa = (base - a.word_base) / bits::kWordBits;
    const uint32_t ob = (base - b.word_base) / bits::kWordBits;
    for (uint32_t w = 0; w < nw; ++w) {
      uint64_t word = a.words[oa + w] & b.words[ob + w];
      const uint32_t vbase = base + w * bits::kWordBits;
      while (word != 0) {
        const int bit = bits::CountTrailingZeros(word);
        const uint64_t below = bits::LowMask(static_cast<uint32_t>(bit));
        emit(vbase + static_cast<uint32_t>(bit),
             a.word_ranks[oa + w] + bits::PopCount(a.words[oa + w] & below),
             b.word_ranks[ob + w] + bits::PopCount(b.words[ob + w] & below));
        word &= word - 1;
      }
    }
    return;
  }
  // Mixed: probe the uint side into the bitset.
  const bool a_is_uint = a.layout == SetLayout::kUint;
  const SetView& u = a_is_uint ? a : b;
  const SetView& bs = a_is_uint ? b : a;
  for (uint32_t i = 0; i < u.cardinality; ++i) {
    const uint32_t v = u.values[i];
    if (v < bs.word_base) continue;
    const uint32_t off = v - bs.word_base;
    const uint32_t w = off / bits::kWordBits;
    if (w >= bs.num_words) break;
    const uint32_t bit = off % bits::kWordBits;
    if ((bs.words[w] >> bit) & 1ULL) {
      const uint32_t r =
          bs.word_ranks[w] + bits::PopCount(bs.words[w] & bits::LowMask(bit));
      if (a_is_uint) {
        emit(v, i, r);
      } else {
        emit(v, r, i);
      }
    }
  }
}

}  // namespace

uint32_t IntersectRanked(const SetView& a, const SetView& b, uint32_t* vals,
                         uint32_t* rank_a, uint32_t* rank_b) {
  if (a.empty() || b.empty()) return 0;
  uint32_t n = 0;
  ForEachRanked(a, b, [&](uint32_t v, uint32_t ra, uint32_t rb) {
    vals[n] = v;
    rank_a[n] = ra;
    rank_b[n] = rb;
    ++n;
  });
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountIntersect(KernelFor(a, b), n);
  }
  return n;
}

double IntersectDot(const SetView& a, const SetView& b, const double* wa,
                    const double* wb, uint32_t* count) {
  if (a.empty() || b.empty()) {
    *count = 0;
    return 0;
  }
  // The product-sum is the same `sum += wa[..] * wb[..]` expression as the
  // reference loops (IntersectRanked + gather, la::SpMVNaive), so the
  // compiler contracts it (or not) the same way and the bits agree.
  double sum = 0;
  uint32_t n = 0;
  ForEachRanked(a, b, [&](uint32_t, uint32_t ra, uint32_t rb) {
    sum += wa[ra] * wb[rb];
    ++n;
  });
  *count = n;
  if (obs::ExecStats* stats = obs::ActiveStats()) {
    stats->CountIntersect(KernelFor(a, b), n);
  }
  return sum;
}

std::vector<uint32_t> UnionValues(const SetView& a, const SetView& b) {
  std::vector<uint32_t> va = a.ToVector();
  std::vector<uint32_t> vb = b.ToVector();
  std::vector<uint32_t> out;
  out.reserve(va.size() + vb.size());
  std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace levelheaded
