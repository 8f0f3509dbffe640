// Randomized differential tests for the set-intersection kernels.
//
// Every kernel (uint/uint merge+galloping, the AVX2 SIMD variant,
// uint/bitset probing, bitset/bitset word AND, the ranked one-pass kernel,
// and IntersectCount) is checked against a trivial scalar reference built
// with std::set_intersection over the materialized values. The fused
// IntersectDot is checked against IntersectRanked plus an ascending
// gather. Inputs are drawn at densities straddling the 1/32 bitset
// threshold so every layout pair is exercised. Sized to finish well inside
// the tier-1 budget under ASan/UBSan/TSan (a few hundred cases of a few
// hundred elements).

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "set/intersect.h"
#include "set/set.h"
#include "set/simd_intersect.h"
#include "util/rng.h"

namespace levelheaded {
namespace {

std::vector<uint32_t> RandomSortedUnique(Rng* rng, uint32_t max_size,
                                         uint32_t universe) {
  const uint32_t n = static_cast<uint32_t>(rng->Uniform(max_size + 1));
  std::vector<uint32_t> vals;
  vals.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    vals.push_back(static_cast<uint32_t>(rng->Uniform(universe)));
  }
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

std::vector<uint32_t> ReferenceIntersect(const std::vector<uint32_t>& a,
                                         const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<uint32_t> ReferenceUnion(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// Rank of v in sorted `vals` (must be present).
uint32_t ReferenceRank(const std::vector<uint32_t>& vals, uint32_t v) {
  return static_cast<uint32_t>(
      std::lower_bound(vals.begin(), vals.end(), v) - vals.begin());
}

struct Universe {
  uint32_t max_size;
  uint32_t range;
};

// Dense (range ~= size, bitset-chosen), borderline, and sparse regimes.
const Universe kUniverses[] = {{300, 400}, {200, 6000}, {120, 4000000}};

TEST(IntersectDiffTest, AllLayoutPairsMatchScalarReference) {
  Rng rng(0xD1FF5EED);
  const SetLayout layouts[] = {SetLayout::kUint, SetLayout::kBitset};
  int nonempty_cases = 0;
  for (int iter = 0; iter < 60; ++iter) {
    for (const Universe& u : kUniverses) {
      const std::vector<uint32_t> a =
          RandomSortedUnique(&rng, u.max_size, u.range);
      const std::vector<uint32_t> b =
          RandomSortedUnique(&rng, u.max_size, u.range);
      const std::vector<uint32_t> expected = ReferenceIntersect(a, b);
      if (!expected.empty()) ++nonempty_cases;
      for (SetLayout la : layouts) {
        for (SetLayout lb : layouts) {
          // FromSortedWithLayout on an empty set is layout-less; skip the
          // forced-bitset request for empties (BuildBitset requires n > 0).
          if ((a.empty() && la == SetLayout::kBitset) ||
              (b.empty() && lb == SetLayout::kBitset)) {
            continue;
          }
          const OwnedSet sa = OwnedSet::FromSortedWithLayout(a, la);
          const OwnedSet sb = OwnedSet::FromSortedWithLayout(b, lb);
          ScratchSet out;
          Intersect(sa.view(), sb.view(), &out);
          EXPECT_EQ(out.view().ToVector(), expected)
              << "layouts " << SetLayoutName(la) << "/" << SetLayoutName(lb)
              << " |a|=" << a.size() << " |b|=" << b.size();
          EXPECT_EQ(IntersectCount(sa.view(), sb.view()), expected.size());
          EXPECT_EQ(UnionValues(sa.view(), sb.view()),
                    ReferenceUnion(a, b));
        }
      }
    }
  }
  // The regimes must actually produce overlapping sets, or the test is
  // vacuously comparing empties.
  EXPECT_GT(nonempty_cases, 50);
}

TEST(IntersectDiffTest, RankedKernelMatchesReferenceRanks) {
  Rng rng(0xBADC0DE5);
  for (int iter = 0; iter < 60; ++iter) {
    for (const Universe& u : kUniverses) {
      const std::vector<uint32_t> a =
          RandomSortedUnique(&rng, u.max_size, u.range);
      const std::vector<uint32_t> b =
          RandomSortedUnique(&rng, u.max_size, u.range);
      const std::vector<uint32_t> expected = ReferenceIntersect(a, b);
      const OwnedSet sa = OwnedSet::FromSorted(a);
      const OwnedSet sb = OwnedSet::FromSorted(b);
      const uint32_t cap = static_cast<uint32_t>(std::min(a.size(), b.size()));
      std::vector<uint32_t> vals(cap), rank_a(cap), rank_b(cap);
      const uint32_t n = IntersectRanked(sa.view(), sb.view(), vals.data(),
                                         rank_a.data(), rank_b.data());
      ASSERT_EQ(n, expected.size());
      for (uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(vals[i], expected[i]);
        EXPECT_EQ(rank_a[i], ReferenceRank(a, vals[i]));
        EXPECT_EQ(rank_b[i], ReferenceRank(b, vals[i]));
      }
    }
  }
}

TEST(IntersectDiffTest, SimdKernelMatchesScalarKernel) {
  if (!set_internal::SimdIntersectAvailable()) {
    GTEST_SKIP() << "AVX2 kernel not compiled into this build";
  }
  Rng rng(0x51D3C0DE);
  for (int iter = 0; iter < 200; ++iter) {
    // Sparse regime: both kernels take the uint/uint path.
    const std::vector<uint32_t> a = RandomSortedUnique(&rng, 400, 100000);
    const std::vector<uint32_t> b = RandomSortedUnique(&rng, 400, 100000);
    const uint32_t cap = static_cast<uint32_t>(std::min(a.size(), b.size())) +
                         ScratchSet::kSimdTailSlack;
    std::vector<uint32_t> scalar_out(cap), simd_out(cap);
    const uint32_t n_scalar = set_internal::IntersectUintUint(
        a.data(), static_cast<uint32_t>(a.size()), b.data(),
        static_cast<uint32_t>(b.size()), scalar_out.data());
    const uint32_t n_simd = set_internal::IntersectUintUintSimd(
        a.data(), static_cast<uint32_t>(a.size()), b.data(),
        static_cast<uint32_t>(b.size()), simd_out.data());
    ASSERT_EQ(n_simd, n_scalar);
    scalar_out.resize(n_scalar);
    simd_out.resize(n_simd);
    EXPECT_EQ(simd_out, scalar_out);
    EXPECT_EQ(scalar_out, ReferenceIntersect(a, b));
  }
}

// Skewed-size inputs drive the galloping path of the scalar kernel.
TEST(IntersectDiffTest, GallopingPathMatchesReference) {
  Rng rng(0x6A110F);
  for (int iter = 0; iter < 100; ++iter) {
    const std::vector<uint32_t> small = RandomSortedUnique(&rng, 8, 50000);
    const std::vector<uint32_t> big = RandomSortedUnique(&rng, 500, 50000);
    const std::vector<uint32_t> expected = ReferenceIntersect(small, big);
    const OwnedSet ss = OwnedSet::FromSortedWithLayout(small, SetLayout::kUint);
    const OwnedSet sb = OwnedSet::FromSortedWithLayout(big, SetLayout::kUint);
    ScratchSet out;
    Intersect(ss.view(), sb.view(), &out);
    EXPECT_EQ(out.view().ToVector(), expected);
    Intersect(sb.view(), ss.view(), &out);
    EXPECT_EQ(out.view().ToVector(), expected);
  }
}

// IntersectRanked followed by the ascending-order gather IntersectDot fuses:
// the sum starts at 0 and adds wa[rank_a] * wb[rank_b] in ascending value.
double RankedDot(const SetView& a, const SetView& b, const double* wa,
                 const double* wb, uint32_t* count) {
  const uint32_t cap = std::min(a.cardinality, b.cardinality);
  std::vector<uint32_t> vals(cap), rank_a(cap), rank_b(cap);
  *count = IntersectRanked(a, b, vals.data(), rank_a.data(), rank_b.data());
  double sum = 0;
  for (uint32_t i = 0; i < *count; ++i) sum += wa[rank_a[i]] * wb[rank_b[i]];
  return sum;
}

// Weights whose magnitudes vary by 1e3, so a reordered sum shows in the bits.
std::vector<double> RandomWeights(Rng* rng, size_t n) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = rng->UniformDouble(-1, 1) * (1 + static_cast<double>(i % 13) * 1e3);
  }
  return w;
}

std::vector<uint32_t> Range(uint32_t lo, uint32_t hi) {  // [lo, hi)
  std::vector<uint32_t> v(hi - lo);
  std::iota(v.begin(), v.end(), lo);
  return v;
}

// IntersectDot == RankedDot (sum with ==, count exactly) for every layout
// pair the inputs admit, in both operand orders. Returns the cases checked.
int ExpectDotMatchesRanked(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b, Rng* rng) {
  const std::vector<double> wa = RandomWeights(rng, a.size());
  const std::vector<double> wb = RandomWeights(rng, b.size());
  int cases = 0;
  for (SetLayout la : {SetLayout::kUint, SetLayout::kBitset}) {
    for (SetLayout lb : {SetLayout::kUint, SetLayout::kBitset}) {
      // BuildBitset requires n > 0: empties only come as uint.
      if ((a.empty() && la == SetLayout::kBitset) ||
          (b.empty() && lb == SetLayout::kBitset)) {
        continue;
      }
      const OwnedSet sa = OwnedSet::FromSortedWithLayout(a, la);
      const OwnedSet sb = OwnedSet::FromSortedWithLayout(b, lb);
      const std::string what = std::string("layouts ") + SetLayoutName(la) +
                               "/" + SetLayoutName(lb) +
                               " |a|=" + std::to_string(a.size()) +
                               " |b|=" + std::to_string(b.size());
      uint32_t n = 99, want_n = 0;
      const double want =
          RankedDot(sa.view(), sb.view(), wa.data(), wb.data(), &want_n);
      EXPECT_EQ(IntersectDot(sa.view(), sb.view(), wa.data(), wb.data(), &n),
                want)
          << what;
      EXPECT_EQ(n, want_n) << what;
      n = 99;
      const double want_ba =
          RankedDot(sb.view(), sa.view(), wb.data(), wa.data(), &want_n);
      EXPECT_EQ(IntersectDot(sb.view(), sa.view(), wb.data(), wa.data(), &n),
                want_ba)
          << what << " (b, a)";
      EXPECT_EQ(n, want_n) << what << " (b, a)";
      ++cases;
    }
  }
  return cases;
}

// Random sets at every density.
TEST(IntersectDotTest, RandomSetsMatchRankedGather) {
  Rng rng(0xD07D07);
  for (int iter = 0; iter < 40; ++iter) {
    for (const Universe& u : kUniverses) {
      ExpectDotMatchesRanked(RandomSortedUnique(&rng, u.max_size, u.range),
                             RandomSortedUnique(&rng, u.max_size, u.range),
                             &rng);
    }
  }
}

// Dense ranges (a dense vector over its domain, or one cut by WHERE): at
// word_base 0 and at a nonzero, non-aligned start; covering all, part or
// none of the other side; against random, dense and single-element sets.
TEST(IntersectDotTest, DenseRangesMatchRankedGather) {
  Rng rng(0x6AFF5EED);
  const std::pair<uint32_t, uint32_t> ranges[] = {
      {0, 1000}, {200, 900}, {64, 128}, {333, 334}, {5000, 5100}};
  int cases = 0;
  for (const auto& [lo, hi] : ranges) {
    const std::vector<uint32_t> dense = Range(lo, hi);
    for (int iter = 0; iter < 10; ++iter) {
      // Straddles [lo, hi): the dense side covers only part of it.
      cases += ExpectDotMatchesRanked(
          dense, RandomSortedUnique(&rng, 400, 1400), &rng);
      cases += ExpectDotMatchesRanked(
          dense, RandomSortedUnique(&rng, 40, 4000000), &rng);
    }
    // Both sides dense: overlapping, nested, touching and disjoint.
    cases += ExpectDotMatchesRanked(dense, Range(150, 700), &rng);
    cases += ExpectDotMatchesRanked(dense, Range(lo + 1, lo + 2), &rng);
    cases += ExpectDotMatchesRanked(dense, Range(hi - 1, hi + 64), &rng);
    cases += ExpectDotMatchesRanked(dense, Range(hi, hi + 10), &rng);
    // Dense but disjoint from a sparse set on either side of it.
    cases += ExpectDotMatchesRanked(dense, {hi + 5, hi + 700, hi + 9000},
                                    &rng);
    if (lo > 0) cases += ExpectDotMatchesRanked(dense, {0, lo - 1}, &rng);
  }
  EXPECT_GT(cases, 400);
}

TEST(IntersectDotTest, EmptyAndDisjointInputs) {
  Rng rng(0xE3977);
  const std::vector<uint32_t> empty;
  const std::vector<uint32_t> sparse = {3, 70, 71, 900, 12000};
  const std::vector<uint32_t> other = {4, 69, 72, 901, 11999};
  ExpectDotMatchesRanked(empty, empty, &rng);
  ExpectDotMatchesRanked(empty, sparse, &rng);
  ExpectDotMatchesRanked(Range(0, 500), empty, &rng);
  ExpectDotMatchesRanked(sparse, other, &rng);
  ExpectDotMatchesRanked(Range(0, 64), Range(64, 200), &rng);
  // Disjoint sets still report count 0 and an exact 0 sum.
  const OwnedSet sa = OwnedSet::FromSorted(sparse);
  const OwnedSet sb = OwnedSet::FromSorted(other);
  const std::vector<double> w(sparse.size(), 1.0);
  uint32_t n = 99;
  EXPECT_EQ(IntersectDot(sa.view(), sb.view(), w.data(), w.data(), &n), 0.0);
  EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace levelheaded
