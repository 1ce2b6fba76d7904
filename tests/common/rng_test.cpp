#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

namespace ares {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowMatchesRejectionReference) {
  // below() rejects draws under 2^64 mod bound. Bounds near 2^63 reject
  // about half of all draws, so a shortcut that skips the test shows here.
  for (std::uint64_t bound : {1ull, 3ull, 1000ull, (1ull << 32) + 1, (1ull << 63) + 1,
                              ~0ull}) {
    Rng r(17), ref(17);
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t threshold = (0 - bound) % bound;
      std::uint64_t x = ref.next();
      while (x < threshold) x = ref.next();
      ASSERT_EQ(r.below(bound), x % bound) << "bound " << bound << " draw " << i;
    }
    EXPECT_EQ(r.next(), ref.next());
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng r(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo = saw_lo || v == 5;
    saw_hi = saw_hi || v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeDegenerate) {
  Rng r(3);
  EXPECT_EQ(r.range(9, 9), 9u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = r.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, NormalScaled) {
  Rng r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.normal(60.0, 10.0);
  EXPECT_NEAR(sum / n, 60.0, 0.5);
}

TEST(Rng, ChanceExtremes) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceRoughProbability) {
  Rng r(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (r.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ZipfInBoundsAndSkewed) {
  Rng r(29);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    auto v = r.zipf(10, 1.2);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  // Rank 0 must dominate rank 9 decisively.
  EXPECT_GT(counts[0], counts[9] * 5);
}

TEST(Rng, SampleIndicesDistinctAndComplete) {
  Rng r(31);
  auto idx = r.sample_indices(10, 10);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 9u);
}

TEST(Rng, SampleIndicesPartial) {
  Rng r(37);
  auto idx = r.sample_indices(100, 5);
  EXPECT_EQ(idx.size(), 5u);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 5u);
  for (auto i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesZero) {
  Rng r(41);
  EXPECT_TRUE(r.sample_indices(5, 0).empty());
}

TEST(Rng, SampleIndicesSparsePathMatchesDense) {
  // Every sampling path (dense, sparse k << n, small k) must reproduce the
  // dense Fisher-Yates exactly: same draws, same indices, same order. Replay
  // the dense algorithm with a twin Rng and compare element-wise on a grid
  // that straddles each path cutoff: k = 0, k = n, n = 1, the small path's
  // k = 16 and n = 4k^2, and the dense path's n = 1024 and k = n/8.
  const std::vector<std::pair<std::size_t, std::size_t>> grid = {
      {0, 0},       {1, 0},       {1, 1},       {2, 1},       {2, 2},
      {3, 3},       {5, 3},       {16, 16},     {17, 16},     {35, 3},
      {36, 3},      {40, 5},      {40, 17},     {64, 8},      {64, 7},
      {64, 9},      {200, 25},    {200, 24},    {1023, 3},    {1024, 3},
      {1024, 16},   {1024, 17},   {1024, 128},  {1025, 3},    {1025, 16},
      {1025, 17},   {1025, 128},  {1025, 129},  {2000, 1},    {2000, 5},
      {2000, 64},   {2000, 200},  {4096, 511},  {4096, 512},  {5000, 64},
      {50000, 200}, {100000, 3},  {100000, 16}, {100000, 40}};
  std::vector<std::size_t> out;
  for (std::uint64_t seed : {47u, 48u, 49u}) {
    for (const auto& [n, k] : grid) {
      Rng dense_rng(seed);
      std::vector<std::size_t> perm(n);
      for (std::size_t i = 0; i < n; ++i) perm[i] = i;
      for (std::size_t i = 0; i < k; ++i)
        std::swap(perm[i], perm[i + dense_rng.index(n - i)]);
      perm.resize(k);
      const std::uint64_t dense_next = dense_rng.next();

      Rng r(seed);
      ASSERT_EQ(r.sample_indices(n, k), perm) << "n=" << n << " k=" << k;
      // Both consumed the same number of draws.
      EXPECT_EQ(r.next(), dense_next) << "n=" << n << " k=" << k;
      Rng into_rng(seed);
      out.assign(3, 99);  // stale contents must not leak into the result
      into_rng.sample_indices_into(n, k, out);
      ASSERT_EQ(out, perm) << "n=" << n << " k=" << k;
      EXPECT_EQ(into_rng.next(), dense_next) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, PickReturnsElement) {
  Rng r(47);
  std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    int x = r.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Rng, ForkIndependent) {
  Rng a(99);
  Rng b = a.fork();
  // Forked stream differs from parent's continuation.
  EXPECT_NE(a.next(), b.next());
}

}  // namespace
}  // namespace ares
