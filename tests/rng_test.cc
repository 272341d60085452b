#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace pcal {
namespace {

TEST(SplitMix, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const std::uint64_t a1 = a.next();
  EXPECT_EQ(a1, b.next());
  EXPECT_NE(a1, c.next());
  EXPECT_NE(a.next(), a1);
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 r(1);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, NextBelowBounds) {
  Xoshiro256 r(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
  EXPECT_THROW(r.next_below(0), Error);
}

TEST(Xoshiro, NextBelowIsRoughlyUniform) {
  Xoshiro256 r(11);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kDraws = 80000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[r.next_below(kBuckets)];
  const double expect = static_cast<double>(kDraws) / kBuckets;
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], expect, 5.0 * std::sqrt(expect)) << "bucket " << b;
  }
}

TEST(Xoshiro, NextInInclusive) {
  Xoshiro256 r(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = r.next_in(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(r.next_in(9, 9), 9u);
}

TEST(Xoshiro, NextBoolExtremes) {
  Xoshiro256 r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Xoshiro, NextBoolRate) {
  Xoshiro256 r(17);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (r.next_bool(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Zipf, UniformWhenExponentZero) {
  ZipfSampler z(4, 0.0);
  Xoshiro256 r(2);
  std::array<int, 4> counts{};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (int c : counts) EXPECT_NEAR(c, n / 4.0, 4.0 * std::sqrt(n / 4.0));
}

TEST(Zipf, SkewPrefersLowRanks) {
  ZipfSampler z(64, 1.2);
  Xoshiro256 r(2);
  std::array<int, 64> counts{};
  for (int i = 0; i < 50000; ++i) ++counts[z.sample(r)];
  EXPECT_GT(counts[0], counts[7]);
  EXPECT_GT(counts[0], 10 * counts[32]);
  // Monotone on a coarse scale: compare quartile mass.
  int q0 = 0, q3 = 0;
  for (int i = 0; i < 16; ++i) q0 += counts[i];
  for (int i = 48; i < 64; ++i) q3 += counts[i];
  EXPECT_GT(q0, 4 * q3);
}

TEST(Zipf, SingleElement) {
  ZipfSampler z(1, 2.0);
  Xoshiro256 r(2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z.sample(r), 0u);
}

TEST(Zipf, RejectsEmptySupport) { EXPECT_THROW(ZipfSampler(0, 1.0), Error); }

// The guide-table search must return exactly the inverse-CDF binary
// search's rank: std::lower_bound over the same CDF, for the same u.
// Besides random draws, every guide bucket edge u = j/K and its two
// floating-point neighbours are checked, where an off-by-one start would
// show.
TEST(Zipf, RankMatchesLowerBoundReference) {
  for (std::uint64_t n : {1ull, 3ull, 64ull, 1000ull, 4097ull}) {
    for (double s : {0.0, 0.9, 1.2, 2.0}) {
      // The reference CDF, built as the sampler documents it.
      std::vector<double> cdf(n);
      double acc = 0.0;
      for (std::uint64_t r = 0; r < n; ++r) {
        acc += std::pow(static_cast<double>(r + 1), -s);
        cdf[r] = acc;
      }
      for (double& c : cdf) c /= acc;
      cdf.back() = 1.0;
      const ZipfSampler z(n, s);
      bool ok = true;  // report the first mismatch per (n, s) only
      auto check = [&](double u) {
        if (!ok || !(u >= 0.0 && u < 1.0)) return;
        const auto want = static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const std::uint64_t got = z.rank_of(u);
        if (got != want) {
          ok = false;
          ADD_FAILURE() << "n=" << n << " s=" << s << " u=" << std::hexfloat
                        << u << ": rank " << got << ", lower_bound " << want;
        }
      };
      std::uint64_t k = 1;
      while (k < n) k <<= 1;
      for (std::uint64_t j = 0; j < k; ++j) {
        const double edge = static_cast<double>(j) / static_cast<double>(k);
        check(edge);
        check(std::nextafter(edge, 0.0));
        check(std::nextafter(edge, 1.0));
      }
      // Every CDF value and its neighbours: the rank boundaries.
      for (double c : cdf) {
        check(c);
        check(std::nextafter(c, 0.0));
        check(std::nextafter(c, 1.0));
      }
      Xoshiro256 r(n * 31 + static_cast<std::uint64_t>(s * 10));
      for (int i = 0; i < 1'000'000; ++i) check(r.next_double());
      check(std::nextafter(1.0, 0.0));
    }
  }
}

TEST(Zipf, SampleIsRankOfOneDraw) {
  const ZipfSampler z(1000, 0.9);
  Xoshiro256 a(9), b(9);
  for (int i = 0; i < 10000; ++i)
    EXPECT_EQ(z.sample(a), z.rank_of(b.next_double()));
}

TEST(Zipf, RankOfRejectsValuesOutsideTheUnitInterval) {
  const ZipfSampler z(64, 1.2);
  EXPECT_THROW(z.rank_of(1.0), Error);
  EXPECT_THROW(z.rank_of(-0.5), Error);
  EXPECT_THROW(z.rank_of(std::nan("")), Error);
}

}  // namespace
}  // namespace pcal
