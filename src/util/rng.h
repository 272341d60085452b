// Deterministic pseudo-random number generators.
//
// The simulator must be bit-reproducible across runs and platforms, so we do
// not use std::mt19937 distributions (their outputs are implementation
// defined for some distributions).  SplitMix64 seeds; Xoshiro256** is the
// workhorse generator used by the synthetic trace generators.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace pcal {

/// SplitMix64: tiny, high-quality seeding generator (Steele et al.).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256**: fast, well-distributed 64-bit generator (Blackman/Vigna).
/// The per-draw members are defined here, not in rng.cc: the synthetic
/// generator makes 3-4 draws per access, and the build has no
/// link-time optimization to inline them across translation units (an
/// inlined next_below(16) also loses both of its 64-bit divides).
class Xoshiro256 {
 public:
  /// Seeds all 256 bits of state from a 64-bit seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed);

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of one draw.
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using rejection to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) {
    PCAL_ASSERT(bound != 0);
    // Lemire-style rejection: accept unless we fall into the biased tail.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

  /// Bernoulli trial with probability `p` of returning true.
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// Precomputed-CDF Zipf sampler.  Ranks 0..n-1 with probability
/// proportional to 1/(rank+1)^s; s = 0 gives the uniform distribution.
///
/// A sample is the inverse CDF of one uniform draw u: the first rank whose
/// cumulative probability reaches u, i.e. std::lower_bound over the CDF.
/// It is found by an indexed (guide-table) search (Chen & Asau): with K
/// the smallest power of two >= n, guide[j] is the lower_bound of j/K, and
/// a sample starts at guide[floor(u*K)] and walks forward.  Both j/K and
/// u*K are exact in binary floating point because K is a power of two, so
/// the start never passes the lower_bound answer and the walk returns
/// exactly the binary search's rank — from the same CDF and the same
/// draw.  Each guide bucket holds 1/K of the probability mass, so the
/// expected walk is at most n/K <= 1 step.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t sample(Xoshiro256& rng) const {
    return rank_of(rng.next_double());
  }

  /// The rank one uniform value u in [0, 1) maps to:
  /// lower_bound(cdf, u) - cdf.begin().
  std::uint64_t rank_of(double u) const {
    PCAL_ASSERT(u >= 0.0 && u < 1.0);
    std::uint32_t i = guide_[static_cast<std::size_t>(u * scale_)];
    // The walk never passes the answer, which is at most n - 1 because
    // cdf.back() == 1 > u.  Two branch-free steps cover almost every
    // draw; the loop finishes the rare longer walks.
    i += cdf_[i] < u;
    i += cdf_[i] < u;
    while (cdf_[i] < u) ++i;
    return i;
  }

  std::uint64_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // K entries
  double scale_ = 1.0;                // K
};

}  // namespace pcal
