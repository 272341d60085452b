#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace pcal {

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // An all-zero state would be absorbing; SplitMix64 cannot produce four
  // consecutive zeros from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256::next_in(std::uint64_t lo, std::uint64_t hi) {
  PCAL_ASSERT(lo <= hi);
  return lo + next_below(hi - lo + 1);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) {
  PCAL_ASSERT_MSG(n > 0, "ZipfSampler needs a nonempty support");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -s);
    cdf_[r] = acc;
  }
  const double total = acc;
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding

  // The guide stores ranks as 32 bits; K <= 2n entries.
  PCAL_ASSERT_MSG(n <= (std::uint64_t{1} << 31),
                  "ZipfSampler support too large: " << n);
  std::uint64_t k = 1;
  while (k < n) k <<= 1;
  scale_ = static_cast<double>(k);
  guide_.resize(k);
  auto from = cdf_.begin();
  for (std::uint64_t j = 0; j < k; ++j) {
    // j / K is exact: K is a power of two no larger than 2^31.
    from = std::lower_bound(from, cdf_.end(), static_cast<double>(j) / scale_);
    guide_[j] = static_cast<std::uint32_t>(from - cdf_.begin());
  }
}

}  // namespace pcal
