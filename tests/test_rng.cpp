/// Unit tests for the PRNG layer: determinism, forking independence, range
/// contracts. Everything downstream (generators, heuristics) relies on the
/// reproducibility guarantees established here.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace bmh {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleOpen0NeverZero) {
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.next_double_open0();
    EXPECT_GT(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(21);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowIsApproximatelyUniform) {
  Rng rng(33);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<int> hist(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++hist[rng.next_below(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (const int h : hist)
    EXPECT_NEAR(h, expected, 5.0 * std::sqrt(expected));  // ~5 sigma
}

TEST(Rng, ForkIsDeterministic) {
  const Rng root(99);
  Rng a = root.fork(42);
  Rng b = root.fork(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkedLanesAreIndependentStreams) {
  const Rng root(99);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 256; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(5), b(5);
  (void)a.fork(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, MeanOfUniformDrawsIsHalf) {
  Rng rng(77);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

TEST(Rng, SatisfiesUniformRandomBitGeneratorContract) {
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ULL);
  Rng rng(1);
  (void)rng();  // callable
}

} // namespace
} // namespace bmh
