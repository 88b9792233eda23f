// Determinism and distribution sanity of the splittable RNG, the parallel
// random permutation and the pointwise random bijection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "parallel/random.hpp"

namespace pcc::parallel {
namespace {

TEST(Hash64, DeterministicAndSpreading) {
  EXPECT_EQ(hash64(12345), hash64(12345));
  EXPECT_NE(hash64(1), hash64(2));
  // Avalanche smoke: flipping one input bit flips many output bits.
  const int flipped = __builtin_popcountll(hash64(1) ^ hash64(3));
  EXPECT_GT(flipped, 10);
  EXPECT_LT(flipped, 54);
}

TEST(Rng, StreamsAreIndependentButReproducible) {
  rng a(7);
  rng b(7);
  rng c(8);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[99], b[99]);
  EXPECT_NE(a[0], c[0]);
  EXPECT_NE(a.split(1)[0], a.split(2)[0]);
  EXPECT_EQ(a.split(1)[5], b.split(1)[5]);
}

TEST(Rng, BoundedStaysInRange) {
  rng gen(11);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.bounded(i, 17), 17u);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  rng gen(13);
  double mn = 1.0;
  double mx = 0.0;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = gen.uniform01(i);
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
  }
  EXPECT_LT(mn, 0.001);
  EXPECT_GT(mx, 0.999);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  rng gen(17);
  for (double lambda : {0.1, 0.5, 2.0}) {
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += gen.exponential(i, lambda);
    // Mean of Exp(lambda) is 1/lambda; n large enough for ~1% accuracy.
    EXPECT_NEAR(sum / n, 1.0 / lambda, 0.03 / lambda);
  }
}

class PermutationSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(PermutationSizes, IsAPermutation) {
  const size_t n = GetParam();
  const auto perm = random_permutation(n, 23);
  ASSERT_EQ(perm.size(), n);
  std::vector<uint8_t> seen(n, 0);
  for (vertex_id p : perm) {
    ASSERT_LT(p, n);
    ASSERT_EQ(seen[p], 0) << "duplicate entry " << p;
    seen[p] = 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationSizes,
                         ::testing::Values(0, 1, 2, 10, 1000, 8192, 100000),
                         ::testing::PrintToStringParamName());

TEST(Permutation, DeterministicPerSeedDistinctAcrossSeeds) {
  const auto a = random_permutation(5000, 1);
  const auto b = random_permutation(5000, 1);
  const auto c = random_permutation(5000, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Permutation, LooksUniform) {
  // Position of element 0 averaged over seeds should be near n/2, and the
  // permutation should not be the identity.
  const size_t n = 1000;
  double sum = 0;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    const auto perm = random_permutation(n, seed);
    for (size_t i = 0; i < n; ++i) {
      if (perm[i] == 0) sum += static_cast<double>(i);
    }
  }
  const double mean_pos = sum / 64.0;
  EXPECT_GT(mean_pos, n * 0.35);
  EXPECT_LT(mean_pos, n * 0.65);
  const auto perm = random_permutation(n, 3);
  size_t fixed = 0;
  for (size_t i = 0; i < n; ++i) fixed += perm[i] == i ? 1 : 0;
  EXPECT_LT(fixed, 20u);  // E[fixed points] = 1
}

std::vector<vertex_id> bijection_values(size_t n, uint64_t seed) {
  const random_bijection perm(n, seed);
  std::vector<vertex_id> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = perm(i);
  return out;
}

class BijectionSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(BijectionSizes, IsABijection) {
  const size_t n = GetParam();
  for (uint64_t seed : {uint64_t{0}, uint64_t{23}}) {
    const random_bijection perm(n, seed);
    std::vector<uint8_t> seen(n, 0);
    for (size_t i = 0; i < n; ++i) {
      const vertex_id v = perm(i);
      ASSERT_LT(v, n) << "position " << i;
      ASSERT_EQ(seen[v], 0) << "duplicate entry " << v;
      seen[v] = 1;
    }
  }
}

// Domain edges: just below, at and just above powers of two (4^k ± 1 covers
// both even and odd Feistel splits), including the cycle-walking worst case
// n = 2^k + 1.
INSTANTIATE_TEST_SUITE_P(
    Sizes, BijectionSizes,
    ::testing::Values(0, 1, 2, 3, 10, 1000, 8192, 100000, (1 << 20) + 7, 5,
                      15, 17, 63, 65, 255, 257, 4095, 4097, 65535, 65537,
                      (1 << 20) - 1, (1 << 20) + 1),
    ::testing::PrintToStringParamName());

TEST(Bijection, DeterministicPerSeedDistinctAcrossSeeds) {
  const auto a = bijection_values(5000, 1);
  const auto b = bijection_values(5000, 1);
  const auto c = bijection_values(5000, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Pointwise evaluation needs no shared state: a copy, or a fresh object
  // asked out of order, gives the same answers.
  const random_bijection perm(5000, 1);
  const random_bijection copy = perm;
  for (size_t i = 5000; i-- > 0;) ASSERT_EQ(copy(i), a[i]);
}

TEST(Bijection, LooksUniform) {
  // Over seeds, element 0's position averages (n-1)/2 and the number of
  // fixed points averages 1, as for a uniform random permutation.
  const size_t n = 1000;
  const int seeds = 400;
  double pos_sum = 0;
  double fixed_sum = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    const auto perm = bijection_values(n, static_cast<uint64_t>(seed));
    for (size_t i = 0; i < n; ++i) {
      if (perm[i] == 0) pos_sum += static_cast<double>(i);
      if (perm[i] == i) fixed_sum += 1;
    }
  }
  // Position of 0 is uniform on [0, n): sd n/sqrt(12), so the mean of 400
  // draws has sd ~14.4; fixed points are ~Poisson(1), mean sd 0.05.
  EXPECT_NEAR(pos_sum / seeds, (n - 1) / 2.0, 75.0);
  EXPECT_NEAR(fixed_sum / seeds, 1.0, 0.3);
}

TEST(Bijection, FirstElementSpreadsEvenlyOverSeeds) {
  // The first BFS center of every decomposition level is perm(0); it must
  // not favour any vertex. Chi-square over seeds against uniform.
  for (size_t n : {size_t{10}, size_t{37}, size_t{64}}) {
    const int seeds = 20000;
    std::vector<int> hits(n, 0);
    for (int seed = 0; seed < seeds; ++seed) {
      ++hits[random_bijection(n, static_cast<uint64_t>(seed))(0)];
    }
    const double expected = static_cast<double>(seeds) / n;
    double chi2 = 0;
    for (int h : hits) chi2 += (h - expected) * (h - expected) / expected;
    // n-1 degrees of freedom; mean n-1, sd sqrt(2(n-1)). Six sd is far
    // beyond chance but well below what a skewed map would produce.
    const double df = static_cast<double>(n - 1);
    EXPECT_LT(chi2, df + 6.0 * std::sqrt(2.0 * df)) << "n=" << n;
  }
}

TEST(Bijection, FirstTwoElementsSpreadEvenlyOverSeeds) {
  // The first two positions jointly: every ordered pair of distinct
  // elements equally likely. Small n is where a Feistel network with
  // few-bit halves is weakest.
  for (size_t n : {size_t{3}, size_t{10}, size_t{37}}) {
    const int seeds = 40000;
    std::vector<int> hits(n * n, 0);
    for (int seed = 0; seed < seeds; ++seed) {
      const random_bijection perm(n, static_cast<uint64_t>(seed));
      ++hits[perm(0) * n + perm(1)];
    }
    const double cells = static_cast<double>(n * (n - 1));
    const double expected = seeds / cells;
    double chi2 = 0;
    for (size_t a = 0; a < n; ++a) {
      ASSERT_EQ(hits[a * n + a], 0);
      for (size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        const double d = hits[a * n + b] - expected;
        chi2 += d * d / expected;
      }
    }
    const double df = cells - 1;
    EXPECT_LT(chi2, df + 6.0 * std::sqrt(2.0 * df)) << "n=" << n;
  }
}

}  // namespace
}  // namespace pcc::parallel
