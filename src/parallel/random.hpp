// Deterministic splittable randomness and random permutations.
//
// The paper simulates exponential shift values by generating a random
// permutation of the vertices in parallel and adding exponentially growing
// chunks of it as BFS centers (Section 4). Vertices also draw random
// integers from a large range to simulate the fractional parts of shifts.
// Both uses need cheap, seedable, location-independent random numbers, so
// we use a counter-based construction: hash64(seed, i). The decomposition
// reads the permutation through random_bijection, which evaluates any
// single position on demand, so only the prefix the BFS actually consumes
// is ever computed.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/defs.hpp"
#include "parallel/integer_sort.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/sequence.hpp"

namespace pcc::parallel {

// Strong 64-bit mix (splitmix64 finalizer). Counter-based: uncorrelated
// values for distinct inputs, identical values for identical inputs, which
// makes every parallel algorithm in the library deterministic given a seed.
inline uint64_t hash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A splittable random source: rng(seed)[i] is a pure function of (seed, i).
class rng {
 public:
  explicit rng(uint64_t seed = 0) : seed_(seed) {}

  uint64_t operator[](uint64_t i) const { return hash64(seed_ ^ hash64(i)); }

  // Integer in [0, bound). bound must be > 0. Slight modulo bias is
  // irrelevant at the 64-bit range sizes used here.
  uint64_t bounded(uint64_t i, uint64_t bound) const {
    return (*this)[i] % bound;
  }

  // Uniform double in (0, 1] (never exactly 0, so log() below is safe).
  double uniform01(uint64_t i) const {
    return (static_cast<double>((*this)[i] >> 11) + 1.0) * 0x1.0p-53;
  }

  // Exponential with rate lambda (mean 1/lambda) via inverse transform.
  // Used by the exact-shift mode of the decomposition (ablation of the
  // paper's permutation-chunk simulation).
  double exponential(uint64_t i, double lambda) const {
    return -std::log(uniform01(i)) / lambda;
  }

  // Derive an independent stream.
  rng split(uint64_t stream) const { return rng(hash64(seed_ ^ (stream + 0x5851f42d4c957f2dULL))); }

 private:
  uint64_t seed_;
};

// Parallel random permutation of [0, n).
//
// Implementation: attach the random key hash64(seed, i) to each index and
// integer-sort by key. Radix sort is linear work per pass, giving a
// work-efficient, deterministic parallel permutation. Ties in the 64-bit
// keys are broken by the sort's stability (by index), so the result is a
// valid permutation regardless.
std::vector<vertex_id> random_permutation(size_t n, uint64_t seed);

inline std::vector<vertex_id> random_permutation(size_t n, uint64_t seed) {
  rng gen(seed);
  // Sort (key, index) pairs by key. 64-bit keys: sort the low 40 bits,
  // which is ample to make collisions rare at any n we handle, and an
  // order-of-magnitude cheaper than all 8 digit passes.
  std::vector<std::pair<uint64_t, vertex_id>> pairs(n);
  parallel_for(0, n, [&](size_t i) {
    pairs[i] = {gen[i], static_cast<vertex_id>(i)};
  });
  integer_sort_pairs(pairs, /*key_bits=*/40,
                     [](const std::pair<uint64_t, vertex_id>& p) { return p.first >> 24; });
  std::vector<vertex_id> perm(n);
  parallel_for(0, n, [&](size_t i) { perm[i] = pairs[i].second; });
  return perm;
}

// A seeded pseudo-random permutation of [0, n), evaluated pointwise:
// (*this)(i) is the element at position i, a pure function of (seed, i) in
// O(1) expected time, with no O(n) state and nothing to sort.
//
// Construction: a 4-round keyed Feistel network over the smallest
// power-of-two domain 2^k >= n, split into a high half of ceil(k/2) bits
// and a low half of floor(k/2) bits. Each round XORs one half with
// hash64(round_key ^ other half), masked to the half's width; that is
// invertible whatever the widths, so the network is a bijection of
// [0, 2^k). Cycle-walking (re-apply until the value lands below n) turns
// it into a bijection of [0, n): the walk from i < n stays on i's cycle,
// which returns to i, so it always meets a value below n, and distinct
// starts meet distinct values. Once n > 2^(kMinBits-1), 2^k < 2n, so a
// position takes fewer than two network evaluations on average.
//
// The domain is at least 2^kMinBits: with halves of only a few bits, four
// rounds leave the joint law of the first positions measurably
// non-uniform (at n = 37, the chi-square of (perm(0), perm(1)) over 200000
// seeds is ~2.7x its degrees of freedom). Cycle-walking a tiny n through 256 values
// costs at most 256 network passes for all n positions together.
class random_bijection {
 public:
  random_bijection(size_t n, uint64_t seed) : n_(n) {
    const int bits =
        n <= 1 ? 0 : static_cast<int>(std::bit_width(uint64_t{n - 1}));
    const int k = std::max(kMinBits, bits);
    lo_bits_ = k / 2;
    lo_mask_ = (uint64_t{1} << lo_bits_) - 1;
    hi_mask_ = (uint64_t{1} << (k - lo_bits_)) - 1;
    const rng keys = rng(seed).split(0xfe15);
    for (int r = 0; r < kRounds; ++r) key_[r] = keys[r];
  }

  // Element at position i; requires i < n.
  vertex_id operator()(size_t i) const {
    uint64_t x = i;
    do {
      x = permute(x);
    } while (x >= n_);
    return static_cast<vertex_id>(x);
  }

 private:
  static constexpr int kRounds = 4;
  static constexpr int kMinBits = 8;

  // One pass of the Feistel network over [0, 2^k).
  uint64_t permute(uint64_t x) const {
    uint64_t hi = x >> lo_bits_;
    uint64_t lo = x & lo_mask_;
    for (int r = 0; r < kRounds; r += 2) {
      hi ^= hash64(key_[r] ^ lo) & hi_mask_;
      lo ^= hash64(key_[r + 1] ^ hi) & lo_mask_;
    }
    return (hi << lo_bits_) | lo;
  }

  size_t n_;
  int lo_bits_ = 0;
  uint64_t lo_mask_ = 0;
  uint64_t hi_mask_ = 0;
  uint64_t key_[kRounds] = {};
};

}  // namespace pcc::parallel
