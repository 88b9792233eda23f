// Semantic differential test for Decomp-Min.
//
// The paper defines the decomposition declaratively: vertex v joins the
// partition of the center u minimizing the shifted distance (equivalently,
// the BFS that reaches v first, ties broken toward the smaller fractional
// shift). This file re-derives that assignment with an obviously-correct
// sequential multi-source Dijkstra over the DISCRETE round timeline of
// Algorithm 2 (see oracle_assignment for the exact event ordering) — centers arise endogenously: a vertex's own start
// entry wins only if nothing arrived earlier — and requires decomp_min to
// produce EXACTLY the same clustering. Decomp-Min's outcome is schedule
// independent, so the comparison is exact, not just partition-equivalent.
//
// White-box note: the oracle reproduces the library's seed-derived shift
// values and fractional tie-break integers (rng streams split(7)/split(11),
// the permutation-chunk prefix ceil(e^{beta*t}) of random_bijection(n,
// seed), the exponential-mode reversal delta_max - delta_v). If those
// derivations change, update here.

#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <tuple>

#include "test_helpers.hpp"

namespace pcc {
namespace {

// Round in which vertex v becomes a center CANDIDATE under the given
// schedule options (it actually starts a BFS only if still unvisited).
std::vector<uint32_t> start_rounds(size_t n, const ldd::options& opt) {
  std::vector<uint32_t> start(n);
  if (opt.shifts == ldd::shift_mode::kPermutationChunks) {
    const parallel::random_bijection perm(n, opt.seed);
    // position -> round: prefix offered by end of round t is
    // min(n, ceil(e^{beta*t})).
    const auto prefix = [&](uint32_t t) {
      const double e = opt.beta * static_cast<double>(t);
      if (e > std::log(static_cast<double>(n) + 1.0) + 1.0) return n;
      return std::min(n, static_cast<size_t>(std::ceil(std::exp(e))));
    };
    std::vector<uint32_t> round_of_pos(n);
    uint32_t t = 0;
    for (size_t p = 0; p < n; ++p) {
      while (prefix(t) <= p) ++t;
      round_of_pos[p] = t;
    }
    for (size_t p = 0; p < n; ++p) start[perm(p)] = round_of_pos[p];
  } else {
    const parallel::rng gen = parallel::rng(opt.seed).split(7);
    std::vector<double> delta(n);
    double dmax = 0;
    for (size_t v = 0; v < n; ++v) {
      delta[v] = gen.exponential(v, opt.beta);
      dmax = std::max(dmax, delta[v]);
    }
    for (size_t v = 0; v < n; ++v) {
      start[v] = static_cast<uint32_t>(
          std::min(std::max(0.0, dmax - delta[v]), 4.0e9));
    }
  }
  return start;
}

// The library's fractional tie-break value for center c.
uint32_t frac_of(vertex_id c, uint64_t seed) {
  const parallel::rng gen = parallel::rng(seed).split(11);
  return 1u + static_cast<uint32_t>(gen.bounded(c, (1u << 31) - 2u));
}

// Sequential oracle: multi-source Dijkstra over the DISCRETE timeline of
// Algorithm 2. Within round t, new centers are added at the top (bfsPre)
// but a BFS that reaches v "at round t" actually claimed it during round
// t-1's phases — so the discrete order is BFS(t) < candidate(t) < BFS(t+1).
// (In the continuous MPX process this tie has probability zero; the
// discretized schedule resolves it toward the earlier event, and the
// implementation follows Algorithm 2 exactly.) Encode BFS arrivals at
// round k as key 2k and center candidacies at round t as key 2t+1; the
// fractional shift breaks ties among equal BFS keys, exactly as the
// writeMin does.
std::vector<vertex_id> oracle_assignment(const graph::graph& g,
                                         const ldd::options& opt) {
  const size_t n = g.num_vertices();
  const auto start = start_rounds(n, opt);
  using entry = std::tuple<uint64_t, uint32_t, vertex_id, vertex_id>;
  std::priority_queue<entry, std::vector<entry>, std::greater<entry>> pq;
  for (size_t v = 0; v < n; ++v) {
    pq.push({uint64_t{2} * start[v] + 1,
             frac_of(static_cast<vertex_id>(v), opt.seed),
             static_cast<vertex_id>(v), static_cast<vertex_id>(v)});
  }
  std::vector<vertex_id> cluster(n, kNoVertex);
  while (!pq.empty()) {
    const auto [key, frac, center, v] = pq.top();
    pq.pop();
    if (cluster[v] != kNoVertex) continue;  // already claimed earlier/better
    cluster[v] = center;
    // v is on the frontier at round key>>1; neighbours are claimed during
    // that round, i.e. BFS-arrive at round (key>>1) + 1.
    const uint64_t next_key = ((key >> 1) + 1) * 2;
    for (vertex_id w : g.neighbors(v)) {
      if (cluster[w] == kNoVertex) pq.push({next_key, frac, center, w});
    }
  }
  return cluster;
}

class DecompMinSemantics
    : public ::testing::TestWithParam<ldd::shift_mode> {};

TEST_P(DecompMinSemantics, MatchesSequentialShiftedDistanceOracle) {
  const std::vector<graph::graph> graphs = {
      graph::grid3d_graph(1000, true, 3),
      graph::random_graph(1500, 3, 5),
      graph::line_graph(800),
      graph::rmat_graph(1024, 4000, 7),
      graph::cliques_with_bridges(10, 8),
  };
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    for (double beta : {0.1, 0.3}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        ldd::options opt;
        opt.beta = beta;
        opt.seed = seed;
        opt.shifts = GetParam();
        const auto expected = oracle_assignment(graphs[gi], opt);
        const auto got = ldd::decompose_min(graphs[gi], opt);
        ASSERT_EQ(got.cluster, expected)
            << "graph " << gi << " beta=" << beta << " seed=" << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShiftModes, DecompMinSemantics,
                         ::testing::Values(
                             ldd::shift_mode::kPermutationChunks,
                             ldd::shift_mode::kExponentialShifts),
                         [](const ::testing::TestParamInfo<ldd::shift_mode>& i) {
                           return i.param ==
                                          ldd::shift_mode::kPermutationChunks
                                      ? "chunks"
                                      : "exponential";
                         });

TEST(DecompArbSemantics, ClaimRoundsMatchOracleArrivalTimes) {
  // Decomp-Arb breaks ties arbitrarily, so centers may differ from the
  // oracle — but the ROUND each vertex is claimed in is tie-independent
  // (it is the min shifted arrival time). Check it through the cluster
  // radii: every vertex's center must have a start round consistent with
  // first arrival, i.e. the oracle's arrival round is reached by SOME
  // center; here we verify the weaker but tie-free property that the
  // number of BFS rounds equals the oracle's maximum arrival round + 1.
  const graph::graph g = graph::grid3d_graph(1728, true, 9);
  for (uint64_t seed : {1u, 2u}) {
    ldd::options opt;
    opt.beta = 0.2;
    opt.seed = seed;
    const auto oracle = oracle_assignment(g, opt);
    // Max arrival round from the oracle run, recomputed via a BFS from the
    // oracle clustering: distance of v to its center + center start round.
    const auto start = start_rounds(g.num_vertices(), opt);
    uint32_t max_round = 0;
    {
      // Multi-source BFS over the discrete timeline (same keying as the
      // oracle): frontier round of v = key >> 1.
      using entry = std::tuple<uint64_t, vertex_id>;
      std::priority_queue<entry, std::vector<entry>, std::greater<entry>> pq;
      std::vector<uint8_t> done(g.num_vertices(), 0);
      for (size_t v = 0; v < g.num_vertices(); ++v) {
        pq.push({uint64_t{2} * start[v] + 1, static_cast<vertex_id>(v)});
      }
      while (!pq.empty()) {
        const auto [key, v] = pq.top();
        pq.pop();
        if (done[v]) continue;
        done[v] = 1;
        max_round = std::max(max_round, static_cast<uint32_t>(key >> 1));
        const uint64_t next_key = ((key >> 1) + 1) * 2;
        for (vertex_id w : g.neighbors(v)) {
          if (!done[w]) pq.push({next_key, w});
        }
      }
    }
    const auto got = ldd::decompose_arb(g, opt);
    EXPECT_EQ(got.num_rounds, static_cast<size_t>(max_round) + 1)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace pcc
