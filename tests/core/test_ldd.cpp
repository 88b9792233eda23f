// Low-diameter decomposition invariants for all three variants and both
// shift schedules:
//   (1) well-formedness: every vertex labeled with a self-labeled center
//       and clusters are induced-connected;
//   (2) the kept-edge bookkeeping exactly matches the inter-cluster edges;
//   (3) cluster diameter respects the O(log n / beta) bound;
//   (4) the expected inter-cluster edge fraction respects the beta
//       (Decomp-Min) / 2*beta (Decomp-Arb) bound, measured over seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "test_helpers.hpp"

namespace pcc {
namespace {

using ldd::check_decomposition;
using ldd::options;
using ldd::result;
using ldd::work_graph;

using decomp_fn = result (*)(work_graph&, const options&,
                             parallel::phase_timer*);

struct ldd_param {
  std::string name;
  decomp_fn fn;
  ldd::shift_mode shifts;
};

std::vector<ldd_param> all_variants() {
  return {
      {"min_chunk", &ldd::decomp_min, ldd::shift_mode::kPermutationChunks},
      {"min_exp", &ldd::decomp_min, ldd::shift_mode::kExponentialShifts},
      {"arb_chunk", &ldd::decomp_arb, ldd::shift_mode::kPermutationChunks},
      {"arb_exp", &ldd::decomp_arb, ldd::shift_mode::kExponentialShifts},
      {"hyb_chunk", &ldd::decomp_arb_hybrid,
       ldd::shift_mode::kPermutationChunks},
      {"hyb_exp", &ldd::decomp_arb_hybrid,
       ldd::shift_mode::kExponentialShifts},
  };
}

class LddVariants : public ::testing::TestWithParam<ldd_param> {};

// Gather the kept edges of a decomposed work_graph as (source, target
// cluster label) and check they are exactly the inter-cluster edges of g.
void expect_kept_edges_exact(const graph::graph& g, const work_graph& wg,
                             const result& dec) {
  std::multiset<std::pair<vertex_id, vertex_id>> kept;
  for (size_t v = 0; v < wg.n; ++v) {
    const edge_id start = wg.offsets[v];
    for (vertex_id i = 0; i < wg.degrees[v]; ++i) {
      kept.insert({static_cast<vertex_id>(v), wg.edges[start + i]});
    }
  }
  std::multiset<std::pair<vertex_id, vertex_id>> expected;
  for (size_t u = 0; u < g.num_vertices(); ++u) {
    for (vertex_id w : g.neighbors(static_cast<vertex_id>(u))) {
      if (dec.cluster[u] != dec.cluster[w]) {
        expected.insert({static_cast<vertex_id>(u), dec.cluster[w]});
      }
    }
  }
  EXPECT_EQ(kept, expected);
  EXPECT_EQ(dec.edges_kept, expected.size());
}

TEST_P(LddVariants, WellFormedOnCorpus) {
  const auto& p = GetParam();
  for (const auto& gc : pcc::testing::correctness_corpus()) {
    const graph::graph g = gc.make();
    work_graph wg = work_graph::from(g);
    options opt;
    opt.beta = 0.2;
    opt.shifts = p.shifts;
    const result dec = p.fn(wg, opt, nullptr);
    ASSERT_EQ(dec.cluster.size(), g.num_vertices());
    if (g.num_vertices() == 0) continue;
    const auto q = check_decomposition(g, dec.cluster);
    EXPECT_TRUE(q.well_formed) << gc.name;
    EXPECT_EQ(q.num_clusters, dec.num_clusters) << gc.name;
    expect_kept_edges_exact(g, wg, dec);
  }
}

TEST_P(LddVariants, DiameterWithinBound) {
  const auto& p = GetParam();
  // Diameter bound is O(log n / beta) w.h.p.; use a generous constant.
  for (double beta : {0.1, 0.4}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      const graph::graph g = graph::grid3d_graph(8000, true, seed);
      work_graph wg = work_graph::from(g);
      options opt;
      opt.beta = beta;
      opt.seed = seed;
      opt.shifts = p.shifts;
      const result dec = p.fn(wg, opt, nullptr);
      const auto q = check_decomposition(g, dec.cluster);
      ASSERT_TRUE(q.well_formed);
      const double bound =
          8.0 * std::log(static_cast<double>(g.num_vertices())) / beta;
      EXPECT_LT(static_cast<double>(q.max_cluster_diameter), bound)
          << "beta=" << beta << " seed=" << seed;
      // Rounds track the radius bound too.
      EXPECT_LT(static_cast<double>(dec.num_rounds), bound + 2);
    }
  }
}

TEST_P(LddVariants, InterClusterFractionWithinExpectation) {
  const auto& p = GetParam();
  // Theorem 2: E[inter-cluster edges] <= 2*beta*m for Arb (beta*m for Min).
  // Average the measured fraction over seeds and require it below the bound
  // with slack for variance. Use a graph where the bound is not trivially
  // slack (grid: most edges are intra-cluster candidates).
  const graph::graph g = graph::grid3d_graph(4096, true, 99);
  for (double beta : {0.1, 0.2}) {
    double total_fraction = 0;
    const int kSeeds = 8;
    for (int seed = 0; seed < kSeeds; ++seed) {
      work_graph wg = work_graph::from(g);
      options opt;
      opt.beta = beta;
      opt.seed = static_cast<uint64_t>(seed) * 71 + 5;
      opt.shifts = p.shifts;
      const result dec = p.fn(wg, opt, nullptr);
      total_fraction +=
          static_cast<double>(dec.edges_kept) /
          static_cast<double>(g.num_edges());
    }
    const double mean_fraction = total_fraction / kSeeds;
    EXPECT_LT(mean_fraction, 2.0 * beta * 1.3)
        << "beta=" << beta << " variant=" << p.name;
    EXPECT_GT(mean_fraction, 0.0);
  }
}

TEST_P(LddVariants, SmallBetaGivesFewerBiggerClusters) {
  const auto& p = GetParam();
  const graph::graph g = graph::random_graph(20000, 5, 7);
  size_t clusters_small_beta = 0;
  size_t clusters_big_beta = 0;
  {
    work_graph wg = work_graph::from(g);
    options opt;
    opt.beta = 0.05;
    clusters_small_beta = p.fn(wg, opt, nullptr).num_clusters;
  }
  {
    work_graph wg = work_graph::from(g);
    options opt;
    opt.beta = 0.8;
    clusters_big_beta = p.fn(wg, opt, nullptr).num_clusters;
  }
  EXPECT_LT(clusters_small_beta, clusters_big_beta);
}

TEST_P(LddVariants, DeterministicGivenSeed) {
  parallel::scoped_workers one(1);  // see note in test_connectivity
  const auto& p = GetParam();
  const graph::graph g = graph::rmat_graph(4096, 20000, 3);
  options opt;
  opt.seed = 1234;
  opt.shifts = p.shifts;
  work_graph wg1 = work_graph::from(g);
  work_graph wg2 = work_graph::from(g);
  const result a = p.fn(wg1, opt, nullptr);
  const result b = p.fn(wg2, opt, nullptr);
  EXPECT_EQ(a.cluster, b.cluster);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  ASSERT_EQ(wg1.degrees.size(), wg2.degrees.size());
  for (size_t v = 0; v < wg1.degrees.size(); ++v) {
    ASSERT_EQ(wg1.degrees[v], wg2.degrees[v]) << v;
  }
}

TEST_P(LddVariants, SingleClusterWhenGraphFitsOneBall) {
  // On a tiny connected graph with small beta, round 0's single center
  // usually swallows everything; at minimum the decomposition is valid and
  // clusters never outnumber vertices.
  const auto& p = GetParam();
  const graph::graph g = graph::complete_graph(32);
  work_graph wg = work_graph::from(g);
  options opt;
  opt.beta = 0.05;
  const result dec = p.fn(wg, opt, nullptr);
  EXPECT_GE(dec.num_clusters, 1u);
  EXPECT_LE(dec.num_clusters, 32u);
  EXPECT_TRUE(check_decomposition(g, dec.cluster).well_formed);
}

INSTANTIATE_TEST_SUITE_P(Variants, LddVariants,
                         ::testing::ValuesIn(all_variants()),
                         [](const ::testing::TestParamInfo<ldd_param>& info) {
                           return info.param.name;
                         });

TEST(LddWrappers, NonDestructiveConvenienceFunctions) {
  const graph::graph g = graph::cycle_graph(500);
  const auto a = ldd::decompose_min(g);
  const auto b = ldd::decompose_arb(g);
  const auto c = ldd::decompose_arb_hybrid(g);
  for (const auto& dec : {a, b, c}) {
    EXPECT_TRUE(check_decomposition(g, dec.cluster).well_formed);
  }
  // g unchanged (wrappers copy).
  EXPECT_EQ(g.num_edges(), 1000u);
}

TEST(LddHybrid, DenseRoundsTriggerOnDenseGraph) {
  // A complete-ish graph floods the frontier immediately.
  const graph::graph g = graph::complete_graph(200);
  work_graph wg = work_graph::from(g);
  options opt;
  opt.beta = 0.5;
  opt.dense_threshold = 0.05;
  const auto dec = ldd::decomp_arb_hybrid(wg, opt, nullptr);
  EXPECT_GT(dec.num_dense_rounds, 0u);
  EXPECT_TRUE(check_decomposition(g, dec.cluster).well_formed);

  // Decomp-Arb is the same traversal with its dense rounds off: at the
  // same threshold it stays write-based, under the Figure 6 phase name.
  work_graph wg_arb = work_graph::from(g);
  parallel::phase_timer pt;
  const auto arb = ldd::decomp_arb(wg_arb, opt, &pt);
  EXPECT_EQ(arb.num_dense_rounds, 0u);
  EXPECT_TRUE(pt.phases().contains("bfsMain"));
  EXPECT_FALSE(pt.phases().contains("bfsDense"));
  EXPECT_TRUE(check_decomposition(g, arb.cluster).well_formed);
}

TEST(LddHybrid, NeverDenseOnLine) {
  // The paper observes the line graph's frontier never reaches the dense
  // threshold.
  const graph::graph g = graph::line_graph(2000);
  work_graph wg = work_graph::from(g);
  options opt;
  opt.beta = 0.1;
  const auto dec = ldd::decomp_arb_hybrid(wg, opt, nullptr);
  EXPECT_EQ(dec.num_dense_rounds, 0u);
}

TEST(LddHybrid, ThresholdZeroForcesAllDense) {
  const graph::graph g = graph::grid3d_graph(1000, true, 3);
  work_graph wg = work_graph::from(g);
  options opt;
  opt.beta = 0.2;
  opt.dense_threshold = 0.0;
  const auto dec = ldd::decomp_arb_hybrid(wg, opt, nullptr);
  EXPECT_EQ(dec.num_dense_rounds, dec.num_rounds);
  EXPECT_TRUE(check_decomposition(g, dec.cluster).well_formed);
}

TEST(LddPhases, TimersUseTheFigureNames) {
  const graph::graph g = graph::random_graph(5000, 5, 1);
  options opt;

  parallel::phase_timer pt_min;
  work_graph wg1 = work_graph::from(g);
  ldd::decomp_min(wg1, opt, &pt_min);
  EXPECT_TRUE(pt_min.phases().contains("bfsPhase1"));
  EXPECT_TRUE(pt_min.phases().contains("bfsPhase2"));
  EXPECT_TRUE(pt_min.phases().contains("bfsPre"));

  parallel::phase_timer pt_arb;
  work_graph wg2 = work_graph::from(g);
  ldd::decomp_arb(wg2, opt, &pt_arb);
  EXPECT_TRUE(pt_arb.phases().contains("bfsMain"));

  parallel::phase_timer pt_hyb;
  work_graph wg3 = work_graph::from(g);
  ldd::decomp_arb_hybrid(wg3, opt, &pt_hyb);
  EXPECT_TRUE(pt_hyb.phases().contains("filterEdges"));
  EXPECT_TRUE(pt_hyb.phases().contains("bfsSparse"));
}

}  // namespace
}  // namespace pcc
