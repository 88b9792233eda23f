// Contraction: cluster/vertex accounting, dedup behaviour, singleton
// removal, structure of the contracted graph, and the rep/new_id maps.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/contract.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "test_helpers.hpp"

namespace pcc {
namespace {

using cc::contract;
using cc::contraction;
using ldd::work_graph;

// Run decomp_arb then contract; returns everything for inspection. The
// graph lives behind a unique_ptr: work_graph borrows the graph's offsets
// array, so the graph object must not relocate when the case is moved.
struct contracted_case {
  std::unique_ptr<graph::graph> g_holder;
  work_graph wg;
  ldd::result dec;
  contraction con;
  const graph::graph& g = *g_holder;
};

contracted_case make_case(graph::graph g, double beta, bool dedup,
                          uint64_t seed = 3,
                          cc::dedup_strategy strategy = cc::dedup_strategy::kAuto) {
  contracted_case c{std::make_unique<graph::graph>(std::move(g)), {}, {}, {}};
  c.wg = work_graph::from(*c.g_holder);
  ldd::options opt;
  opt.beta = beta;
  opt.seed = seed;
  c.dec = ldd::decomp_arb(c.wg, opt, nullptr);
  c.con = contract(c.wg, c.dec, dedup, strategy);
  return c;
}

TEST(Contract, VertexCountEqualsNonSingletonClusters) {
  const auto c = make_case(graph::random_graph(5000, 5, 1), 0.2, true);
  EXPECT_EQ(c.con.contracted.num_vertices() + c.con.num_singleton_clusters,
            c.con.num_clusters);
  EXPECT_EQ(c.con.num_clusters, c.dec.num_clusters);
  EXPECT_EQ(c.con.rep.size(), c.con.contracted.num_vertices());
}

TEST(Contract, RepAndNewIdAreInverse) {
  const auto c = make_case(graph::grid3d_graph(3000, true, 7), 0.3, true);
  for (size_t x = 0; x < c.con.rep.size(); ++x) {
    const vertex_id center = c.con.rep[x];
    EXPECT_EQ(c.dec.cluster[center], center);  // reps are centers
    EXPECT_EQ(c.con.new_id[center], x);
  }
  // new_id is defined exactly on centers of non-singleton clusters.
  size_t defined = 0;
  for (size_t v = 0; v < c.g.num_vertices(); ++v) {
    if (c.con.new_id[v] != kNoVertex) ++defined;
  }
  EXPECT_EQ(defined, c.con.rep.size());
}

TEST(Contract, ContractedGraphIsCleanAndSymmetric) {
  for (bool dedup : {true, false}) {
    const auto c = make_case(graph::rmat_graph(4096, 30000, 5), 0.2, dedup);
    EXPECT_TRUE(graph::is_symmetric(c.con.contracted));
    EXPECT_FALSE(graph::has_self_loops(c.con.contracted));
    if (dedup) {
      EXPECT_FALSE(graph::has_duplicate_edges(c.con.contracted));
    }
  }
}

TEST(Contract, DedupNeverIncreasesEdges) {
  const auto with = make_case(graph::random_graph(8000, 5, 9), 0.3, true);
  const auto without = make_case(graph::random_graph(8000, 5, 9), 0.3, false);
  EXPECT_LE(with.con.contracted.num_edges(),
            without.con.contracted.num_edges());
  // Without dedup every kept directed edge survives.
  EXPECT_EQ(without.con.contracted.num_edges(), without.dec.edges_kept);
  // Dense contractions produce many duplicates (the paper's Figure 4
  // observation); expect a real reduction here.
  EXPECT_LT(with.con.contracted.num_edges(), with.dec.edges_kept);
}

TEST(Contract, EdgesConnectTheRightClusters) {
  // Every contracted edge (x, y) must correspond to >= 1 original edge
  // between cluster rep[x] and cluster rep[y], and vice versa.
  const auto c = make_case(graph::random_graph(2000, 3, 11), 0.2, true);
  std::set<std::pair<vertex_id, vertex_id>> contracted_pairs;
  for (size_t x = 0; x < c.con.contracted.num_vertices(); ++x) {
    for (vertex_id y : c.con.contracted.neighbors(static_cast<vertex_id>(x))) {
      contracted_pairs.insert({c.con.rep[x], c.con.rep[y]});
    }
  }
  std::set<std::pair<vertex_id, vertex_id>> original_pairs;
  for (size_t u = 0; u < c.g.num_vertices(); ++u) {
    for (vertex_id w : c.g.neighbors(static_cast<vertex_id>(u))) {
      if (c.dec.cluster[u] != c.dec.cluster[w]) {
        original_pairs.insert({c.dec.cluster[u], c.dec.cluster[w]});
      }
    }
  }
  EXPECT_EQ(contracted_pairs, original_pairs);
}

TEST(Contract, AllSingletonsWhenNoInterClusterEdges) {
  // One cluster per component (tiny beta): no inter-cluster edges remain,
  // the contracted graph is empty, everything is a singleton.
  graph::graph g = graph::disjoint_union(
      {graph::complete_graph(8), graph::complete_graph(8)});
  work_graph wg = work_graph::from(g);
  ldd::options opt;
  opt.beta = 0.01;
  const auto dec = ldd::decomp_arb(wg, opt, nullptr);
  if (dec.edges_kept == 0) {  // w.h.p. with beta this small
    const auto con = contract(wg, dec, true);
    EXPECT_EQ(con.contracted.num_vertices(), 0u);
    EXPECT_EQ(con.contracted.num_edges(), 0u);
    EXPECT_EQ(con.num_singleton_clusters, con.num_clusters);
  }
}

TEST(Contract, EmptyGraph) {
  graph::graph g = graph::empty_graph(10);
  work_graph wg = work_graph::from(g);
  ldd::options opt;
  const auto dec = ldd::decomp_arb(wg, opt, nullptr);
  const auto con = contract(wg, dec, true);
  EXPECT_EQ(con.num_clusters, 10u);
  EXPECT_EQ(con.contracted.num_vertices(), 0u);
}

TEST(Contract, PreservesComponentCount) {
  // Contraction must not merge or split components: component counts of
  // original and contracted graph agree (counting singleton clusters as
  // their own components).
  const auto c = make_case(graph::random_graph(3000, 2, 13), 0.4, true);
  const size_t original = graph::count_components(c.g);
  const size_t contracted_components =
      graph::count_components(c.con.contracted);
  EXPECT_EQ(original, contracted_components + c.con.num_singleton_clusters);
}

TEST(Contract, SortAndHashDedupProduceIdenticalCsr) {
  // Both dedup routes compact to the same deduplicated, sorted pair set, so
  // the contracted CSR must be byte-identical — not just isomorphic. Run
  // the adversarial corpus: dense contractions (many duplicates), hub
  // graphs, multigraph-like rMat, and tiny edge cases.
  const struct {
    const char* name;
    graph::graph g;
  } cases[] = {
      {"rmat_dense", graph::rmat_graph(4096, 60000, 5)},
      {"random_dense", graph::random_graph(2000, 12, 21)},
      {"star", graph::star_graph(3000)},
      {"grid", graph::grid3d_graph(3000, true, 7)},
      {"small_complete", graph::complete_graph(24)},
  };
  // Decompose once per (graph, beta) and contract that same decomposition
  // with every route: at >1 worker decomp_arb's arbitrary CAS tie-breaking
  // makes repeated decompositions differ, and only the dedup routes are
  // under test here.
  for (const auto& tc : cases) {
    for (const double beta : {0.1, 0.4}) {
      const auto hash = make_case(tc.g, beta, true, 3,
                                  cc::dedup_strategy::kHash);
      const contraction sort =
          contract(hash.wg, hash.dec, true, cc::dedup_strategy::kSort);
      ASSERT_EQ(hash.con.contracted.offsets(), sort.contracted.offsets())
          << tc.name << " beta=" << beta;
      ASSERT_EQ(hash.con.contracted.edges(), sort.contracted.edges())
          << tc.name << " beta=" << beta;
      EXPECT_EQ(hash.con.new_id, sort.new_id) << tc.name;
      EXPECT_EQ(hash.con.rep, sort.rep) << tc.name;
      // kAuto must resolve to one of the two fixed routes, hence also match.
      const contraction aut =
          contract(hash.wg, hash.dec, true, cc::dedup_strategy::kAuto);
      EXPECT_EQ(aut.contracted.offsets(), sort.contracted.offsets())
          << tc.name << " beta=" << beta;
      EXPECT_EQ(aut.contracted.edges(), sort.contracted.edges())
          << tc.name << " beta=" << beta;
    }
  }
}

TEST(Contract, ChooseDedupRouteCostModel) {
  using cc::choose_dedup_route;
  using cc::dedup_strategy;
  // Empty level: route is irrelevant, sort is the cheap no-op.
  EXPECT_EQ(choose_dedup_route(0, 0), dedup_strategy::kSort);
  // Narrow keys (k small => few radix passes): sort wins regardless of m.
  EXPECT_EQ(choose_dedup_route(1 << 20, 1 << 10), dedup_strategy::kSort);
  EXPECT_EQ(choose_dedup_route(100, 50), dedup_strategy::kSort);
  // k up to 2^16 is still a 4-pass sort over the packed 2b-bit key.
  EXPECT_EQ(choose_dedup_route(size_t{1} << 24, size_t{1} << 16),
            dedup_strategy::kSort);
  // Wide key AND heavy duplication: the hash route's post-dedup sort is
  // much smaller, so hashing pays off.
  EXPECT_EQ(choose_dedup_route(size_t{1} << 28, size_t{1} << 20),
            dedup_strategy::kHash);
  // Wide key but light duplication (m/k < 8): dedup barely shrinks the
  // array, stay on the streaming sort.
  EXPECT_EQ(choose_dedup_route((size_t{1} << 20) * 4, size_t{1} << 20),
            dedup_strategy::kSort);
  // Saturated pair space (m >= 16 * k^2/2): duplication is heavy enough
  // that the hash table's hot set stays cached — the measured crossover
  // on the micro pair. k=128 at m=2^18 is the dup=16 micro point.
  EXPECT_EQ(choose_dedup_route(size_t{1} << 18, 128), dedup_strategy::kHash);
  EXPECT_EQ(choose_dedup_route(size_t{1} << 18, 256), dedup_strategy::kSort);
}

TEST(Contract, DedupRouteReportedInView) {
  // contract_into records the route it actually took; pinned strategies
  // must be honored verbatim and "off" reported when dedup is disabled.
  const graph::graph g = graph::random_graph(3000, 8, 17);
  work_graph wg = work_graph::from(g);
  ldd::options opt;
  opt.beta = 0.2;
  const auto dec = ldd::decomp_arb(wg, opt, nullptr);
  parallel::workspace persist_ws, graph_ws, scratch_ws;
  const auto run = [&](bool dedup, cc::dedup_strategy s) {
    persist_ws.reset();
    graph_ws.reset();
    const auto cv = cc::contract_into(wg, dec.cluster, dedup, persist_ws,
                                      graph_ws, scratch_ws, s);
    return std::string(cv.dedup_route);
  };
  EXPECT_EQ(run(true, cc::dedup_strategy::kHash), "hash");
  EXPECT_EQ(run(true, cc::dedup_strategy::kSort), "sort");
  EXPECT_EQ(run(false, cc::dedup_strategy::kAuto), "off");
  const std::string autod = run(true, cc::dedup_strategy::kAuto);
  EXPECT_TRUE(autod == "hash" || autod == "sort") << autod;
}

TEST(Contract, WorksAfterEachDecompositionVariant) {
  const graph::graph g = graph::grid3d_graph(2000, true, 17);
  ldd::options opt;
  opt.beta = 0.25;
  for (int variant = 0; variant < 3; ++variant) {
    work_graph wg = work_graph::from(g);
    const ldd::result dec = variant == 0   ? ldd::decomp_min(wg, opt, nullptr)
                            : variant == 1 ? ldd::decomp_arb(wg, opt, nullptr)
                                           : ldd::decomp_arb_hybrid(wg, opt, nullptr);
    const auto con = contract(wg, dec, true);
    EXPECT_EQ(graph::count_components(g),
              graph::count_components(con.contracted) +
                  con.num_singleton_clusters)
        << "variant " << variant;
  }
}

}  // namespace
}  // namespace pcc
