// The Liu–Tarjan concurrent-labeling kernel (core/labeling.hpp): the named
// variant table, every hook × shortcut × alter policy combination (the
// certification epilogue makes all of them unconditionally correct), and
// the canonical min-label guarantee across worker counts.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "test_helpers.hpp"

namespace pcc {
namespace {

using pcc::testing::correctness_corpus;

TEST(Labeling, VariantTableIsConsistent) {
  const std::span<const cc::lt_variant> variants = cc::liu_tarjan_variants();
  ASSERT_GE(variants.size(), 8u);
  std::set<std::string> names;
  for (const cc::lt_variant& v : variants) {
    EXPECT_TRUE(names.insert(v.name).second) << "duplicate " << v.name;
    EXPECT_EQ(cc::find_liu_tarjan_variant(v.name), &v);
    // Roots-only hooks stall without edge alteration (a non-root vertex
    // never re-hooks); the table must only expose convergent combinations.
    if (v.policy.hook == cc::lt_hook::kRoots) EXPECT_TRUE(v.policy.alter);
  }
  EXPECT_EQ(cc::find_liu_tarjan_variant("lt-nope"), nullptr);
}

TEST(Labeling, NamedVariantsMatchReferenceOnCorpus) {
  for (const auto& gc : correctness_corpus()) {
    const graph::graph g = gc.make();
    const std::vector<vertex_id> oracle = baselines::serial_sf_components(g);
    for (const cc::lt_variant& v : cc::liu_tarjan_variants()) {
      const std::vector<vertex_id> labels =
          cc::liu_tarjan_components(g, v.policy);
      EXPECT_TRUE(baselines::labels_equivalent(oracle, labels))
          << v.name << " on " << gc.name;
    }
  }
}

TEST(Labeling, EveryPolicyCombinationIsCorrect) {
  // The full 4 x 2 x 2 policy lattice, including combinations the variant
  // table does not name (e.g. roots hooks without alter): the
  // certification epilogue must make every one of them correct.
  const std::vector<graph::graph> graphs = {
      graph::line_graph(2000),
      graph::star_graph(1000),
      graph::rmat_graph(2048, 10000, 7),
      graph::cliques_with_bridges(10, 8),
  };
  for (const graph::graph& g : graphs) {
    const std::vector<vertex_id> oracle = baselines::serial_sf_components(g);
    for (auto hook : {cc::lt_hook::kDirect, cc::lt_hook::kParent,
                      cc::lt_hook::kExtended, cc::lt_hook::kRoots}) {
      for (auto shortcut : {cc::lt_shortcut::kSingle, cc::lt_shortcut::kFull}) {
        for (bool alter : {false, true}) {
          const cc::lt_policy pol{hook, shortcut, alter};
          const std::vector<vertex_id> labels =
              cc::liu_tarjan_components(g, pol);
          EXPECT_TRUE(baselines::labels_equivalent(oracle, labels))
              << "hook=" << static_cast<int>(hook)
              << " shortcut=" << static_cast<int>(shortcut)
              << " alter=" << alter;
        }
      }
    }
  }
}

TEST(Labeling, LabelsAreComponentMinima) {
  const graph::graph g = graph::rmat_graph(4096, 20000, 19);
  const std::vector<vertex_id> oracle = baselines::serial_sf_components(g);
  std::vector<vertex_id> min_of(g.num_vertices(), kNoVertex);
  for (size_t v = 0; v < oracle.size(); ++v) {
    min_of[oracle[v]] = std::min(min_of[oracle[v]], static_cast<vertex_id>(v));
  }
  for (const cc::lt_variant& v : cc::liu_tarjan_variants()) {
    const std::vector<vertex_id> labels =
        cc::liu_tarjan_components(g, v.policy);
    for (size_t u = 0; u < labels.size(); ++u) {
      ASSERT_EQ(labels[u], min_of[oracle[u]]) << v.name << " vertex " << u;
    }
  }
}

TEST(Labeling, IntoRunsInCallerStorageAndReportsRounds) {
  const graph::graph g = graph::line_graph(5000);
  parallel::workspace ws;
  std::vector<vertex_id> labels(g.num_vertices());
  const size_t rounds =
      cc::liu_tarjan_into(g, cc::lt_policy{}, labels, ws);
  EXPECT_GE(rounds, 1u);
  EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels));
  // A second run over the warm workspace agrees exactly (determinism).
  std::vector<vertex_id> again(g.num_vertices());
  cc::liu_tarjan_into(g, cc::lt_policy{}, again, ws);
  EXPECT_EQ(labels, again);
}

TEST(Labeling, SelfLoopsAndEmptyGraphs) {
  graph::edge_list edges;
  for (vertex_id v = 0; v < 100; ++v) {
    edges.push_back({v, v});
    if (v + 1 < 100) edges.push_back({v, v + 1});
  }
  const graph::graph loops =
      graph::from_edges(100, std::move(edges), {.remove_self_loops = false});
  const graph::graph empty = graph::empty_graph(0);
  for (const cc::lt_variant& v : cc::liu_tarjan_variants()) {
    const std::vector<vertex_id> l1 = cc::liu_tarjan_components(loops, v.policy);
    EXPECT_TRUE(baselines::is_valid_components_labeling(loops, l1)) << v.name;
    for (vertex_id l : l1) EXPECT_EQ(l, 0u) << v.name;  // one path component
    EXPECT_TRUE(cc::liu_tarjan_components(empty, v.policy).empty()) << v.name;
  }
}

}  // namespace
}  // namespace pcc
