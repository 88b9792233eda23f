// The cc::algorithm registry: metadata, lookup, the randomized equivalence
// battery (every registered algorithm — including the Liu–Tarjan variants
// and "auto" — against the sequential oracle on adversarial inputs), and
// the allocation-free repeated-query guarantee for workspace-backed
// entries.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "test_helpers.hpp"

// ---------------------------------------------------------------------------
// Allocation counting hook (same idiom as test_cc_engine.cpp). Disabled
// under ASan, whose allocator owns operator new/delete; the Release CI job
// is the one that enforces the zero-allocation assertions.
#if defined(__SANITIZE_ADDRESS__)
#define PCC_NO_ALLOC_HOOK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PCC_NO_ALLOC_HOOK 1
#endif
#endif

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_alloc_count{0};

#ifndef PCC_NO_ALLOC_HOOK
inline void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(size_t size) {
  note_alloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(size_t size, size_t align) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
#endif  // PCC_NO_ALLOC_HOOK

}  // namespace

#ifndef PCC_NO_ALLOC_HOOK
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // PCC_NO_ALLOC_HOOK
// ---------------------------------------------------------------------------

namespace pcc {
namespace {

using pcc::testing::graph_case;

// Adversarial inputs for the equivalence battery: degenerate shapes, high
// diameter, heavy degree skew, and self-loop-heavy multigraph edge lists
// (self loops must be connectivity no-ops).
std::vector<graph_case> battery_corpus() {
  using namespace pcc::graph;
  std::vector<graph_case> cases = {
      {"empty0", [] { return empty_graph(0); }},
      {"isolated64", [] { return empty_graph(64); }},
      {"line4000", [] { return line_graph(4000); }},
      {"star3000", [] { return star_graph(3000); }},
      {"grid3d_4096", [] { return grid3d_graph(4096, true, 5); }},
      {"rmat_skew", [] {
         return rmat_graph(4096, 30000, 11, {.a = 0.6, .b = 0.1, .c = 0.1});
       }},
      {"self_loop_heavy", [] {
         edge_list edges;
         for (vertex_id v = 0; v < 200; ++v) {
           edges.push_back({v, v});
           edges.push_back({v, (v * 7 + 1) % 200});
           if (v % 3 == 0) edges.push_back({v, v});
         }
         return from_edges(200, std::move(edges),
                           {.remove_self_loops = false});
       }},
      {"random_sparse", [] { return random_graph(3000, 2, 9); }},
  };
  return cases;
}

TEST(Registry, TableLooksSane) {
  const std::span<const cc::algorithm> algos = cc::algorithms();
  ASSERT_GE(algos.size(), 20u);
  EXPECT_STREQ(algos.front().name, "auto");
  // Names are unique and resolvable.
  for (const cc::algorithm& a : algos) {
    const cc::algorithm* found = cc::find_algorithm(a.name);
    ASSERT_NE(found, nullptr) << a.name;
    EXPECT_EQ(found, &a) << "duplicate registry name " << a.name;
    EXPECT_NE(a.description, nullptr);
    EXPECT_NE(a.run, nullptr);
  }
  EXPECT_EQ(cc::find_algorithm("no-such-algorithm"), nullptr);
  // The listing mentions every name.
  const std::string listing = cc::algorithm_listing();
  for (const cc::algorithm& a : algos) {
    EXPECT_NE(listing.find(a.name), std::string::npos) << a.name;
  }
}

TEST(Registry, ResolveMapsDecompAndThrowsOnUnknown) {
  cc::cc_options opt;
  opt.algorithm = "decomp";
  opt.variant = cc::decomp_variant::kMin;
  EXPECT_STREQ(cc::resolve_algorithm(opt).name, "decomp-min");
  opt.variant = cc::decomp_variant::kArb;
  EXPECT_STREQ(cc::resolve_algorithm(opt).name, "decomp-arb");
  opt.variant = cc::decomp_variant::kArbHybrid;
  EXPECT_STREQ(cc::resolve_algorithm(opt).name, "decomp-arb-hybrid");
  opt.algorithm = "auto";
  EXPECT_STREQ(cc::resolve_algorithm(opt).name, "auto");
  opt.algorithm = "made-up";
  EXPECT_THROW(cc::resolve_algorithm(opt), std::invalid_argument);
}

TEST(Registry, EquivalenceBattery) {
  cc::algo_workspace ws;
  for (const graph_case& gc : battery_corpus()) {
    const graph::graph g = gc.make();
    const std::vector<vertex_id> oracle = baselines::serial_sf_components(g);
    std::vector<vertex_id> labels(g.num_vertices());
    for (const cc::algorithm& algo : cc::algorithms()) {
      cc::cc_options opt;
      opt.seed = 3;
      cc::run_algorithm(algo, g, opt, ws, labels);
      EXPECT_TRUE(baselines::labels_equivalent(oracle, labels))
          << algo.name << " on " << gc.name;
      EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels))
          << algo.name << " on " << gc.name;
      EXPECT_TRUE(baselines::labels_are_representatives(labels))
          << algo.name << " on " << gc.name;
    }
  }
}

TEST(Registry, CanonicalAlgorithmsLabelWithComponentMinima) {
  for (const graph_case& gc : battery_corpus()) {
    const graph::graph g = gc.make();
    const std::vector<vertex_id> oracle = baselines::serial_sf_components(g);
    // Minimum vertex id per oracle component.
    std::vector<vertex_id> min_of(g.num_vertices(), kNoVertex);
    for (size_t v = 0; v < oracle.size(); ++v) {
      min_of[oracle[v]] =
          std::min(min_of[oracle[v]], static_cast<vertex_id>(v));
    }
    cc::algo_workspace ws;
    std::vector<vertex_id> labels(g.num_vertices());
    for (const cc::algorithm& algo : cc::algorithms()) {
      if (!algo.canonical_labels) continue;
      cc::run_algorithm(algo, g, cc::cc_options{}, ws, labels);
      for (size_t v = 0; v < labels.size(); ++v) {
        ASSERT_EQ(labels[v], min_of[oracle[v]])
            << algo.name << " on " << gc.name << " vertex " << v;
      }
    }
  }
}

TEST(Registry, AutoRecordsSelectionInStats) {
  const graph::graph g = graph::random_graph(4000, 4, 21);
  cc::cc_stats stats;
  const std::vector<vertex_id> labels = cc::connected_components(g, {}, &stats);
  EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels));
  EXPECT_TRUE(stats.selected);
  ASSERT_NE(stats.algorithm, nullptr);
  EXPECT_STRNE(stats.algorithm, "auto");  // the concrete pick, not "auto"
  EXPECT_NE(cc::find_algorithm(stats.algorithm), nullptr);
  EXPECT_EQ(stats.probe.n, g.num_vertices());
  EXPECT_EQ(stats.probe.m, g.num_edges());
}

TEST(Registry, RepeatedAutoRunsAreAllocationFreeAfterWarmup) {
  // The acceptance bar for the refactor: answering the default ("auto")
  // query repeatedly through one algo_workspace must not touch the heap
  // once the arenas are warm — probe, selection, and the selected
  // algorithm all draw from the workspace.
  const graph::graph g = graph::random_graph(20000, 5, 7);
  cc::cc_options opt;  // algorithm = "auto" (SSO — the string never heaps)
  const cc::algorithm& algo = cc::resolve_algorithm(opt);
  cc::algo_workspace ws;
  ws.reserve(g.num_vertices(), g.num_edges());
  std::vector<vertex_id> labels(g.num_vertices());
  cc::run_algorithm(algo, g, opt, ws, labels);  // warm-up: chain chunks
  cc::run_algorithm(algo, g, opt, ws, labels);  // warm-up: consolidate

  bool saw_clean_run = false;
  for (int attempt = 0; attempt < 10 && !saw_clean_run; ++attempt) {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    cc::run_algorithm(algo, g, opt, ws, labels);
    g_count_allocs.store(false, std::memory_order_relaxed);
    saw_clean_run = g_alloc_count.load(std::memory_order_relaxed) == 0;
  }
  EXPECT_TRUE(saw_clean_run) << "no allocation-free auto run in 10 attempts";
  EXPECT_TRUE(baselines::is_valid_components_labeling(g, labels));
}

TEST(Registry, WorkspaceBackedEntriesAllocationFreeAfterWarmup) {
  const graph::graph g = graph::rmat_graph(8192, 30000, 13);
  cc::algo_workspace ws;
  ws.reserve(g.num_vertices(), g.num_edges());
  std::vector<vertex_id> labels(g.num_vertices());
  for (const cc::algorithm& algo : cc::algorithms()) {
    if (!algo.workspace_backed) continue;
    cc::cc_options opt;
    cc::run_algorithm(algo, g, opt, ws, labels);
    cc::run_algorithm(algo, g, opt, ws, labels);
    bool saw_clean_run = false;
    for (int attempt = 0; attempt < 10 && !saw_clean_run; ++attempt) {
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_count_allocs.store(true, std::memory_order_relaxed);
      cc::run_algorithm(algo, g, opt, ws, labels);
      g_count_allocs.store(false, std::memory_order_relaxed);
      saw_clean_run = g_alloc_count.load(std::memory_order_relaxed) == 0;
    }
    EXPECT_TRUE(saw_clean_run)
        << "no allocation-free run in 10 attempts for " << algo.name;
  }
}

}  // namespace
}  // namespace pcc
