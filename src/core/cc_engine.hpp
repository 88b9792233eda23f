// Reusable executor for the paper's Algorithm 1, with or without a
// spanning forest.
//
// connected_components() answers one query and returns; every level of its
// decompose-contract-recurse pipeline used to allocate (and fault in) fresh
// vectors. The engine replaces the recursion with an iterative level loop
// whose state lives in three workspace arenas (parallel/arena.hpp):
//
//   persist_   — the final labels (and packed forest) plus, per level, the
//                cluster / new_id / rep arrays the lift pass reads back
//                down the level stack.
//   scratch_   — per-level transients (shift schedule, frontiers, flag
//                arrays, packed pairs, hash table); rewound after each use.
//   graph_[2]  — the level graphs' CSR storage (and edge witnesses),
//                ping-ponged: contraction at level L writes G_{L+1} into
//                the arena not holding G_L.
//
// run() computes labels; run_forest() runs the same loop with one extra
// invariant: every directed edge slot of every level graph carries a
// *witness*, the original-graph edge that realizes it (level 0: the edge
// itself; level L+1: the witness of the minimum-gather-rank duplicate that
// survived contraction dedup at level L). Within each level the BFS claim
// edges form a tree of every cluster, so their witnesses join the forest;
// per level that adds n_l - (#clusters_l) edges, telescoping to
// n - #components. The forest run always uses the hybrid Arb traversal
// with deterministic (two-phase rank) claims, and the witness-preserving
// dedup keeps the minimum-rank witness on both routes (contract.hpp), so
// its forest AND labels are a pure function of (graph, options), identical
// across worker counts.
//
// The arenas warm up over the first run (and consolidate to their
// high-water mark); after that, neither entry point performs a heap
// allocation — the property the repeated-query benchmarks and
// tools/pcc_components --repeat rely on, and which the engine tests
// (labels and forest runs alike) verify with an operator-new counting
// hook. A forest run needs larger arenas than a labels run; the
// first one grows them, and later runs of either kind reuse them.
#pragma once

#include <span>
#include <vector>

#include "core/connectivity.hpp"
#include "graph/graph.hpp"
#include "parallel/arena.hpp"

namespace pcc::cc {

class cc_engine {
 public:
  explicit cc_engine(const cc_options& opt = {}) : opt_(opt) {}

  // Pre-size the arenas for a graph with n vertices and m directed edges so
  // the first run() mostly avoids mid-flight chunk chaining. Optional: the
  // arenas self-size from the first run's high-water mark regardless.
  void reserve(size_t n, size_t m);

  // Compute connected components of g. The returned span (size
  // g.num_vertices()) points into the engine's persistent arena and stays
  // valid until the next run*/reserve() call or the engine's destruction.
  // Results are identical to connected_components(g, options()).
  std::span<const vertex_id> run(const graph::graph& g,
                                 cc_stats* stats = nullptr);

  // Same, but with per-run options (the registry shares ONE engine across
  // the decomp-* variants and spanning-forest, so the variant/beta/seed
  // travel with the call rather than being baked in at construction). The
  // arenas are shaped by sizes, not options, so switching options between
  // runs keeps the allocation-free property.
  std::span<const vertex_id> run(const graph::graph& g, const cc_options& opt,
                                 cc_stats* stats = nullptr);

  // Labels and spanning forest from one run_forest(); both views stay
  // valid until the next run*/reserve() call or the engine's destruction.
  struct forest_result {
    // labels[v] = component representative of v, size g.num_vertices();
    // the same partition as run(), though the representatives may differ
    // (the forest run's deterministic claims pick their own centers).
    std::span<const vertex_id> labels;
    // Spanning-forest edges as (u, v) pairs of original vertex ids;
    // exactly n - #components of them, in deterministic order.
    std::span<const graph::edge> forest;
  };

  // Labels plus a spanning forest. The decomposition is always the hybrid
  // Arb one with deterministic claims — opt.variant does not apply here;
  // beta, shifts, seed, dense_threshold, dedup and dedup_route do.
  forest_result run_forest(const graph::graph& g, cc_stats* stats = nullptr);
  forest_result run_forest(const graph::graph& g, const cc_options& opt,
                           cc_stats* stats = nullptr);

  // The forest from the most recent run (empty before the first
  // run_forest() and after a run()).
  std::span<const graph::edge> last_forest() const {
    return {forest_storage_.data(), forest_storage_.size()};
  }

  const cc_options& options() const { return opt_; }

 private:
  // The one level loop behind run() and run_forest(); returns the labels
  // and, when `forest` is set, leaves the forest in forest_storage_.
  std::span<const vertex_id> run_levels(const graph::graph& g,
                                        const cc_options& opt, bool forest,
                                        cc_stats* stats);

  // Lift state recorded per level, read back bottom-up by the lift pass.
  struct level_frame {
    std::span<const vertex_id> cluster;  // size n (this level's graph)
    std::span<const vertex_id> new_id;   // size n
    std::span<const vertex_id> rep;      // size k (next level's graph)
    size_t n = 0;
  };

  cc_options opt_;
  parallel::workspace persist_;
  parallel::workspace scratch_;
  parallel::workspace graph_[2];
  std::vector<level_frame> frames_;
  // The unpacked forest; capacity survives runs (determinism makes its
  // size identical run to run, so after warm-up the resize never grows).
  std::vector<graph::edge> forest_storage_;
};

}  // namespace pcc::cc
